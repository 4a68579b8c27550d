#include "serve/shard/router.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <type_traits>

#include "serve/deadline.hpp"
#include "serve/deploy_request.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "web/envelope.hpp"

namespace cnn2fpga::serve::shard {

using cnn2fpga::util::format;
using web::api_error;

namespace {
constexpr const char* kDeployPath = "/api/v1/deploy";
constexpr const char* kPredictPath = "/api/v1/predict";
constexpr const char* kDesignsPath = "/api/v1/designs";
constexpr const char* kMetricsPath = "/api/v1/metrics";
constexpr const char* kReadyzPath = "/api/v1/readyz";

/// Runs call(0) .. call(n - 1) at once and returns their answers in index
/// order: the calling thread takes index 0 and one short-lived thread takes
/// each other index, so a round trip to every worker costs the slowest one,
/// not the sum. An index whose thread cannot start runs inline. An exception
/// a call throws reaches the caller, the first in index order, once every
/// call has returned.
template <class Call>
auto fan_out(std::size_t n, const Call& call) {
  using Answer = std::invoke_result_t<const Call&, std::size_t>;
  static_assert(!std::is_same_v<Answer, bool>, "vector<bool> elements share words");
  std::vector<Answer> answers(n);
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::size_t i) {
    try {
      answers[i] = call(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 1; i < n; ++i) {
    try {
      threads.emplace_back(run, i);
    } catch (const std::exception&) {  // std::system_error, or std::bad_alloc
      run(i);
    }
  }
  if (n > 0) run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return answers;
}

std::uint64_t u64_field(const json::Value& doc, const std::string& key) {
  try {
    return static_cast<std::uint64_t>(doc.get_int(key, 0));
  } catch (const json::JsonError&) {
    return 0;
  }
}

double num_field(const json::Object& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end() || !it->second.is_number()) return 0.0;
  return it->second.as_double();
}

/// A node produced by Histogram::to_json: mergeable by raw bucket counts.
bool is_histogram_node(const json::Value& value) {
  return value.is_object() && value.find("buckets") != nullptr &&
         value.find("count") != nullptr && value.find("sum") != nullptr;
}

/// Add a Histogram::to_json node scraped from a worker to `into`. Because
/// workers export raw log2 buckets, the merged count, sum, max and
/// percentiles are exactly what one fleet-wide histogram would have recorded
/// — not an approximation from per-worker percentiles. Malformed bucket
/// pairs, out-of-range bucket indices and negative counts are dropped.
void absorb_histogram(const json::Value& node, HistogramCounts* into) {
  into->count += u64_field(node, "count");
  into->sum += u64_field(node, "sum");
  into->max = std::max(into->max, u64_field(node, "max"));
  const json::Value* array = node.find("buckets");
  if (array == nullptr || !array->is_array()) return;
  for (const json::Value& pair : array->as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2) continue;
    try {
      const long index = pair.as_array()[0].as_int();
      const long n = pair.as_array()[1].as_int();
      if (index < 0 || index >= static_cast<long>(HistogramCounts::kBuckets) || n < 0) {
        continue;
      }
      into->buckets[static_cast<std::size_t>(index)] += static_cast<std::uint64_t>(n);
    } catch (const json::JsonError&) {
    }
  }
}

void merge_object(json::Object& into, const json::Object& from);

/// Generic fleet merge: histograms merge by buckets, numbers sum, objects
/// recurse, everything else (strings, bools, arrays, type mismatches) keeps
/// the first worker's value. Ratio fields summed here are recomputed from the
/// merged totals afterwards (fix_fleet_rates).
void merge_value(json::Value& into, const json::Value& from) {
  if (is_histogram_node(into) && is_histogram_node(from)) {
    HistogramCounts merged;
    absorb_histogram(into, &merged);
    absorb_histogram(from, &merged);
    into = merged.to_json();
    return;
  }
  if (into.is_object() && from.is_object()) {
    merge_object(into.as_object(), from.as_object());
    return;
  }
  if (into.is_number() && from.is_number()) {
    into = json::Value(into.as_double() + from.as_double());
    return;
  }
}

void merge_object(json::Object& into, const json::Object& from) {
  for (const auto& [key, value] : from) {
    const auto it = into.find(key);
    if (it == into.end()) {
      into[key] = value;
    } else {
      merge_value(it->second, value);
    }
  }
}

/// Summing rates across workers is meaningless; recompute the fleet ratios
/// from the merged counters they derive from.
void fix_fleet_rates(json::Object& fleet) {
  if (const auto it = fleet.find("deploy"); it != fleet.end() && it->second.is_object()) {
    json::Object& deploy = it->second.as_object();
    const double total = num_field(deploy, "total");
    deploy["cache_hit_rate"] = total > 0 ? num_field(deploy, "cache_hits") / total : 0.0;
  }
}

}  // namespace

std::optional<std::string> compute_design_key(const std::string& body,
                                              web::HttpResponse* error) {
  const std::optional<DeployRequest> request = parse_deploy_request(body, error);
  if (!request) return std::nullopt;
  return design_key(request->descriptor, request->weights, request->precision);
}

Router::Router(RouterConfig config)
    : config_([&config] {
        if (config.replication == 0) config.replication = 1;
        return config;
      }()),
      ring_(config_.vnodes) {
  faults_.configure_from_env();
  if (!config_.journal_path.empty()) {
    // Open + replay up front so a construction-time config error (unwritable
    // path) fails loudly, not on the first deploy. The replayed bodies wait
    // for recover(): rebuilding the catalog is the caller's explicit step.
    journal_ = std::make_unique<DeployJournal>(config_.journal_path, config_.journal);
    replayed_bodies_ = journal_->open_and_replay();
  }
}

Router::~Router() { stop_probing(); }

void Router::add_worker(const std::string& id, const std::string& host, int port) {
  std::vector<Repair> repairs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers_.find(id) == workers_.end()) {
      // Route the router's injector into every worker connection so armed
      // client.* chaos (see web/http_client) breaks the real sockets the
      // failover and health paths depend on.
      WorkerClientConfig worker_config = config_.worker;
      worker_config.client.faults = &faults_;
      workers_.emplace(id, std::make_unique<WorkerClient>(id, host, port, worker_config));
    }
    repairs = restore_worker_locked(id);
  }
  execute_repairs(std::move(repairs));
}

std::size_t Router::recover() {
  if (journal_ == nullptr) return 0;
  std::vector<std::string> bodies;
  std::swap(bodies, replayed_bodies_);
  std::vector<Repair> repairs;
  std::set<std::string> recovered_keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& body : bodies) {
      const auto key = compute_design_key(body, nullptr);
      if (!key) {
        // A record that journaled as a valid deploy but no longer parses
        // means the deploy contract changed under the journal; keep serving,
        // loudly.
        LOG_WARN("shard") << "journal record no longer computes a design key; skipped";
        continue;
      }
      CatalogEntry& entry = catalog_[*key];
      entry.deploy_body = body;  // append order: the newest body wins
      recovered_keys.insert(*key);
    }
    // Re-replicate everything the catalog now knows onto the current ring.
    // With no workers yet this plans nothing — add_worker joins repair the
    // newcomers from this same catalog.
    for (auto& [key, entry] : catalog_) {
      Repair repair{key, entry.deploy_body, {}};
      for (const std::string& target : ring_.replicas(key, config_.replication)) {
        if (entry.holders.count(target) == 0) repair.targets.push_back(target);
      }
      if (!repair.targets.empty()) repairs.push_back(std::move(repair));
    }
    journal_recovered_.store(recovered_keys.size(), std::memory_order_relaxed);
  }
  execute_repairs(std::move(repairs));
  LOG_INFO("shard") << format("recovered %zu design(s) from journal %s",
                              recovered_keys.size(), journal_->path().c_str());
  return recovered_keys.size();
}

void Router::attach_supervisor(Supervisor* supervisor) {
  supervisor_ = supervisor;
  if (supervisor_ != nullptr) {
    supervisor_->on_restart([this](const std::string& id) {
      LOG_INFO("shard") << format("worker %s restarted; probing for rejoin", id.c_str());
      probe_now();
    });
  }
}

std::vector<std::string> Router::worker_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(workers_.size());
  for (const auto& [id, client] : workers_) out.push_back(id);
  return out;
}

WorkerClient* Router::worker(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Router::ring_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.workers().begin(), ring_.workers().end()};
}

std::vector<std::string> Router::holders(const std::string& design_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = catalog_.find(design_id);
  if (it == catalog_.end()) return {};
  return {it->second.holders.begin(), it->second.holders.end()};
}

std::vector<Router::Repair> Router::drop_worker_locked(const std::string& id) {
  std::vector<Repair> repairs;
  if (!ring_.contains(id)) return repairs;
  ring_.remove(id);
  if (const auto it = workers_.find(id); it != workers_.end()) {
    it->second->drop_connections();
  }
  LOG_INFO("shard") << format("worker %s left the ring (%zu remain)", id.c_str(),
                              ring_.size());
  for (auto& [key, entry] : catalog_) {
    if (entry.holders.erase(id) == 0) continue;
    // This design lost a replica; bring it back to full replication on the
    // workers the shrunken ring now names, minus those already holding it.
    Repair repair{key, entry.deploy_body, {}};
    for (const std::string& target : ring_.replicas(key, config_.replication)) {
      if (entry.holders.count(target) == 0) repair.targets.push_back(target);
    }
    if (!repair.targets.empty()) repairs.push_back(std::move(repair));
  }
  return repairs;
}

std::vector<Router::Repair> Router::restore_worker_locked(const std::string& id) {
  std::vector<Repair> repairs;
  if (ring_.contains(id)) return repairs;
  ring_.add(id);
  LOG_INFO("shard") << format("worker %s joined the ring (%zu total)", id.c_str(),
                              ring_.size());
  // The newcomer receives exactly the designs it is now a replica for — the
  // minimal-churn property: everything else stays where it is.
  for (auto& [key, entry] : catalog_) {
    const auto replicas = ring_.replicas(key, config_.replication);
    if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) continue;
    if (entry.holders.count(id) != 0) continue;
    repairs.push_back(Repair{key, entry.deploy_body, {id}});
  }
  return repairs;
}

void Router::execute_repairs(std::vector<Repair> repairs) {
  // Each target worker's repairs in plan order; the workers replay theirs at
  // once, one thread per worker.
  std::map<std::string, std::vector<const Repair*>> by_target;
  for (const Repair& repair : repairs) {
    for (const std::string& target : repair.targets) by_target[target].push_back(&repair);
  }
  const std::vector<std::pair<std::string, std::vector<const Repair*>>> queues(
      by_target.begin(), by_target.end());
  const std::vector<std::size_t> accepted = fan_out(queues.size(), [&](std::size_t q) {
    const auto& [target, queue] = queues[q];
    std::size_t placed = 0;
    WorkerClient* client = worker(target);
    if (client == nullptr) return placed;
    for (const Repair* repair : queue) {
      const auto response = client->request("POST", kDeployPath, repair->deploy_body);
      if (response && response->status == 200) {
        ++placed;
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = catalog_.find(repair->design_id); it != catalog_.end()) {
          it->second.holders.insert(target);
        }
      } else {
        LOG_WARN("shard") << format("replication repair of %s to %s failed",
                                    repair->design_id.c_str(), target.c_str());
      }
    }
    return placed;
  });
  for (const std::size_t placed : accepted) {
    repairs_.fetch_add(placed, std::memory_order_relaxed);
  }
}

bool Router::journal_deploy(const std::string& body, web::HttpResponse* error) {
  if (journal_ == nullptr) return true;
  try {
    journal_->append(body);
  } catch (const JournalError& e) {
    LOG_ERROR("shard") << e.what();
    if (error != nullptr) {
      *error = api_error(500, "journal_failed",
                         "deploy reached the workers but could not be made durable; retry",
                         e.what());
    }
    return false;
  }
  // Opportunistic compaction: once dead history dominates, rewrite the log
  // as a snapshot of the live catalog. Failure is benign — the uncompacted
  // log is still a correct (just longer) journal.
  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = catalog_.size();
  }
  if (journal_->wants_compaction(live)) {
    std::vector<std::string> bodies;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      bodies.reserve(catalog_.size());
      for (const auto& [key, entry] : catalog_) bodies.push_back(entry.deploy_body);
    }
    try {
      journal_->compact(bodies);
      LOG_INFO("shard") << format("journal compacted to %zu live design(s)", bodies.size());
    } catch (const JournalError& e) {
      LOG_WARN("shard") << format("journal compaction failed (log still valid): %s", e.what());
    }
  }
  return true;
}

void Router::probe_now() {
  std::vector<std::pair<std::string, WorkerClient*>> fleet;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : workers_) fleet.emplace_back(id, client.get());
  }
  const std::vector<WorkerState> states =
      fan_out(fleet.size(), [&](std::size_t w) { return fleet[w].second->probe(); });
  std::vector<Repair> repairs;
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const std::string& id = fleet[w].first;
    const WorkerState state = states[w];
    const bool usable = state == WorkerState::kUp || state == WorkerState::kSaturated;
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.contains(id) && !usable) {
      auto planned = drop_worker_locked(id);
      repairs.insert(repairs.end(), std::make_move_iterator(planned.begin()),
                     std::make_move_iterator(planned.end()));
    } else if (!ring_.contains(id) && usable) {
      auto planned = restore_worker_locked(id);
      repairs.insert(repairs.end(), std::make_move_iterator(planned.begin()),
                     std::make_move_iterator(planned.end()));
    }
  }
  execute_repairs(std::move(repairs));
}

void Router::probe_loop() {
  while (probing_.load()) {
    // Supervision rides the probe cadence: reap/restart decisions happen
    // right before the probe that would re-admit a healthy worker.
    if (supervisor_ != nullptr) supervisor_->tick();
    probe_now();
    std::unique_lock<std::mutex> lock(probe_mutex_);
    probe_cv_.wait_for(lock, std::chrono::milliseconds(config_.probe_interval_ms),
                       [this] { return !probing_.load(); });
  }
}

void Router::start_probing() {
  if (config_.probe_interval_ms <= 0) return;
  if (probing_.exchange(true)) return;
  prober_ = std::thread([this] { probe_loop(); });
}

void Router::stop_probing() {
  if (!probing_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::vector<std::string> Router::candidates_locked(const std::string& key) const {
  const auto replicas = ring_.replicas(key, config_.replication);
  std::vector<std::string> usable, draining, down;
  for (const std::string& id : replicas) {
    const auto it = workers_.find(id);
    const WorkerState state =
        it == workers_.end() ? WorkerState::kDown : it->second->state();
    switch (state) {
      case WorkerState::kUp:
      case WorkerState::kSaturated: usable.push_back(id); break;
      case WorkerState::kDraining: draining.push_back(id); break;
      case WorkerState::kDown: down.push_back(id); break;
    }
  }
  std::vector<std::string> out = std::move(usable);
  out.insert(out.end(), draining.begin(), draining.end());
  // A holder the ring no longer names (e.g. its worker just rejoined, or the
  // ring shrank) can still answer — better than failing the request.
  if (const auto it = catalog_.find(key); it != catalog_.end()) {
    for (const std::string& id : it->second.holders) {
      if (std::find(out.begin(), out.end(), id) == out.end() &&
          std::find(down.begin(), down.end(), id) == down.end()) {
        out.push_back(id);
      }
    }
  }
  // Workers believed down go last: the request may be what proves recovery.
  out.insert(out.end(), down.begin(), down.end());
  return out;
}

web::HttpResponse Router::handle_deploy(const web::HttpRequest& request) {
  web::HttpResponse key_error;
  const auto key = compute_design_key(request.body, &key_error);
  if (!key) return key_error;

  std::vector<std::string> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    targets = ring_.replicas(*key, config_.replication);
  }
  if (targets.empty()) {
    return api_error(503, "no_workers", "shard router has no workers on the ring");
  }

  // Every replica deploys at once; the answers are read in ring order, so the
  // first 200 in that order is the body the client gets.
  const auto answers = fan_out(targets.size(), [&](std::size_t t) {
    WorkerClient* client = worker(targets[t]);
    return client == nullptr ? std::nullopt
                             : client->request("POST", kDeployPath, request.body);
  });
  std::optional<web::HttpResponse> success;
  std::optional<web::HttpResponse> failure;
  std::vector<std::string> holders;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::string& id = targets[t];
    const std::optional<web::HttpResponse>& response = answers[t];
    if (!response) continue;
    if (response->status == 200) {
      holders.push_back(id);
      if (!success) {
        // Sanity-check the router's local key computation against the
        // worker's registry; a mismatch means routing and placement diverge.
        try {
          const json::Value doc = json::parse(response->body);
          if (const json::Value* id_field = doc.find("design_id");
              id_field != nullptr && id_field->is_string() &&
              id_field->as_string() != *key) {
            key_mismatches_.fetch_add(1, std::memory_order_relaxed);
            LOG_WARN("shard") << format("design key mismatch: router=%s worker=%s",
                                        key->c_str(), id_field->as_string().c_str());
          }
        } catch (const json::JsonError&) {
        }
        success = response;
      }
    } else if (!failure) {
      failure = response;
    }
  }

  if (holders.empty()) {
    if (failure) return *failure;  // the worker's own 4xx/5xx, verbatim
    return api_error(503, "no_workers", "no worker accepted the deploy");
  }

  bool new_history = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CatalogEntry& entry = catalog_[*key];
    // Only bodies that change the catalog are history; an idempotent
    // redeploy must not grow the journal.
    new_history = entry.deploy_body != request.body;
    entry.deploy_body = request.body;
    for (const std::string& id : holders) entry.holders.insert(id);
  }
  if (new_history) {
    // Durability before the ack: a 200 means a router restart will still
    // know this design. If the journal cannot take the record the deploy
    // fails, even though workers accepted it — the client's retry is cheap
    // (worker deploy caches hit), a silently volatile ack is not.
    web::HttpResponse journal_error;
    if (!journal_deploy(request.body, &journal_error)) return journal_error;
  }

  web::HttpResponse response = *success;
  response.headers["X-Shard-Workers"] = util::join(holders, ",");
  response.headers["X-Shard-Replication"] = std::to_string(holders.size());
  return response;
}

web::HttpResponse Router::handle_predict(const web::HttpRequest& request) {
  std::string design_id;
  try {
    const json::Value doc = json::parse(request.body);
    const json::Value* id = doc.find("design_id");
    if (id == nullptr || !id->is_string()) {
      return api_error(400, "bad_request", "predict: design_id is required (deploy first)");
    }
    design_id = id->as_string();
  } catch (const json::JsonError& e) {
    return api_error(400, "bad_json", "request body is not valid JSON", e.what());
  }

  std::vector<std::string> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    candidates = candidates_locked(design_id);
  }
  if (candidates.empty()) {
    return api_error(503, "no_workers", "shard router has no workers on the ring");
  }

  // Deadline budget is fleet-wide, not per-attempt: each failover forwards
  // only what remains, and once the budget is spent the router answers 504
  // itself instead of letting a third replica burn the full window again.
  std::map<std::string, std::string> forward;
  std::optional<long long> deadline_budget_ms;
  const auto arrival = std::chrono::steady_clock::now();
  if (const auto deadline = request.headers.find("x-deadline-ms");
      deadline != request.headers.end()) {
    // Read exactly as a worker reads it (serve/deadline.hpp): a malformed
    // value gets the worker's own 400 from here.
    const std::optional<std::uint64_t> budget = parse_deadline_ms(deadline->second);
    if (!budget) return deadline_header_error(deadline->second);
    if (deadline_after(arrival, *budget) == DeadlineClock::time_point::max()) {
      // Past the clock's range, so no deadline. Forwarded verbatim, it is
      // past every later arrival's range too, and the worker agrees.
      forward["X-Deadline-Ms"] = deadline->second;
    } else {
      deadline_budget_ms = static_cast<long long>(*budget);
    }
  }

  std::optional<web::HttpResponse> last_error;
  std::vector<Repair> pending_repairs;
  int attempts = 0;
  std::optional<web::HttpResponse> final;
  std::string served_by;

  for (const std::string& id : candidates) {
    WorkerClient* client = worker(id);
    if (client == nullptr) continue;
    if (deadline_budget_ms) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - arrival)
                               .count();
      const long long remaining = *deadline_budget_ms - static_cast<long long>(elapsed);
      if (remaining <= 0) {
        deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
        auto expired = api_error(504, "deadline_exceeded",
                                 format("deadline of %lld ms spent after %d attempt(s)",
                                        *deadline_budget_ms, attempts));
        expired.headers["X-Shard-Attempts"] = std::to_string(attempts);
        return expired;
      }
      forward["X-Deadline-Ms"] = std::to_string(remaining);
    }
    ++attempts;
    if (attempts > 1) failovers_.fetch_add(1, std::memory_order_relaxed);

    if (faults_.enabled() && faults_.should_fail("shard.worker")) {
      // Simulated transport failure on this worker: fail over like a real one
      // (without poisoning the worker's actual health state).
      injected_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    auto response = client->request("POST", kPredictPath, request.body, forward);
    if (!response) {
      // Real transport failure. If this pushed the worker over its failure
      // threshold, take it off the ring now and plan re-replication — the
      // remap happens on the request that discovered the death, not a probe
      // cycle later.
      if (!client->usable()) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto planned = drop_worker_locked(id);
        pending_repairs.insert(pending_repairs.end(),
                               std::make_move_iterator(planned.begin()),
                               std::make_move_iterator(planned.end()));
      }
      continue;
    }

    std::string catalog_body;
    if (response->status == 404) {
      // The ring says this worker owns the design but its registry lost it
      // (restart, LRU eviction): fetch the catalogued deploy to replay.
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = catalog_.find(design_id); it != catalog_.end()) {
        catalog_body = it->second.deploy_body;
      }
    }
    if (!catalog_body.empty()) {
      // Replay the deploy and retry once.
      const auto deployed = client->request("POST", kDeployPath, catalog_body);
      if (deployed && deployed->status == 200) {
        repairs_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (const auto it = catalog_.find(design_id); it != catalog_.end()) {
            it->second.holders.insert(id);
          }
        }
        response = client->request("POST", kPredictPath, request.body, forward);
        if (!response) continue;
      }
    }

    const int status = response->status;
    if (status == 429 || status == 500 || status == 503) {
      // This worker cannot take the request right now; a replica might.
      last_error = std::move(response);
      continue;
    }
    final = std::move(response);
    served_by = id;
    break;
  }

  execute_repairs(std::move(pending_repairs));

  if (!final) {
    if (last_error) {
      last_error->headers["X-Shard-Attempts"] = std::to_string(attempts);
      return *last_error;
    }
    return api_error(503, "no_workers",
                     format("no worker could serve design %s", design_id.c_str()));
  }
  // Body passes through byte-for-byte: routing must never change a
  // prediction. Attribution rides in headers only.
  final->headers["X-Shard-Worker"] = served_by;
  final->headers["X-Shard-Attempts"] = std::to_string(attempts);
  return *final;
}

web::HttpResponse Router::handle_designs(const web::HttpRequest&) {
  std::vector<std::pair<std::string, WorkerClient*>> fleet;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : workers_) fleet.emplace_back(id, client.get());
  }

  // Dedup by design_id across workers; each summary gains the holder list.
  std::vector<std::string> order;
  std::map<std::string, json::Value> designs;
  std::map<std::string, json::Array> held_by;
  json::Object per_worker;
  const auto answers = fan_out(fleet.size(), [&](std::size_t w) {
    return fleet[w].second->request("GET", kDesignsPath);
  });
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const std::string& id = fleet[w].first;
    const std::optional<web::HttpResponse>& response = answers[w];
    if (!response || response->status != 200) continue;
    try {
      const json::Value doc = json::parse(response->body);
      per_worker[id] = json::Value(static_cast<std::size_t>(doc.get_int("resident", 0)));
      const json::Value* array = doc.find("designs");
      if (array == nullptr || !array->is_array()) continue;
      for (const json::Value& design : array->as_array()) {
        const json::Value* design_id = design.find("design_id");
        if (design_id == nullptr || !design_id->is_string()) continue;
        const std::string& key = design_id->as_string();
        if (designs.find(key) == designs.end()) {
          designs[key] = design;
          order.push_back(key);
        }
        held_by[key].emplace_back(id);
      }
    } catch (const json::JsonError&) {
    }
  }

  json::Array merged;
  for (const std::string& key : order) {
    json::Value design = designs[key];
    design.as_object()["workers"] = std::move(held_by[key]);
    merged.push_back(std::move(design));
  }
  json::Object body;
  body["designs"] = std::move(merged);
  body["resident"] = order.size();
  body["workers"] = std::move(per_worker);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body["catalog"] = catalog_.size();
    body["replication"] = config_.replication;
  }
  return web::api_ok(std::move(body));
}

web::HttpResponse Router::handle_metrics(const web::HttpRequest&) {
  std::vector<std::pair<std::string, WorkerClient*>> fleet;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : workers_) fleet.emplace_back(id, client.get());
  }

  json::Object workers_block;
  std::optional<json::Value> merged;
  const auto answers = fan_out(fleet.size(), [&](std::size_t w) {
    return fleet[w].second->request("GET", kMetricsPath);
  });
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const std::string& id = fleet[w].first;
    const std::optional<web::HttpResponse>& response = answers[w];
    if (!response || response->status != 200) continue;
    try {
      json::Value doc = json::parse(response->body);
      if (!merged) {
        merged = doc;
      } else {
        merge_value(*merged, doc);
      }
      workers_block[id] = std::move(doc);
    } catch (const json::JsonError&) {
    }
  }

  json::Object body;
  if (merged && merged->is_object()) {
    fix_fleet_rates(merged->as_object());
    body["fleet"] = std::move(*merged);
  } else {
    body["fleet"] = json::Object{};
  }
  body["workers"] = std::move(workers_block);

  json::Object router;
  router["failovers"] = failovers();
  router["repairs"] = repairs();
  router["key_mismatches"] = key_mismatches();
  router["injected_failures"] = injected_failures();
  router["deadline_rejects"] = deadline_rejects();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    router["catalog"] = catalog_.size();
    router["replication"] = config_.replication;
    json::Array on_ring;
    for (const std::string& id : ring_.workers()) on_ring.push_back(id);
    router["ring"] = std::move(on_ring);
  }
  if (journal_ != nullptr) {
    router["journal"] = journal_->to_json();
    // The drill gate reads this flat field: 0 == nothing was lost at replay.
    router["journal_truncated_records"] = journal_->truncated_records();
    router["journal_recovered"] = journal_recovered_.load(std::memory_order_relaxed);
  }
  if (supervisor_ != nullptr) router["supervisor"] = supervisor_->to_json();
  if (faults_.enabled()) router["faults"] = faults_.to_json();
  body["router"] = std::move(router);
  return {200, "application/json", json::Value(std::move(body)).dump(), {}};
}

web::HttpResponse Router::handle_readyz(const web::HttpRequest&) {
  std::vector<std::pair<std::string, WorkerClient*>> fleet;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : workers_) fleet.emplace_back(id, client.get());
  }

  json::Object workers_block;
  std::size_t answering = 0;
  std::size_t degraded = 0;
  const auto answers = fan_out(fleet.size(), [&](std::size_t w) {
    return fleet[w].second->request("GET", kReadyzPath);
  });
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const auto& [id, client] = fleet[w];
    const std::optional<web::HttpResponse>& response = answers[w];
    json::Object one;
    if (response) {
      ++answering;
      try {
        one["readyz"] = json::parse(response->body);
      } catch (const json::JsonError&) {
        one["readyz"] = json::Value(nullptr);
      }
    } else {
      one["readyz"] = json::Value(nullptr);
    }
    const WorkerState state = client->state();
    if (state != WorkerState::kUp) ++degraded;
    one["state"] = std::string(worker_state_name(state));
    one["consecutive_failures"] = client->consecutive_failures();
    one["requests"] = client->requests();
    one["transport_failures"] = client->transport_failures();
    workers_block[id] = std::move(one);
  }

  json::Object body;
  body["workers"] = std::move(workers_block);
  std::size_t under_replicated = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    json::Object ring;
    json::Array on_ring;
    for (const std::string& id : ring_.workers()) on_ring.push_back(id);
    ring["workers"] = std::move(on_ring);
    ring["replication"] = config_.replication;
    ring["vnodes"] = config_.vnodes;
    body["ring"] = std::move(ring);

    const std::size_t expected = std::min(config_.replication, std::max<std::size_t>(
                                                                   ring_.size(), 1));
    for (const auto& [key, entry] : catalog_) {
      if (entry.holders.size() < expected) ++under_replicated;
    }
    json::Object designs;
    designs["total"] = catalog_.size();
    designs["under_replicated"] = under_replicated;
    body["designs"] = std::move(designs);
  }
  std::uint64_t permanently_down = 0;
  if (supervisor_ != nullptr) {
    // Slot states (running / backoff / dead) — a permanently-down worker is
    // visible here, not just as one more kDown in the probe view.
    body["supervisor"] = supervisor_->to_json();
    permanently_down = supervisor_->permanently_down();
  }

  const char* status = answering == 0 ? "unavailable"
                       : (degraded != 0 || under_replicated != 0 || permanently_down != 0)
                           ? "degraded"
                           : "ready";
  body["status"] = std::string(status);
  const int http_status = answering == 0 ? 503 : 200;
  return {http_status, "application/json", json::Value(std::move(body)).dump(), {}};
}

void install_router_api(web::HttpServer& server, Router& router) {
  web::route_api(server, "POST", "deploy",
                 [&router](const web::HttpRequest& r) { return router.handle_deploy(r); });
  web::route_api(server, "POST", "predict",
                 [&router](const web::HttpRequest& r) { return router.handle_predict(r); });
  web::route_api(server, "GET", "designs",
                 [&router](const web::HttpRequest& r) { return router.handle_designs(r); });
  web::route_api(server, "GET", "metrics",
                 [&router](const web::HttpRequest& r) { return router.handle_metrics(r); });
  web::route_api(server, "GET", "readyz",
                 [&router](const web::HttpRequest& r) { return router.handle_readyz(r); });
}

}  // namespace cnn2fpga::serve::shard
