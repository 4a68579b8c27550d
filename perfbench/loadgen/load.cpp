// Closed-loop load over keep-alive connections, with every answer checked:
// predict logits bit for bit against the in-process reference, deploy
// design_id against compute_design_key, and cache_hit against the expected
// hit or miss. Transport errors, non-200 answers and wrong answers all count
// as failures.
#include <time.h>

#include <cstring>
#include <thread>

#include "json/json.hpp"
#include "loadgen.hpp"
#include "serve/shard/process.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

constexpr const char* kHost = "127.0.0.1";
/// A transport probe (GET /healthz) follows every kProbeEvery-th traced predict.
constexpr std::size_t kProbeEvery = 8;
/// Hit re-deploys per design after the traced phase.
constexpr int kHitRounds = 4;
/// The resident designs are re-deployed after every kRefreshEvery-th variant.
/// A hit moves a design to the front of the registry's LRU order (a predict
/// does not), so with 16 slots and 4 designs, up to 12 misses may come
/// between refreshes before a design is evicted and its predicts get 404s.
constexpr std::size_t kRefreshEvery = 4;

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string excerpt(const std::string& body) {
  return body.size() <= 160 ? body : body.substr(0, 160) + "...";
}

/// Validate one predict answer; on success fill the span's server children.
bool check_predict(const std::optional<web::HttpResponse>& response, const PredictCase& want,
                   const std::string& key, Span* span, std::string* why) {
  if (!response) {
    *why = "predict: transport failure";
    return false;
  }
  if (response->status != 200) {
    *why = util::format("predict: HTTP %d %s", response->status, excerpt(response->body).c_str());
    return false;
  }
  try {
    const json::Value doc = json::parse(response->body);
    if (doc.at("design_id").as_string() != key) {
      *why = "predict: answered for design " + doc.at("design_id").as_string();
      return false;
    }
    const json::Array& logits = doc.at("logits").as_array();
    if (logits.size() != want.expected.size()) {
      *why = util::format("predict: %zu logits, want %zu", logits.size(), want.expected.size());
      return false;
    }
    for (std::size_t k = 0; k < logits.size(); ++k) {
      const float got = static_cast<float>(logits[k].as_double());
      if (std::memcmp(&got, &want.expected[k], sizeof(float)) != 0) {
        *why = util::format("predict: logit %zu is %.9g, reference %.9g", k, got,
                            want.expected[k]);
        return false;
      }
    }
    span->total_us = doc.get_double("total_us", 0.0);
    span->queue_us = doc.get_double("queue_us", 0.0);
    span->exec_us = doc.get_double("exec_us", 0.0);
  } catch (const std::exception& e) {
    *why = std::string("predict: unreadable answer: ") + e.what();
    return false;
  }
  if (const auto it = response->headers.find("x-shard-attempts");
      it != response->headers.end()) {
    span->attempts = static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
  }
  if (const auto it = response->headers.find("x-shard-worker"); it != response->headers.end()) {
    span->worker = it->second;
  }
  return true;
}

template <typename T>
void append(std::vector<T>& into, std::vector<T>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

}  // namespace

void PhaseRecord::merge(PhaseRecord&& other) {
  append(predict_us, std::move(other.predict_us));
  append(predict_done_s, std::move(other.predict_done_s));
  append(deploy_ms, std::move(other.deploy_ms));
  append(deploy_done_s, std::move(other.deploy_done_s));
  append(hit_us, std::move(other.hit_us));
  append(probe_us, std::move(other.probe_us));
  append(spans, std::move(other.spans));
  completed += other.completed;
  failovers += other.failovers;
}

void Tally::fail(const std::string& why, bool aux) {
  if (aux) {
    ++aux_failed;
  } else {
    ++failed;
  }
  if (errors.size() < 5) errors.push_back(why);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  aux_failed += other.aux_failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

Session::Session(const Plan& plan, const std::string& binary, const std::string& log_path)
    : plan_(plan), binary_(binary), log_path_(log_path) {}

Session::~Session() {
  std::string ignored;
  tear_down(&ignored);
}

bool Session::set_up() {
  // reserve_local_port releases the port before the server binds it, and a
  // router reserves its workers' ports the same way: now and then a worker
  // takes the router's port first and the router exits at start-up ("bind to
  // port ... failed" in its log). Such a start-up is retried on a new port;
  // a server that keeps exiting fails the run.
  constexpr int kStartAttempts = 3;
  Clock::time_point start;
  for (int attempt = 1;; ++attempt) {
    const int port = serve::shard::reserve_local_port();
    if (port == 0) {
      tally_.fail("no free local port", /*aux=*/true);
      return false;
    }
    // Every batch runs on the CPU engine. Under the default cost placer a
    // design's CPU estimate is only refreshed by batches that run on the CPU:
    // one slow batch can make the simulated fabric look faster, and from then
    // on the design stays there, at a sleep-modelled fabric latency. Runs then
    // split into two modes (3 of 12 usps_routed runs at under half the
    // throughput), which measure the fabric model, not the host software.
    std::vector<std::string> args = {"--placer", "cpu"};
    if (plan_.routed) args.insert(args.end(), {"--router", "--workers", "2"});
    args.push_back("--port");
    args.push_back(std::to_string(port));

    start = Clock::now();
    server_ = std::make_unique<ServerProcess>(binary_, args, log_path_);
    web::ClientConfig config;
    config.keep_alive = true;
    config.read_timeout_ms = 30000;  // a deploy regenerates the whole design
    clients_.clear();
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<web::HttpClient>(kHost, port, config));
    }

    // Readiness by polling /healthz. Waiting for the "listening" line instead
    // would hang: the server's stdout is block-buffered when it is not a tty.
    const auto deadline = start + std::chrono::seconds(60);
    bool ready = false;
    while (server_->alive()) {
      const auto response = clients_[0]->request("GET", "/healthz");
      if (response && response->status == 200) {
        ready = true;
        break;
      }
      if (Clock::now() > deadline) {
        tally_.fail("server not ready after 60 s", /*aux=*/true);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (ready) break;
    if (attempt == kStartAttempts) {
      tally_.fail("server exited during start-up (see " + log_path_ + ")", /*aux=*/true);
      return false;
    }
    std::string ignored;
    server_->stop(&ignored);  // reap what is left of the exited tree
    std::fprintf(stderr, "server exited during start-up (see %s); retrying on a new port\n",
                 log_path_.c_str());
  }
  for (const DesignSpec& spec : plan_.designs) {
    double rtt_us = 0.0;
    if (!deploy(*clients_[0], spec, /*expect_hit=*/false, &rtt_us, &tally_)) return false;
  }
  setup_seconds_ = micros_since(start) * 1e-6;
  return true;
}

bool Session::deploy(web::HttpClient& client, const DesignSpec& spec, bool expect_hit,
                     double* rtt_us, Tally* tally) {
  ++tally->attempted;
  const auto start = Clock::now();
  const auto response = client.request("POST", "/api/v1/deploy", spec.body);
  *rtt_us = micros_since(start);
  const std::string& name = spec.descriptor.name;
  if (!response) {
    tally->fail("deploy " + name + ": transport failure");
    return false;
  }
  if (response->status != 200) {
    tally->fail(util::format("deploy %s: HTTP %d %s", name.c_str(), response->status,
                             excerpt(response->body).c_str()));
    return false;
  }
  try {
    const json::Value doc = json::parse(response->body);
    if (doc.at("design_id").as_string() != spec.key) {
      tally->fail("deploy " + name + ": design_id " + doc.at("design_id").as_string() +
                  " != key " + spec.key);
      return false;
    }
    if (doc.at("cache_hit").as_bool() != expect_hit) {
      tally->fail("deploy " + name + (expect_hit ? ": expected a cache hit, got a miss"
                                                 : ": expected a miss, got a cache hit"));
      return false;
    }
  } catch (const std::exception& e) {
    tally->fail("deploy " + name + ": unreadable answer: " + e.what());
    return false;
  }
  return true;
}

std::string Session::scrape(web::HttpClient& client, Tally* tally) {
  const auto response = client.request("GET", "/api/v1/metrics");
  if (!response || response->status != 200) {
    tally->fail("GET /api/v1/metrics failed", /*aux=*/true);
    return "{}";
  }
  return response->body;
}

LoadResult Session::run_load(double warmup_seconds, double untraced_seconds,
                             double traced_seconds, std::size_t max_extra_windows) {
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  LoadResult result;
  const auto origin = Clock::now();
  const auto warm_end = origin + seconds(warmup_seconds);
  const auto untraced_end = warm_end + seconds(untraced_seconds);
  const auto end = untraced_end + seconds(traced_seconds);

  std::vector<PhaseRecord> untraced(kConnections), traced(kConnections);
  std::vector<Tally> tallies(kConnections);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      connection_loop(c, origin, warm_end, untraced_end, end, &stop, &result, &untraced[c],
                      &traced[c], &tallies[c]);
    });
  }
  // Sample the server tree's CPU and the host's steal at one-second window
  // edges: per-window figures whose median shrugs off a burst of noise from
  // outside the run.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(untraced_seconds));
  const bool extensible = traced_seconds <= 0.0;
  result.untraced_start_s = warmup_seconds;
  result.window_s = untraced_seconds / static_cast<double>(windows);
  const double clean_steal = clean_steal_limit(result.window_s);
  std::this_thread::sleep_until(warm_end);
  result.tree_cpu_seconds.push_back(server_->tree_stats().cpu_seconds);
  result.steal_seconds.push_back(host_steal_seconds());
  const double cpu_begin = process_cpu_seconds();
  std::size_t clean = 0;
  for (std::size_t w = 1;; ++w) {
    std::this_thread::sleep_until(warm_end + seconds(result.window_s * static_cast<double>(w)));
    result.tree_cpu_seconds.push_back(server_->tree_stats().cpu_seconds);
    result.steal_seconds.push_back(host_steal_seconds());
    if (result.steal_seconds[w] - result.steal_seconds[w - 1] <= clean_steal) ++clean;
    if (w >= windows &&
        (!extensible || clean >= kMinWindows || w >= windows + max_extra_windows)) {
      break;
    }
  }
  result.client_cpu_seconds = process_cpu_seconds() - cpu_begin;
  if (!extensible) std::this_thread::sleep_until(end);
  stop = true;
  for (std::thread& thread : threads) thread.join();

  for (std::size_t c = 0; c < kConnections; ++c) {
    result.untraced.merge(std::move(untraced[c]));
    result.traced.merge(std::move(traced[c]));
    tally_.merge(tallies[c]);
  }
  return result;
}

void Session::connection_loop(std::size_t c, Clock::time_point origin,
                              Clock::time_point warm_end, Clock::time_point untraced_end,
                              Clock::time_point end, const std::atomic<bool>* stop,
                              LoadResult* result, PhaseRecord* untraced, PhaseRecord* traced,
                              Tally* tally) {
  web::HttpClient& client = *clients_[c];
  const bool scraper = c == 0;
  const bool tracing = end > untraced_end;
  // Variant deploys ride on connection 0, spread evenly over the measured
  // load (both halves of a traced run), so their latency samples the whole
  // run and the traced half sees registry misses.
  const std::size_t variants = c == 0 ? plan_.variants.size() : 0;
  const auto variant_due = [&](std::size_t v) {
    return warm_end + std::chrono::duration_cast<Clock::duration>(
                          (end - warm_end) * ((static_cast<double>(v) + 0.5) /
                                              static_cast<double>(variants)));
  };
  std::size_t next_variant = 0;
  bool scraped = false;
  std::size_t sent = 0;
  std::size_t traced_predicts = 0;
  // Registry hits on the resident designs.
  const auto redeploy_designs = [&](std::vector<double>* hit_us) {
    for (const DesignSpec& spec : plan_.designs) {
      double rtt_us = 0.0;
      if (deploy(client, spec, /*expect_hit=*/true, &rtt_us, tally) && hit_us != nullptr) {
        hit_us->push_back(rtt_us);
      }
    }
  };

  while (!stop->load()) {
    const auto now = Clock::now();
    // Without a traced phase the untraced one lasts until the stop.
    const int phase = now < warm_end ? 0 : (!tracing || now < untraced_end ? 1 : 2);
    PhaseRecord* record = phase == 1 ? untraced : (phase == 2 ? traced : nullptr);
    if (phase == 2 && scraper && !scraped) {
      result->metrics_before = scrape(client, tally);
      scraped = true;
    }
    const double start_us = std::chrono::duration<double, std::micro>(now - origin).count();
    if (next_variant < variants && now >= variant_due(next_variant)) {
      const std::size_t design = next_variant % plan_.designs.size();
      const DesignSpec& spec = plan_.variants[next_variant++];
      double rtt_us = 0.0;
      const bool deployed = deploy(client, spec, /*expect_hit=*/false, &rtt_us, tally);
      if (next_variant % kRefreshEvery == 0) {
        redeploy_designs(record == nullptr ? nullptr : &record->hit_us);
      }
      if (!deployed || record == nullptr) continue;
      ++record->completed;
      record->deploy_ms.push_back(rtt_us * 1e-3);
      record->deploy_done_s.push_back((start_us + rtt_us) * 1e-6);
      if (phase == 2) {
        Span span;
        span.kind = Span::Kind::kMiss;
        span.connection = static_cast<int>(c);
        span.start_us = start_us;
        span.rtt_us = rtt_us;
        span.design = design;
        record->spans.push_back(span);
      }
      continue;
    }

    // Connections take every kConnections-th entry of the pool, offset by c.
    const PredictCase& want = plan_.predicts[(c + sent * kConnections) % plan_.predicts.size()];
    ++sent;
    ++tally->attempted;
    const auto request_start = Clock::now();
    const auto response = client.request("POST", "/api/v1/predict", want.body);
    const double rtt_us = micros_since(request_start);
    Span span;
    std::string why;
    if (!check_predict(response, want, plan_.designs[want.design].key, &span, &why)) {
      tally->fail(why);
      continue;
    }
    if (c == 0 && result->sample_response.empty()) result->sample_response = response->body;
    if (record == nullptr) continue;
    ++record->completed;
    record->predict_us.push_back(rtt_us);
    record->predict_done_s.push_back((start_us + rtt_us) * 1e-6);
    if (span.attempts > 1) ++record->failovers;
    if (phase != 2) continue;
    span.connection = static_cast<int>(c);
    span.start_us = start_us;
    span.rtt_us = rtt_us;
    span.design = want.design;
    record->spans.push_back(span);

    if (++traced_predicts % kProbeEvery == 0) {
      const auto probe_start = Clock::now();
      const auto probe = client.request("GET", "/healthz");
      const double probe_us = micros_since(probe_start);
      if (!probe || probe->status != 200) {
        tally->fail("GET /healthz failed under load", /*aux=*/true);
        continue;
      }
      record->probe_us.push_back(probe_us);
      Span probe_span;
      probe_span.kind = Span::Kind::kProbe;
      probe_span.connection = static_cast<int>(c);
      probe_span.start_us =
          std::chrono::duration<double, std::micro>(probe_start - origin).count();
      probe_span.rtt_us = probe_us;
      record->spans.push_back(probe_span);
    }
  }

  if (!scraper || !tracing) return;
  if (!scraped) result->metrics_before = scrape(client, tally);
  // More registry hits, once the predict load has stopped.
  for (int round = 0; round < kHitRounds; ++round) redeploy_designs(&traced->hit_us);
  result->metrics_after = scrape(client, tally);
}

std::uint64_t Session::connections_opened() const {
  std::uint64_t opened = 0;
  for (const auto& client : clients_) opened += client->connections_opened();
  return opened;
}

bool Session::tear_down(std::string* error) {
  clients_.clear();  // close the keep-alive sockets before the server drains
  if (!server_) return true;
  const bool clean = server_->stop(error);
  server_.reset();
  return clean;
}

}  // namespace perfbench
