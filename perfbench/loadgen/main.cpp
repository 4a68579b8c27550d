// perfbench load generator: one benchmark run of one workload against an
// unmodified codegen_server.
//
//   perfbench_loadgen --server PATH --run-dir DIR --workload NAME --seed N
//                     --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics from an untraced closed-loop run.
// --trace 1 splits the run into an untraced and a traced half and reports the
// per-layer metrics: client spans with the server's stage fields nested
// inside, /api/v1/metrics deltas over the traced half, and isolated timed
// calls into each layer on the same seeded inputs. The last stdout line is
// the JSON result; the exit code is non-zero when any answer was wrong.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "json/json.hpp"
#include "loadgen.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace perfbench;
using cnn2fpga::util::format;

namespace {

/// Set-ups per run: setup_s is their median, and the middle one takes the load.
constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;

struct Metric {
  double value;
  const char* unit;
};

/// The serving runtime's metrics object: the fleet merge behind a router.
const json::Value& serve_metrics(const json::Value& doc, bool routed) {
  return routed ? doc.at("fleet") : doc;
}

double number_at(const json::Value& doc, std::initializer_list<const char*> path) {
  const json::Value* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_double() : 0.0;
}

/// Metric deltas of the serving layers over the traced phase.
void add_scrape_deltas(const Plan& plan, const LoadResult& load,
                       std::map<std::string, Metric>* out) {
  const json::Value before_doc = json::parse(load.metrics_before);
  const json::Value after_doc = json::parse(load.metrics_after);
  const json::Value& before = serve_metrics(before_doc, plan.routed);
  const json::Value& after = serve_metrics(after_doc, plan.routed);
  const auto delta = [&](std::initializer_list<const char*> path) {
    return number_at(after, path) - number_at(before, path);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  (*out)["batcher.queue_us.mean"] = {
      ratio(delta({"predict", "queue_us", "sum"}), delta({"predict", "queue_us", "count"})),
      "us"};
  (*out)["batcher.batch_size.mean"] = {
      ratio(delta({"predict", "total"}), delta({"predict", "batches"})), "images"};
  (*out)["batcher.shed"] = {delta({"overload", "shed"}), "count"};
  (*out)["batcher.expired"] = {delta({"overload", "expired"}), "count"};
  (*out)["backend.cpu_exec_us.mean"] = {ratio(delta({"backends", "cpu", "exec_us", "sum"}),
                                              delta({"backends", "cpu", "exec_us", "count"})),
                                        "us"};
  (*out)["backend.spilled"] = {delta({"backends", "spilled"}), "count"};
  (*out)["backend.accel_images"] = {delta({"backends", "accelerator", "images"}), "count"};
  const double deploys = delta({"deploy", "total"});
  const double hits = delta({"deploy", "cache_hits"});
  (*out)["registry.hits"] = {hits, "count"};
  (*out)["registry.misses"] = {deploys - hits, "count"};
  (*out)["registry.evictions"] = {delta({"deploy", "evictions"}), "count"};
}

/// Layer self times over the traced phase, weighted by client-observed time:
/// every span's round trip is split into the layers it passed through.
struct Split {
  static constexpr const char* kLayers[] = {"web",     "shard", "server", "batcher",
                                            "nn",      "core",  "hls",    "registry"};
  std::map<std::string, double> us;
  double total_us = 0.0;

  void add(const char* layer, double value) { us[layer] += value > 0.0 ? value : 0.0; }
};

/// `costs[d]` is the isolated deploy-pipeline cost of plan.designs[d], which
/// the variant deploys copy.
Split split_traced(const Plan& plan, const LoadResult& load,
                   const std::vector<CodegenCost>& costs) {
  Split split;
  const double transport = mean(load.traced.probe_us);
  // Deploy-pipeline shares of a miss's round trip.
  double miss_rtt = 0.0, core_us = 0.0, hls_us = 0.0;
  for (const Span& span : load.traced.spans) {
    if (span.kind != Span::Kind::kMiss) continue;
    const CodegenCost& cost = costs[span.design];
    miss_rtt += span.rtt_us;
    core_us += cost.parse_validate_us + cost.emit_cpp_us + cost.emit_tcl_us;
    hls_us += cost.estimate_us;
  }
  const double core_share = miss_rtt > 0.0 ? std::min(1.0, core_us / miss_rtt) : 0.0;
  const double hls_share = miss_rtt > 0.0 ? std::min(1.0 - core_share, hls_us / miss_rtt) : 0.0;

  for (const Span& span : load.traced.spans) {
    if (span.kind == Span::Kind::kProbe) continue;
    split.total_us += span.rtt_us;
    if (span.kind == Span::Kind::kPredict) {
      const double edge = span.rtt_us - span.total_us;
      const double web = plan.routed ? std::min(edge, transport) : edge;
      split.add("web", web);
      split.add("shard", edge - web);
      split.add("server", span.total_us - span.queue_us - span.exec_us);
      split.add("batcher", span.queue_us);
      split.add("nn", span.exec_us);
      continue;
    }
    const double web = std::min(span.rtt_us, transport);
    double rest = span.rtt_us - web;
    split.add("web", web);
    if (span.kind == Span::Kind::kMiss) {
      split.add("core", span.rtt_us * core_share);
      split.add("hls", span.rtt_us * hls_share);
      rest -= span.rtt_us * (core_share + hls_share);
    }
    split.add("registry", rest);
  }
  return split;
}

/// One CSV row per client span. kind: p predict, d deploy miss, t transport
/// probe; total/queue/exec are the server's child spans.
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path);
  file << "kind,connection,start_us,rtt_us,total_us,queue_us,exec_us,shard_attempts,"
          "shard_worker,design\n";
  for (const Span& span : spans) {
    file << static_cast<char>(span.kind) << ',' << span.connection << ',' << span.start_us
         << ',' << span.rtt_us << ',' << span.total_us << ',' << span.queue_us << ','
         << span.exec_us << ',' << span.attempts << ',' << span.worker << ','
         << span.design << '\n';
  }
}

int run(const util::CliArgs& args) {
  const std::string server = args.get_string("server", "");
  const std::string run_dir = args.get_string("run-dir", "");
  const std::string workload = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const long max_extra_windows = args.get_int("max-extra-windows", 20);
  if (server.empty() || run_dir.empty() || workload.empty() || seconds <= 0.0 ||
      max_extra_windows < 0) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --server PATH --run-dir DIR --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--max-extra-windows N]\n");
    return 2;
  }
  become_subreaper();

  const Plan plan = make_plan(workload, seed);
  Tally tally;
  bool clean = true;
  std::string teardown_error;
  std::vector<double> setup_seconds;
  // Set up kSetups times, the middle one taking the load and the others torn
  // down at once: setup_s then samples the whole run, not one burst at its
  // start.
  const auto set_up = [&](int k) {
    auto session =
        std::make_unique<Session>(plan, server, format("%s/server-%d.log", run_dir.c_str(), k));
    const bool ready = session->set_up();
    setup_seconds.push_back(session->setup_seconds());
    if (!ready) {
      clean = session->tear_down(&teardown_error) && clean;
      tally.merge(session->tally());
      for (const std::string& e : tally.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
      session.reset();
    }
    return session;
  };
  const auto set_up_and_discard = [&](int k) {
    std::unique_ptr<Session> session = set_up(k);
    if (!session) return false;
    clean = session->tear_down(&teardown_error) && clean;
    tally.merge(session->tally());
    return true;
  };
  for (int k = 0; k < kSetups / 2; ++k) {
    if (!set_up_and_discard(k)) return 1;
  }
  std::unique_ptr<Session> session = set_up(kSetups / 2);
  if (!session) return 1;
  const auto extra = static_cast<std::size_t>(max_extra_windows);
  const LoadResult load = trace ? session->run_load(kWarmupSeconds, seconds / 2, seconds / 2, 0)
                                : session->run_load(kWarmupSeconds, seconds, 0.0, extra);
  const std::uint64_t connections = session->connections_opened();
  const TreeStats final_tree = session->tree_stats();
  clean = session->tear_down(&teardown_error) && clean;
  tally.merge(session->tally());
  session.reset();
  for (int k = kSetups / 2 + 1; k < kSetups; ++k) {
    if (!set_up_and_discard(k)) return 1;
  }

  const PhaseRecord& measured = load.untraced;
  const double completed = static_cast<double>(measured.completed);
  const double error_rate =
      tally.attempted > 0 ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                          : 1.0;
  const double client_cpu_us = load.client_cpu_seconds * 1e6 / completed;

  // Predict throughput, latency and server CPU per window; each metric is
  // the median over the windows, which shrugs off a burst of noise from
  // outside the run. That hides a tail event landing in fewer than half the
  // windows, so traced runs also report the p99 of the whole phase, pooled.
  // It is not the end-to-end p99: on a shared 4-vCPU host a few minutes of
  // contention lift it 1.5-5x over several runs in a row, and its spread over
  // ten runs reached 0.37-0.58 of the median.
  //
  // Only clean windows count: those in which the hypervisor took at most
  // kCleanSteal of the machine's CPU time. A stolen slice stalls whatever
  // request its virtual CPU was serving; on a shared 4-vCPU host steal
  // reached 44% of a window and lifted a run's p99 by 86%, which says
  // nothing about the program. An untraced run goes on until kMinWindows
  // windows are clean, for at most --max-extra-windows more windows; if
  // fewer are clean even then, the kMinWindows least stolen count.
  std::vector<double> window_steal;
  for (std::size_t w = 0; w + 1 < load.steal_seconds.size(); ++w) {
    window_steal.push_back(load.steal_seconds[w + 1] - load.steal_seconds[w]);
  }
  const double clean_steal = clean_steal_limit(load.window_s);
  std::vector<std::size_t> by_steal(window_steal.size());
  std::iota(by_steal.begin(), by_steal.end(), 0);
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](std::size_t a, std::size_t b) {
    return window_steal[a] < window_steal[b];
  });
  std::vector<bool> counted(window_steal.size(), false);
  for (std::size_t rank = 0; rank < by_steal.size(); ++rank) {
    const std::size_t w = by_steal[rank];
    counted[w] = rank < kMinWindows || window_steal[w] <= clean_steal;
  }
  std::vector<double> window_rps, window_p50, window_p99, window_cpu_us;
  for (std::size_t w = 0; w < window_steal.size(); ++w) {
    if (!counted[w]) continue;
    const double lo = load.untraced_start_s + load.window_s * static_cast<double>(w);
    const double hi = lo + load.window_s;
    const auto inside = [lo, hi](double t) { return t >= lo && t < hi; };
    std::vector<double> latency, deploys;
    for (std::size_t i = 0; i < measured.predict_us.size(); ++i) {
      if (inside(measured.predict_done_s[i])) latency.push_back(measured.predict_us[i]);
    }
    for (std::size_t i = 0; i < measured.deploy_ms.size(); ++i) {
      if (inside(measured.deploy_done_s[i])) deploys.push_back(measured.deploy_ms[i]);
    }
    const double requests = static_cast<double>(latency.size() + deploys.size());
    window_rps.push_back(static_cast<double>(latency.size()) / load.window_s);
    window_p50.push_back(quantile(latency, 0.50));
    window_p99.push_back(quantile(latency, 0.99));
    window_cpu_us.push_back(
        (load.tree_cpu_seconds[w + 1] - load.tree_cpu_seconds[w]) * 1e6 / requests);
  }
  const double server_cpu_us = quantile(window_cpu_us, 0.5);

  std::printf("set-up: median %.4f s of %zu:", quantile(setup_seconds, 0.5),
              setup_seconds.size());
  for (const double t : setup_seconds) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("windows: %zu of %zu counted (host steal at most %.3f s, or the %zu least "
              "stolen); host steal %.2f s over the phase\n",
              window_p99.size(), window_steal.size(), clean_steal, kMinWindows,
              load.steal_seconds.back() - load.steal_seconds.front());
  // run.py reads this line to keep account of the time spent waiting.
  std::printf("extra seconds: %.3f\n",
              load.window_s * static_cast<double>(window_steal.size()) -
                  (trace ? seconds / 2 : seconds));
  std::map<std::string, Metric> metrics;
  if (!trace) {
    metrics["predict_rps"] = {quantile(window_rps, 0.5), "req/s"};
    metrics["predict_p50_us"] = {quantile(window_p50, 0.5), "us"};
    metrics["predict_p99_us"] = {quantile(window_p99, 0.5), "us"};
    metrics["deploy_p50_ms"] = {quantile(measured.deploy_ms, 0.50), "ms"};
    metrics["deploy_p90_ms"] = {quantile(measured.deploy_ms, 0.90), "ms"};
    metrics["server_cpu_us_per_req"] = {server_cpu_us, "us"};
    metrics["server_peak_rss_mb"] = {final_tree.peak_rss_mb, "MB"};
    metrics["setup_s"] = {quantile(setup_seconds, 0.5), "s"};
  } else {
    const PhaseRecord& t = load.traced;
    std::vector<double> edge, handler;
    for (const Span& span : t.spans) {
      if (span.kind != Span::Kind::kPredict) continue;
      edge.push_back(span.rtt_us - span.total_us);
      handler.push_back(span.total_us - span.queue_us - span.exec_us);
    }
    const double transport_p50 = quantile(t.probe_us, 0.5);
    metrics["web.transport_us.p50"] = {transport_p50, "us"};
    metrics["web.edge_us.p50"] = {quantile(edge, 0.5), "us"};
    metrics["web.connections_opened"] = {static_cast<double>(connections), "count"};
    metrics["shard.hop_us.p50"] = {
        plan.routed ? std::max(0.0, quantile(edge, 0.5) - transport_p50) : 0.0, "us"};
    metrics["shard.failovers"] = {static_cast<double>(measured.failovers + t.failovers),
                                  "count"};
    metrics["server.handler_us.p50"] = {quantile(handler, 0.5), "us"};
    add_scrape_deltas(plan, load, &metrics);
    metrics["registry.deploy_hit_us.p50"] = {quantile(t.hit_us, 0.5), "us"};
    metrics["predict.p99_pooled_us"] = {quantile(measured.predict_us, 0.99), "us"};
    metrics["trace.overhead_us"] = {
        quantile(t.predict_us, 0.5) - quantile(measured.predict_us, 0.5), "us"};
    metrics["loadgen.cpu_us_per_req"] = {client_cpu_us, "us"};

    for (const auto& [name, value] : wire_layer_metrics(plan, load.sample_response)) {
      metrics[name] = {value, "us"};
    }
    const Metrics nn = nn_layer_metrics(plan.designs.front());
    metrics["nn.infer_us.b1"] = {nn.at("nn.infer_us.b1"), "us"};
    metrics["nn.gflops.b1"] = {nn.at("nn.gflops.b1"), "GFLOP/s"};
    metrics["nn.non_gemm_us.b1"] = {nn.at("nn.non_gemm_us.b1"), "us"};
    const Metrics kernels = kernel_layer_metrics();
    for (const char* name : {"kernels.conv1_gflops", "kernels.conv2_gflops",
                             "kernels.host_peak_gflops"}) {
      metrics[name] = {kernels.at(name), "GFLOP/s"};
    }
    metrics["kernels.roof_share"] = {kernels.at("kernels.roof_share"), "ratio"};

    // Deploy pipeline, in isolation, on the designs the variants copy.
    std::vector<CodegenCost> costs;
    for (const DesignSpec& spec : plan.designs) costs.push_back(codegen_cost(spec));
    const auto mean_of = [&costs](double CodegenCost::*field) {
      double sum = 0.0;
      for (const CodegenCost& c : costs) sum += c.*field;
      return costs.empty() ? 0.0 : sum / static_cast<double>(costs.size());
    };
    metrics["core.parse_validate_us"] = {mean_of(&CodegenCost::parse_validate_us), "us"};
    metrics["core.emit_cpp_ms"] = {mean_of(&CodegenCost::emit_cpp_us) * 1e-3, "ms"};
    metrics["core.emit_tcl_us"] = {mean_of(&CodegenCost::emit_tcl_us), "us"};
    metrics["hls.estimate_us"] = {mean_of(&CodegenCost::estimate_us), "us"};
    metrics["core.cpp_bytes"] = {mean_of(&CodegenCost::cpp_bytes), "bytes"};

    const Split split = split_traced(plan, load, costs);
    std::printf("layer self time, %s, traced phase (share of client-observed time):\n",
                workload.c_str());
    const char* largest = "";
    double largest_pct = -1.0;
    for (const char* layer : Split::kLayers) {
      const auto it = split.us.find(layer);
      const double us = it == split.us.end() ? 0.0 : it->second;
      const double pct = split.total_us > 0.0 ? 100.0 * us / split.total_us : 0.0;
      metrics[format("split.%s_pct", layer)] = {pct, "%"};
      std::printf("  %-9s %6.2f%%\n", layer, pct);
      if (pct > largest_pct) {
        largest = layer;
        largest_pct = pct;
      }
    }
    std::printf("largest layer: %s\n", largest);
    std::printf("tracing overhead: %+.1f us on predict p50\n",
                metrics["trace.overhead_us"].value);
    write_spans(run_dir + "/spans.csv", t.spans);
  }

  const bool within_budget = connections <= Session::kConnections;
  if (!within_budget) {
    tally.fail(format("%llu client connections opened; budget %zu",
                      static_cast<unsigned long long>(connections), Session::kConnections),
               true);
  }
  if (!clean) tally.fail(teardown_error, true);

  std::printf("workload %s seed %llu: %llu attempted, %llu failed, error_rate %.6f\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), error_rate);
  std::printf("cpu per request: server %.1f us, load generator %.1f us; connections %llu\n",
              server_cpu_us, client_cpu_us, static_cast<unsigned long long>(connections));
  for (const std::string& e : tally.errors) std::printf("error: %s\n", e.c_str());

  const bool correct = tally.failed == 0 && tally.aux_failed == 0;
  json::Object out_metrics;
  for (const auto& [name, metric] : metrics) {
    json::Object one;
    one["value"] = metric.value;
    one["unit"] = std::string(metric.unit);
    out_metrics[name] = std::move(one);
  }
  json::Object result;
  result["correct"] = correct;
  result["attempted"] = static_cast<double>(tally.attempted);
  result["failed"] = static_cast<double>(tally.failed + tally.aux_failed);
  result["metrics"] = std::move(out_metrics);
  std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 1;
  }
}
