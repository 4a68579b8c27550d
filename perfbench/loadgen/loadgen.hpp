// Shared types of the perfbench load generator.
//
// The generator drives an unmodified `codegen_server` over keep-alive HTTP
// and measures it from outside: client-observed latency, the stage fields the
// server already returns, /api/v1/metrics deltas, and isolated timed calls
// into each layer's public functions on the same seeded inputs.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "web/http_client.hpp"

namespace perfbench {

using namespace cnn2fpga;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

inline double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// ----------------------------------------------------------------- workloads

/// One deployable design: the descriptor, how its weights are made, and the
/// exact request body and content key the server must answer with.
struct DesignSpec {
  core::NetworkDescriptor descriptor;
  nn::ServePrecision precision = nn::ServePrecision::kFloat32;
  std::uint64_t weight_seed = 1;  ///< init_weights(Rng(weight_seed)), sent as "seed"
  std::string body;               ///< POST /api/v1/deploy body
  std::string key;                ///< serve::shard::compute_design_key(body)
};

/// The network and weights the server builds for `spec`.
nn::Network build_reference(const DesignSpec& spec);

struct PredictCase {
  std::size_t design = 0;       ///< index into Plan::designs
  std::string body;             ///< POST /api/v1/predict body
  std::vector<float> expected;  ///< reference logits, compared bit for bit
};

struct Plan {
  bool routed = false;                ///< --router --workers 2
  std::vector<DesignSpec> designs;    ///< deployed during set-up, then predicted on
  std::vector<PredictCase> predicts;  ///< rotated over by the connections
  /// Fresh-weight copies of the designs, deployed (registry misses) into the
  /// serving server at even intervals over the measured load. Variant v
  /// copies designs[v % designs.size()].
  std::vector<DesignSpec> variants;
};

/// Every input of a workload, generated from `seed` alone. Throws
/// std::invalid_argument for an unknown workload name.
Plan make_plan(const std::string& workload, std::uint64_t seed);

// ------------------------------------------------------------ server process

/// CPU and memory of a server process tree (the server and forked workers).
struct TreeStats {
  double cpu_seconds = 0.0;  ///< utime + stime, summed over the tree
  double peak_rss_mb = 0.0;  ///< VmHWM, summed over the tree
};

/// One `codegen_server` launched in its own process group, stdout and stderr
/// going to a log file. The destructor tears the whole group down.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// False once the launched process has exited.
  bool alive();
  TreeStats tree_stats() const;
  /// SIGTERM, wait, SIGKILL the group as a fallback, reap. Returns false (with
  /// a reason) if any process of the tree had to be killed or outlived it.
  bool stop(std::string* error);

 private:
  pid_t pid_ = -1;
};

/// Make this process the reaper of orphaned descendants, so forked workers
/// of a router can be waited for after the router exits.
void become_subreaper();

/// CPU time the hypervisor took from this machine's virtual CPUs, summed over
/// them (the steal column of /proc/stat); 0 where it is not reported.
double host_steal_seconds();

/// A measured window is clean when the hypervisor stole at most kCleanSteal
/// of the machine's CPU time in it. An untraced phase runs on past its length
/// until kMinWindows windows are clean, for at most a given number of extra
/// windows (--max-extra-windows).
constexpr double kCleanSteal = 0.01;
constexpr std::size_t kMinWindows = 8;

/// Steal, in seconds, that a clean window of `window_s` may hold.
inline double clean_steal_limit(double window_s) {
  return kCleanSteal * window_s * std::max(1u, std::thread::hardware_concurrency());
}

/// Any live process of this process group, other than zombies.
bool process_group_alive(pid_t pgid);

// ---------------------------------------------------------------------- load

/// One client-side span: a request's round trip, with the stage times the
/// server reported nested inside it as children.
struct Span {
  enum class Kind : char { kPredict = 'p', kMiss = 'd', kProbe = 't' };
  Kind kind = Kind::kPredict;
  int connection = 0;
  double start_us = 0.0;  ///< since the load phase began
  double rtt_us = 0.0;    ///< first byte sent to last byte read
  double total_us = 0.0, queue_us = 0.0, exec_us = 0.0;  ///< predicts only
  int attempts = 0;        ///< X-Shard-Attempts (router only)
  std::string worker;      ///< X-Shard-Worker (router only)
  std::size_t design = 0;  ///< the design predicted on, or the one a deploy copied
};

/// What the connections saw in one measured phase.
struct PhaseRecord {
  std::vector<double> predict_us;  ///< client RTT of every answered predict
  std::vector<double> predict_done_s;  ///< ... and when it completed (load clock)
  std::vector<double> deploy_ms;   ///< client RTT of every answered variant deploy
  std::vector<double> deploy_done_s;
  std::vector<double> hit_us;      ///< deploys answered as registry hits
  std::vector<double> probe_us;    ///< GET /healthz on a load connection
  std::vector<Span> spans;         ///< traced phase only
  std::uint64_t completed = 0;     ///< predicts and deploys answered 200
  std::uint64_t failovers = 0;     ///< responses with X-Shard-Attempts > 1

  void merge(PhaseRecord&& other);
};

/// Requests attempted and failed (predicts plus deploys); any other failed
/// exchange (probe, scrape) is counted in aux_failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t aux_failed = 0;
  std::vector<std::string> errors;  ///< the first few failure reasons

  void fail(const std::string& why, bool aux = false);
  void merge(const Tally& other);
};

struct LoadResult {
  PhaseRecord untraced;
  PhaseRecord traced;
  std::string metrics_before;   ///< /api/v1/metrics at the traced phase's start
  std::string metrics_after;    ///< ... and at its end
  std::string sample_response;  ///< one predict response body
  /// The untraced phase cut into equal windows on the load clock: window w
  /// spans [untraced_start_s + w * window_s, ... + window_s), and
  /// tree_cpu_seconds and steal_seconds hold the server tree's CPU and
  /// host_steal_seconds() at each window edge.
  double untraced_start_s = 0.0;
  double window_s = 0.0;
  std::vector<double> tree_cpu_seconds;
  std::vector<double> steal_seconds;
  double client_cpu_seconds = 0.0;  ///< this process, over the untraced phase
};

/// One server plus its (at most 3) keep-alive client connections.
class Session {
 public:
  static constexpr std::size_t kConnections = 3;

  Session(const Plan& plan, const std::string& binary, const std::string& log_path);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawn, wait for /healthz, deploy the plan's designs. Returns false on
  /// any failure (recorded in tally()).
  bool set_up();
  double setup_seconds() const { return setup_seconds_; }

  /// Closed-loop load: warm-up, an untraced phase, then a traced phase
  /// bracketed by /api/v1/metrics scrapes (traced_seconds may be 0). Without
  /// a traced phase, the untraced one runs on while fewer than kMinWindows
  /// of its windows are clean, for at most max_extra_windows windows.
  LoadResult run_load(double warmup_seconds, double untraced_seconds, double traced_seconds,
                      std::size_t max_extra_windows);

  /// Sockets the clients opened over the session (budget: kConnections).
  std::uint64_t connections_opened() const;
  TreeStats tree_stats() const { return server_->tree_stats(); }
  Tally& tally() { return tally_; }
  /// Tear the server tree down; false if any process had to be killed.
  bool tear_down(std::string* error);

 private:
  void connection_loop(std::size_t c, Clock::time_point origin, Clock::time_point warm_end,
                       Clock::time_point untraced_end, Clock::time_point end,
                       const std::atomic<bool>* stop, LoadResult* result,
                       PhaseRecord* untraced, PhaseRecord* traced, Tally* tally);
  bool deploy(web::HttpClient& client, const DesignSpec& spec, bool expect_hit,
              double* rtt_us, Tally* tally);
  std::string scrape(web::HttpClient& client, Tally* tally);

  const Plan& plan_;
  std::string binary_;
  std::string log_path_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::unique_ptr<web::HttpClient>> clients_;
  Tally tally_;
  double setup_seconds_ = 0.0;
};

// ----------------------------------------------------------- isolated layers

using Metrics = std::map<std::string, double>;

/// Median wall time of one call of `fn`, in microseconds: calls are grouped
/// into batches long enough for the clock, and the median batch wins. A call
/// of a millisecond or more is its own batch and is not repeated for warm-up.
template <typename Fn>
double time_call_us(Fn&& fn, int batches = 15) {
  const auto probe = Clock::now();
  fn();
  const double once = micros_since(probe);
  std::vector<double> per_call;
  if (once >= 1000.0) {
    per_call.push_back(once);
    for (int b = 1; b < batches; ++b) {
      const auto start = Clock::now();
      fn();
      per_call.push_back(micros_since(start));
    }
    return quantile(per_call, 0.5);
  }
  fn();
  const int inner = once >= 200.0 ? 1 : static_cast<int>(200.0 / (once + 0.05)) + 1;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    per_call.push_back(micros_since(start) / inner);
  }
  return quantile(per_call, 0.5);
}

/// json.parse / base64.decode / json.dump on the workload's own bodies.
Metrics wire_layer_metrics(const Plan& plan, const std::string& sample_response);

/// nn.* on the network, engine and precision the workload's predicts run.
Metrics nn_layer_metrics(const DesignSpec& spec);

/// kernels.*: the two Test-4 conv GEMMs on one thread and the host FMA peak.
Metrics kernel_layer_metrics();

/// Per-design cost of the deploy pipeline's stages, measured in isolation.
struct CodegenCost {
  double parse_validate_us = 0.0;
  double emit_cpp_us = 0.0;
  double emit_tcl_us = 0.0;
  double estimate_us = 0.0;
  double cpp_bytes = 0.0;
};
CodegenCost codegen_cost(const DesignSpec& spec);

}  // namespace perfbench
