// The web-application face of the framework (paper Sec. IV-A: "developed as a
// web-application to be easily accessible").
//
// Serves the JSON API:
//   GET  /healthz
//   GET  /api/v1/boards
//   POST /api/v1/generate  (body: network descriptor JSON)
// plus the serving runtime (deploy designs, predict against them):
//   POST /api/v1/deploy    POST /api/v1/predict
//   GET  /api/v1/designs   GET  /api/v1/metrics
// Unversioned /api/... aliases are retired and answer 410 gone.
//
// Run:  ./codegen_server [--port P]        serve until interrupted
//       ./codegen_server --demo            self-demo: start, POST a
//                                          descriptor to itself, print the
//                                          response summary, exit
//
// Sharded mode (see DESIGN.md "Sharded serving"): one router process
// consistent-hashes designs across N worker processes and fans
// /api/v1/deploy|predict out to them over persistent local connections;
// /api/v1/metrics and /api/v1/readyz aggregate the whole fleet. Each worker
// is this binary re-executed in --worker mode with the router's serving
// flags, on a port the router holds reserved; a supervisor restarts crashed
// workers (exponential backoff) and catalog repair re-fills them.
//   --router               run as the fleet front door
//   --workers N            worker processes to spawn (router mode; default 2).
//                          Without --router, N is the executor thread count
//                          of the single-process runtime (default 4) on the
//                          cpu engine; the accel engine always has one.
//   --replication R        distinct workers holding each design (default 2)
//   --worker-threads N     executor threads per worker process (default 2;
//                          one on the accel engine)
//
// Crash safety (see DESIGN.md "Crash recovery and durability"):
//   --journal PATH         durable deploy journal: every accepted deploy is
//                          fsynced to PATH before the 200, and a restarted
//                          router replays it to recover its full design set
//   --restart-budget N     crashes tolerated per worker per minute before the
//                          slot is marked permanently down (default 5)
//
// Overload / robustness knobs (see DESIGN.md "Overload and failure behavior"):
//   --max-queue-depth N    shed predicts with 429 beyond N queued (0 = off)
//   --max-wait-us N        partial-batch flush deadline
//   --deadline-ms N        default predict deadline when the client sends no
//                          X-Deadline-Ms header (0 = none)
//   --breaker-failures N   consecutive failed batches that open a design's
//                          circuit breaker
//   --breaker-cooldown-ms N  open duration before a half-open probe
//   --faults SPEC          arm deterministic fault injection, e.g.
//                          "executor.batch=error:1.0:3" (also honors the
//                          CNN2FPGA_FAULTS / CNN2FPGA_FAULT_SEED env vars).
//                          In router mode the spec arms the ROUTER's
//                          injector (site shard.worker simulates a worker
//                          transport failure); workers still read the env.
//
// The engine (see DESIGN.md "One engine per serving runtime"):
//   --placer ENGINE        the engine every batch runs on: "cpu" (default;
//                          the host SIMD engine) or "accel" (the simulated
//                          FPGA fabric: one IP core, one executor thread)
//
// Each mode exits 1 on a flag it does not read.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <semaphore>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnn2fpga.hpp"

using namespace cnn2fpga;

namespace {
std::binary_semaphore g_shutdown{0};
void handle_signal(int) { g_shutdown.release(); }

/// The flags build_serving_config reads, in every mode.
constexpr const char* kServingFlags[] = {"max-batch",        "max-wait-us",
                                         "max-queue-depth",  "deadline-ms",
                                         "breaker-failures", "breaker-cooldown-ms",
                                         "placer"};
/// What else each mode reads. A worker takes the launch protocol of
/// serve/shard/process.hpp and its thread count; the router passes its own
/// values of --worker-threads and kServingFlags on to every worker it
/// launches.
constexpr const char* kSingleFlags[] = {"port", "workers", "demo", "faults"};
constexpr const char* kWorkerFlags[] = {"worker", "port", "control-fd", "worker-threads"};
constexpr const char* kRouterFlags[] = {"router",         "port",        "workers",
                                        "worker-threads", "replication", "journal",
                                        "restart-budget", "faults"};

bool listed(std::span<const char* const> flags, const std::string& name) {
  return std::find(flags.begin(), flags.end(), name) != flags.end();
}

/// A flag the mode does not read is refused: a misspelled or retired flag
/// would otherwise start a server that silently ignores it.
bool only_known_flags(const util::CliArgs& args, std::span<const char* const> mode_flags) {
  for (const std::string& name : args.names()) {
    if (!listed(kServingFlags, name) && !listed(mode_flags, name)) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
  }
  return true;
}

/// Shared flag parsing for the single-process runtime and each worker
/// process; only the executor thread count differs between the modes.
bool build_serving_config(const util::CliArgs& args, std::size_t default_threads,
                          serve::ServingConfig* config) {
  config->worker_threads = default_threads;
  config->batcher.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 8));
  config->batcher.max_wait_us =
      static_cast<std::uint64_t>(args.get_int("max-wait-us", 1000));
  config->batcher.max_queue_depth =
      static_cast<std::size_t>(args.get_int("max-queue-depth", 0));
  config->default_deadline_ms =
      static_cast<std::uint64_t>(args.get_int("deadline-ms", 0));
  config->breaker.failure_threshold =
      static_cast<std::size_t>(args.get_int("breaker-failures", 5));
  config->breaker.cooldown_ms =
      static_cast<std::uint64_t>(args.get_int("breaker-cooldown-ms", 1000));
  const std::string engine = args.get_string("placer", "cpu");
  const std::optional<serve::BackendId> parsed = serve::parse_backend_name(engine);
  if (!parsed) {
    std::fprintf(stderr, "--placer rejected: want cpu or accel, got '%s'\n", engine.c_str());
    return false;
  }
  config->batcher.engine = *parsed;
  return true;
}

/// --worker mode, the launch protocol of serve/shard/process.hpp (not a user
/// setting): one full serving runtime on the port the router holds reserved
/// (hence SO_REUSEPORT), alive until the router closes the control socket.
int run_worker(const util::CliArgs& args) {
  serve::ServingConfig config;
  if (!only_known_flags(args, kWorkerFlags) ||
      !build_serving_config(
          args, static_cast<std::size_t>(args.get_int("worker-threads", 2)), &config)) {
    return 1;
  }
  serve::ServingRuntime runtime(config);
  web::ServerConfig server_config;
  server_config.reuse_port = true;
  web::HttpServer server(server_config);
  serve::install_serve_api(server, runtime);
  const int port = static_cast<int>(args.get_int("port", 0));
  try {
    server.start(port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker on port %d failed to start: %s\n", port, e.what());
    return 1;
  }
  serve::shard::report_ready_and_wait(static_cast<int>(args.get_int("control-fd", -1)));
  server.stop();
  return 0;
}

int run_router(const util::CliArgs& args) {
  if (!only_known_flags(args, kRouterFlags)) return 1;
  const int worker_count = static_cast<int>(args.get_int("workers", 2));
  if (worker_count < 1) {
    std::fprintf(stderr, "--router needs --workers >= 1\n");
    return 1;
  }
  const std::string journal_path = args.get_string("journal", "");

  std::vector<std::string> worker_args;
  for (const std::string& flag : args.names()) {
    if (flag == "worker-threads" || listed(kServingFlags, flag)) {
      worker_args.push_back(util::format("--%s=%s", flag.c_str(), args.get(flag)->c_str()));
    }
  }
  serve::shard::SupervisorConfig supervisor_config;
  supervisor_config.restart_budget =
      static_cast<std::uint64_t>(args.get_int("restart-budget", 5));
  serve::shard::Supervisor supervisor(supervisor_config);
  std::vector<int> ports;
  for (int i = 0; i < worker_count; ++i) {
    auto launcher = std::make_unique<serve::shard::ProcessLauncher>(
        serve::shard::ReservedPort::reserve(), worker_args, 15000);
    if (!launcher->start()) {
      std::fprintf(stderr, "worker %d on port %d did not become ready\n", i,
                   launcher->port());
      return 1;
    }
    ports.push_back(launcher->port());
    supervisor.add_slot(util::format("worker-%d", i), std::move(launcher));
  }

  serve::shard::RouterConfig config;
  config.replication = static_cast<std::size_t>(args.get_int("replication", 2));
  config.journal_path = journal_path;
  // A deploy that misses the cache builds, analyzes and (when quantized)
  // probe-validates the design; give it more room than the predict path's
  // defaults.
  config.worker.client.read_timeout_ms = 30000;
  std::unique_ptr<serve::shard::Router> router_ptr;
  try {
    router_ptr = std::make_unique<serve::shard::Router>(config);  // replays --journal
  } catch (const serve::shard::JournalError& e) {
    std::fprintf(stderr, "--journal rejected: %s\n", e.what());
    return 1;
  }
  serve::shard::Router& router = *router_ptr;
  if (const std::string faults = args.get_string("faults", ""); !faults.empty()) {
    std::string error;
    if (!router.faults().configure(faults, &error)) {
      std::fprintf(stderr, "--faults rejected: %s\n", error.c_str());
      return 1;
    }
    std::printf("router fault injection armed: %s\n", faults.c_str());
  }
  for (int i = 0; i < worker_count; ++i) {
    router.add_worker(util::format("worker-%d", i), "127.0.0.1",
                      ports[static_cast<std::size_t>(i)]);
  }
  if (!journal_path.empty()) {
    const std::size_t recovered = router.recover();
    if (recovered > 0) {
      std::printf("recovered %zu design(s) from journal %s\n", recovered,
                  journal_path.c_str());
    }
  }

  web::HttpServer server;
  web::install_api(server);  // generate/train/boards stay on the front door
  serve::shard::install_router_api(server, router);
  const int port = server.start(static_cast<int>(args.get_int("port", 0)));
  router.attach_supervisor(&supervisor);
  router.start_probing();

  std::printf("cnn2fpga shard router listening on http://127.0.0.1:%d\n", port);
  std::printf("fleet: %d workers (replication %zu):", worker_count, config.replication);
  for (int i = 0; i < worker_count; ++i) {
    std::printf(" worker-%d=127.0.0.1:%d", i, ports[static_cast<std::size_t>(i)]);
  }
  std::printf("\n");
  std::printf("supervisor: restart budget %llu crashes / %d ms per worker\n",
              static_cast<unsigned long long>(supervisor_config.restart_budget),
              supervisor_config.budget_window_ms);
  if (!journal_path.empty()) {
    std::printf("deploy journal: %s (fsync per record)\n", journal_path.c_str());
  }
  std::puts("routes: POST /api/v1/deploy, POST /api/v1/predict (consistent-hash fan-out),");
  std::puts("        GET /api/v1/designs, GET /api/v1/metrics, GET /api/v1/readyz (fleet),");
  std::puts("        GET /healthz, GET /api/v1/boards, POST /api/v1/generate (local)");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::puts("press Ctrl-C to stop");
  g_shutdown.acquire();
  router.stop_probing();
  server.stop();
  supervisor.stop_all();
  std::puts("\nrouter stopped");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  util::set_log_level(util::LogLevel::kInfo);

  if (args.has("worker")) return run_worker(args);
  if (args.has("router")) return run_router(args);

  web::HttpServer server;
  web::install_api(server);
  serve::ServingConfig serving_config;
  if (!only_known_flags(args, kSingleFlags) ||
      !build_serving_config(
          args, static_cast<std::size_t>(args.get_int("workers", 4)), &serving_config)) {
    return 1;
  }
  serve::ServingRuntime runtime(serving_config);
  std::printf("engine: %s\n", serve::backend_name(serving_config.batcher.engine));
  if (const std::string faults = args.get_string("faults", ""); !faults.empty()) {
    std::string error;
    if (!runtime.faults().configure(faults, &error)) {
      std::fprintf(stderr, "--faults rejected: %s\n", error.c_str());
      return 1;
    }
    std::printf("fault injection armed: %s\n", faults.c_str());
  }
  serve::install_serve_api(server, runtime);
  const int port = server.start(static_cast<int>(args.get_int("port", 0)));
  std::printf("cnn2fpga server listening on http://127.0.0.1:%d\n", port);
  std::puts("routes: GET /healthz, GET /api/v1/boards, POST /api/v1/generate,");
  std::puts("        POST /api/v1/deploy, POST /api/v1/predict, GET /api/v1/designs,");
  std::puts("        GET /api/v1/metrics, GET /api/v1/readyz");
  std::puts("        (unversioned /api/... aliases answer 410 gone)");

  if (args.has("demo")) {
    const char* descriptor = R"({
      "name": "demo_net", "board": "zybo", "optimize": true, "seed": 3,
      "input": {"channels": 1, "height": 12, "width": 12},
      "layers": [
        {"type": "conv", "feature_maps_out": 4, "kernel": 3,
         "pool": {"type": "max", "kernel": 2, "step": 2}},
        {"type": "linear", "neurons": 5}
      ]})";
    std::puts("\n--demo: posting a descriptor to ourselves...");
    const auto response =
        web::http_request("127.0.0.1", port, "POST", "/api/v1/generate", descriptor);
    if (!response || response->status != 200) {
      std::printf("demo request failed (status %d)\n", response ? response->status : -1);
      server.stop();
      return 1;
    }
    const auto body = json::parse(response->body);
    std::printf("generated '%s': %zu bytes of C++, %zu tcl scripts\n",
                body.at("name").as_string().c_str(),
                body.at("cpp_source").as_string().size(),
                body.at("tcl_files").as_object().size());
    const auto& report = body.at("hls_report");
    std::printf("HLS: %ld cycles/image on %s, fits=%s, DSP %.1f%%, BRAM %.1f%%\n",
                report.at("latency_cycles").as_int(), report.at("board").as_string().c_str(),
                report.at("fits").as_bool() ? "yes" : "no",
                report.at("utilization").at("dsp").as_double() * 100.0,
                report.at("utilization").at("bram").as_double() * 100.0);
    server.stop();
    std::puts("demo complete");
    return 0;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::puts("press Ctrl-C to stop");
  g_shutdown.acquire();
  server.stop();
  std::puts("\nserver stopped");
  return 0;
}
