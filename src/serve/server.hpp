// The serving runtime: registry + executor + batcher + metrics behind the
// web API.
//
// The paper's framework stops when the artifacts are generated; this layer is
// the deployment half: POST /api/v1/deploy analyzes the design (HLS estimate
// and fit warnings, no C++ or tcl; or hits the content-addressed cache) and
// keeps a ready-to-run instance resident, and
// POST /api/v1/predict pushes images through the micro-batching pipeline against
// a deployed design. Handlers follow the same transport-free convention as
// web::handle_* so the test suite can exercise them without sockets.
//
// Routes:
//   POST /api/v1/deploy  -> body: descriptor JSON (+ "weights_base64" or
//                          "seed"); response: design_id, cache_hit, HLS
//                          summary, registry occupancy.
//   POST /api/v1/predict -> body: {"design_id": ..., "image_base64": raw
//                          float32 little-endian CHW pixels} (or "image":
//                          [numbers]); response: predicted class, logits,
//                          queue/exec timing, batch size.
//   GET  /api/v1/designs -> resident designs, most recently used first.
//   GET  /api/v1/metrics -> counters + latency histograms as JSON.
//   GET  /api/v1/readyz  -> load-balancer readiness: queue depth, shed rate,
//                          per-design breaker states; 503 while draining or
//                          saturated.
//
// Overload semantics (DESIGN.md "Overload and failure behavior"): predict
// answers 429 overloaded (+ Retry-After) when admission sheds, 504
// deadline_exceeded when the request's deadline (X-Deadline-Ms header or
// `default_deadline_ms`) passes before execution, 503 design_unavailable
// (+ Retry-After) while a design's circuit breaker is open, and 503 shutdown
// once the runtime is draining. The header is read by serve/deadline.hpp, as
// the shard router reads it; a budget past the clock's range is no deadline.
//
// The runtime serves on one engine, chosen at start-up (BatcherConfig::
// engine): the host CPU by default, or the simulated fabric. Its one
// Executor is that engine's set of slots: worker_threads threads on the CPU,
// exactly one on the fabric (one physical IP core).
//
// handle_predict waits through Batcher::predict_wait: when the request's
// batch is a lone batch and an executor slot is idle, the thread serving
// the request's HTTP connection computes it in that slot itself. Connection
// threads therefore do inference work when the server is uncontended,
// within the same slot bound as the executor's threads.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/batcher.hpp"
#include "serve/breaker.hpp"
#include "serve/executor.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "web/http.hpp"

namespace cnn2fpga::serve {

struct ServingConfig {
  /// Executor size on the CPU engine. It does not apply to the fabric,
  /// whose executor always has one thread.
  std::size_t worker_threads = 4;
  BatcherConfig batcher;               ///< includes the engine
  BreakerConfig breaker;               ///< applied per design
  /// Server-side deadline for predict requests without an X-Deadline-Ms
  /// header. 0 = no default (requests wait as long as the client does).
  std::uint64_t default_deadline_ms = 0;
};

class ServingRuntime {
 public:
  explicit ServingRuntime(ServingConfig config = {});
  ~ServingRuntime();
  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Drain the batcher and stop the worker pool. Idempotent; predict
  /// requests after this fail with 503.
  void shutdown();

  DesignRegistry& registry() { return registry_; }
  Batcher& batcher() { return batcher_; }
  Executor& executor() { return executor_; }
  ServeMetrics& metrics() { return metrics_; }
  FaultInjector& faults() { return faults_; }
  const ServingConfig& config() const { return config_; }

  /// Transport-free handler entry points (exercised directly by tests).
  web::HttpResponse handle_deploy(const web::HttpRequest& request);
  web::HttpResponse handle_predict(const web::HttpRequest& request);
  web::HttpResponse handle_designs(const web::HttpRequest& request);
  web::HttpResponse handle_metrics(const web::HttpRequest& request);
  web::HttpResponse handle_readyz(const web::HttpRequest& request);

 private:
  ServingConfig config_;
  ServeMetrics metrics_;
  FaultInjector faults_;  ///< must precede registry_/batcher_ (they hold it)
  DesignRegistry registry_;
  Executor executor_;  ///< the engine's slots; must precede batcher_
  Batcher batcher_;
  std::atomic<bool> stopped_{false};
};

/// Install the serving routes on a server. `runtime` must outlive it.
void install_serve_api(web::HttpServer& server, ServingRuntime& runtime);

}  // namespace cnn2fpga::serve
