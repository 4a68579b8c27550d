// Router-side handle to one worker process: connection pool + health state.
//
// Each worker the router knows about gets one WorkerClient. It owns a small
// pool of persistent keep-alive HTTP connections (web/http_client.hpp) so the
// hot predict path pays a socket handshake once per connection, not once per
// request, and it tracks the worker's health as observed from the router:
// consecutive transport failures (requests and probes both count) flip the
// worker to `down` after a threshold; a `readyz` probe that answers maps the
// worker's own status string (ready / saturated / draining) into the state
// the router's ring maintenance acts on. All methods are thread-safe — the
// router's connection threads share one WorkerClient.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "web/http_client.hpp"

namespace cnn2fpga::serve::shard {

/// Router-observed worker state. `kDraining`/`kSaturated` come from the
/// worker's own readyz body (it still answers, but asks for less traffic);
/// `kDown` is the router's verdict after repeated transport failures.
enum class WorkerState { kUp, kSaturated, kDraining, kDown };

const char* worker_state_name(WorkerState state);

struct WorkerClientConfig {
  web::ClientConfig client;        ///< per-connection timeouts (keep_alive forced on)
  std::size_t max_pool = 8;        ///< idle connections kept per worker
  int down_after_failures = 3;     ///< consecutive transport failures -> kDown
};

class WorkerClient {
 public:
  WorkerClient(std::string id, std::string host, int port, WorkerClientConfig config = {});

  const std::string& id() const { return id_; }
  const std::string& host() const { return host_; }
  int port() const { return port_; }

  /// One round trip on a pooled connection. std::nullopt means transport
  /// failure (and bumps the consecutive-failure count); any parsed HTTP
  /// response — including 4xx/5xx — resets it.
  std::optional<web::HttpResponse> request(const std::string& method, const std::string& path,
                                           const std::string& body = "",
                                           const std::map<std::string, std::string>& headers = {});

  /// GET /api/v1/readyz and fold the answer into `state()`. Returns the
  /// state after the probe. Cheap enough to call on a fixed cadence.
  WorkerState probe();

  WorkerState state() const;
  bool usable() const;  ///< kUp or kSaturated — can still take traffic
  int consecutive_failures() const;

  /// Forget pooled connections (e.g. after the process behind them was
  /// killed) without touching health state.
  void drop_connections();

  // Observability for fleet readyz and tests.
  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  std::uint64_t transport_failures() const {
    return transport_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<web::HttpClient> acquire();
  void release(std::unique_ptr<web::HttpClient> client);
  void record_success(WorkerState observed);
  void record_failure();

  const std::string id_;
  const std::string host_;
  const int port_;
  const WorkerClientConfig config_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<web::HttpClient>> pool_;  ///< idle connections
  WorkerState state_ = WorkerState::kUp;
  int failures_ = 0;  ///< consecutive transport failures

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> transport_failures_{0};
  std::atomic<std::uint64_t> probes_{0};
};

}  // namespace cnn2fpga::serve::shard
