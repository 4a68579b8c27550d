// Shard router: consistent-hash front door for a fleet of worker processes.
//
// One router process owns the public /api/v1 surface and fans requests out to
// N single-process serving runtimes (workers) over persistent local HTTP
// connections. Placement is content-addressed: the router computes the same
// design key the workers' registries compute (serve::design_key over the
// descriptor, expanded weights and serving precision) and hashes it onto a
// consistent-hash ring (shard/ring.hpp), so
//
//   * a deploy lands on `replication` distinct workers (hot designs survive a
//     single worker death),
//   * every predict for a design goes to the workers that hold it — the
//     workers' own deploy caches, weight packs and measured-latency state stay
//     warm per shard instead of being duplicated everywhere,
//   * a worker joining or leaving moves only the keys whose ring ownership
//     changed (~K/N of K keys), not the whole catalog.
//
// Failure handling reuses the per-worker signals the single-process runtime
// already exports: a `readyz` probe that reports draining/saturated, or
// repeated transport failures, take a worker out of the ring; predicts that
// hit a dead worker fail over to the next replica in ring order; the router
// re-replicates the dead worker's designs from its catalog (it keeps every
// deploy body verbatim, so repair is a replay, not a state transfer). A
// recovered worker re-enters the ring and receives only the designs it is now
// a replica for — no full rebalance.
//
// Crash safety (PR 9): with RouterConfig.journal_path set, the deploy catalog
// is durable — every accepted deploy is journaled before it is acked
// (shard/journal.hpp) and a restarted router recover()s its exact pre-crash
// design set, re-replicating through the same repair path used for worker
// joins. attach_supervisor() lets the prober thread also restart crashed
// worker processes (shard/supervisor.hpp) so the fleet heals in both
// directions: routers forget nothing, workers come back.
//
// The router never interprets worker responses on the hot path: a predict
// response body is passed through byte-for-byte (routing must never change a
// prediction), with attribution added in `X-Shard-Worker` / `X-Shard-Attempts`
// response headers. Fleet observability is where bodies are merged:
// /api/v1/metrics sums counters and log2 histogram buckets across workers
// (exact, because workers export raw buckets), /api/v1/readyz reports
// per-worker state plus fleet-level replication health.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/fault.hpp"
#include "serve/shard/journal.hpp"
#include "serve/shard/ring.hpp"
#include "serve/shard/supervisor.hpp"
#include "serve/shard/worker_client.hpp"
#include "web/http.hpp"

namespace cnn2fpga::serve::shard {

struct RouterConfig {
  std::size_t replication = 2;   ///< distinct workers per design (clamped to fleet size)
  std::size_t vnodes = 64;       ///< ring virtual nodes per worker
  WorkerClientConfig worker;     ///< per-worker connection pool + health thresholds
  int probe_interval_ms = 200;   ///< background health-probe cadence (<= 0: manual only)
  /// Durable deploy journal path ("" = no journal). With a journal, every
  /// accepted deploy is appended (and fsynced per `journal` policy) before
  /// the client sees 200, and a restarted router calls recover() to rebuild
  /// its catalog from the log — see shard/journal.hpp.
  std::string journal_path;
  JournalConfig journal;
};

/// Registry-identical content key for a deploy request body: serve::design_key
/// over what parse_deploy_request (the worker's own deploy parser) returns,
/// or std::nullopt with `*error` filled with the 400 the worker would have
/// answered. Exposed for tests and the bench harness (offline placement
/// planning).
std::optional<std::string> compute_design_key(const std::string& body,
                                              web::HttpResponse* error);

class Router {
 public:
  explicit Router(RouterConfig config = {});
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Register a worker and place it on the ring. Call before serving traffic
  /// or at runtime (a join triggers replication repair toward the newcomer).
  void add_worker(const std::string& id, const std::string& host, int port);

  std::vector<std::string> worker_ids() const;
  /// The client for `id` (nullptr if unknown). Stable for the router's
  /// lifetime — workers are never erased, only taken off the ring.
  WorkerClient* worker(const std::string& id) const;
  /// Workers currently on the ring (i.e. receiving new placements).
  std::vector<std::string> ring_workers() const;

  /// Start/stop the background prober (readyz every probe_interval_ms).
  void start_probing();
  void stop_probing();
  /// One synchronous probe cycle: probe every worker, apply ring
  /// membership changes and replication repair. Deterministic for tests.
  void probe_now();

  /// Rebuild the catalog from the journal replayed at construction, then
  /// re-replicate every catalogued design through the ordinary repair path.
  /// Call once after add_worker()s (calling with an empty ring only fills
  /// the catalog; joins repair later). Returns the number of designs
  /// recovered into the catalog. No-op without a journal.
  std::size_t recover();

  /// Let the prober thread drive `supervisor` (tick per probe cycle) and
  /// hook its on_restart to probe_now(), so a restarted-empty worker rejoins
  /// the ring and is repaired immediately. Supervisor state is exported in
  /// readyz/metrics. Call before start_probing(); not owned.
  void attach_supervisor(Supervisor* supervisor);

  // Transport-free handlers mirroring ServingRuntime's /api/v1 contract.
  web::HttpResponse handle_deploy(const web::HttpRequest& request);
  web::HttpResponse handle_predict(const web::HttpRequest& request);
  web::HttpResponse handle_designs(const web::HttpRequest& request);
  web::HttpResponse handle_metrics(const web::HttpRequest& request);
  web::HttpResponse handle_readyz(const web::HttpRequest& request);

  /// Router-side injector (site `shard.worker`: simulate a worker's transport
  /// failing on the predict path). Arm before traffic; reads env on start.
  FaultInjector& faults() { return faults_; }

  // Observability (tests + fleet metrics).
  std::uint64_t failovers() const { return failovers_.load(std::memory_order_relaxed); }
  std::uint64_t key_mismatches() const {
    return key_mismatches_.load(std::memory_order_relaxed);
  }
  std::uint64_t repairs() const { return repairs_.load(std::memory_order_relaxed); }
  std::uint64_t injected_failures() const {
    return injected_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t deadline_rejects() const {
    return deadline_rejects_.load(std::memory_order_relaxed);
  }
  /// nullptr when RouterConfig.journal_path is empty.
  const DeployJournal* journal() const { return journal_.get(); }
  /// Workers currently holding `design_id` according to the catalog.
  std::vector<std::string> holders(const std::string& design_id) const;

 private:
  struct CatalogEntry {
    std::string deploy_body;        ///< original request body, replayable verbatim
    std::set<std::string> holders;  ///< workers believed to hold the design
  };
  /// A replication repair planned under the lock, executed outside it.
  struct Repair {
    std::string design_id;
    std::string deploy_body;
    std::vector<std::string> targets;
  };

  /// Ordered predict candidates for a key: ring replicas first (usable before
  /// draining, down skipped unless nothing else), then any catalog holders
  /// the ring no longer names. Caller must hold mutex_.
  std::vector<std::string> candidates_locked(const std::string& key) const;
  /// Take `id` off the ring and plan re-replication of its designs.
  std::vector<Repair> drop_worker_locked(const std::string& id);
  /// Put `id` back on the ring and plan the deploys it is now a replica for.
  std::vector<Repair> restore_worker_locked(const std::string& id);
  void execute_repairs(std::vector<Repair> repairs);
  void probe_loop();
  /// Append `body` to the journal if it is new history; compact when the log
  /// has outgrown the live catalog. Returns false (with *error filled) when
  /// the journal cannot take the record — the deploy must NOT be acked.
  bool journal_deploy(const std::string& body, web::HttpResponse* error);

  const RouterConfig config_;
  FaultInjector faults_;

  mutable std::mutex mutex_;  ///< guards ring_ + catalog_ (workers_ is append-only)
  HashRing ring_;
  std::map<std::string, std::unique_ptr<WorkerClient>> workers_;
  std::map<std::string, CatalogEntry> catalog_;

  std::unique_ptr<DeployJournal> journal_;    ///< nullptr without journal_path
  std::vector<std::string> replayed_bodies_;  ///< journal records awaiting recover()
  std::atomic<std::uint64_t> journal_recovered_{0};  ///< designs rebuilt by recover()
  Supervisor* supervisor_ = nullptr;          ///< not owned; see attach_supervisor

  std::atomic<std::uint64_t> failovers_{0};         ///< predicts retried on a replica
  std::atomic<std::uint64_t> key_mismatches_{0};    ///< router key != worker design_id
  std::atomic<std::uint64_t> repairs_{0};           ///< re-replication deploys executed
  std::atomic<std::uint64_t> injected_failures_{0};  ///< shard.worker fires
  std::atomic<std::uint64_t> deadline_rejects_{0};   ///< 504s answered locally

  std::thread prober_;
  std::atomic<bool> probing_{false};
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
};

/// Mount the router's fleet surface on `server` under /api/v1 (deploy,
/// predict, designs, metrics, readyz) — drop-in for install_serve_api.
void install_router_api(web::HttpServer& server, Router& router);

}  // namespace cnn2fpga::serve::shard
