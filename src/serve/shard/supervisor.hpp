// Worker supervisor: crash detection, backoff restarts, restart budgets.
//
// PR 8's fleet tolerated worker death (failover + repair) but never undid it:
// a SIGKILLed worker left the fleet one shard smaller forever. The Supervisor
// closes that loop. It owns one slot per worker and, driven by the router's
// existing prober thread (Supervisor::tick() — no SIGCHLD handler, no extra
// thread), runs this state machine per slot:
//
//            crash detected (waitpid WNOHANG)
//   kRunning ────────────────────────────────► kBackoff(delay)
//      ▲                                            │ delay elapsed
//      │ restart succeeded (worker reported ready)  ▼
//      └──────────────────────────────────── restart attempt ──► failed:
//                                                 next kBackoff(delay×factor),
//                                                 or kDead once the rolling
//                                                 window holds > budget crashes
//
// Backoff is deterministic (initial × factor^(n-1), capped), so a flapping
// worker's schedule is reproducible in tests. The restart budget is a rolling
// window: `restart_budget` crashes within `budget_window_ms` marks the slot
// permanently down (kDead) — visible in /api/v1/readyz — instead of burning
// CPU on a worker that can never stay up (e.g. its model file is gone).
//
// A restarted worker comes back EMPTY. The supervisor does not re-deploy;
// it fires the on_restart callback and the router's probe/repair path does
// what it already does for any returning worker: restore it to the ring and
// replay missing designs from the catalog (redeploy-on-404 covers races).
//
// Mechanism vs policy: the supervisor only knows the WorkerLauncher interface
// (process.hpp). ProcessLauncher is the real one: it re-executes the binary
// in --worker mode on a port reserved across restarts, so a restart from the
// busy router is as safe as the first start. Tests inject an in-process
// launcher, which keeps the state machine runnable under ThreadSanitizer.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "serve/shard/process.hpp"

namespace cnn2fpga::serve::shard {

struct SupervisorConfig {
  int backoff_initial_ms = 200;   ///< first restart delay after a crash
  double backoff_factor = 2.0;    ///< deterministic exponential growth
  int backoff_max_ms = 5000;      ///< backoff cap
  /// Crashes tolerated per rolling window before the slot is marked
  /// permanently down. 0 disables the budget (always restart).
  std::uint64_t restart_budget = 5;
  int budget_window_ms = 60000;   ///< rolling window for the budget
};

enum class SlotState { kRunning, kBackoff, kDead };

const char* slot_state_name(SlotState state);

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config = {});
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Register a worker slot. `id` must match the router's worker id
  /// ("host:port") so readyz output lines up. Slots are added before
  /// supervision starts and never removed (same append-only rule as
  /// Router::add_worker).
  void add_slot(const std::string& id, std::unique_ptr<WorkerLauncher> launcher);

  /// Invoked after a slot was successfully restarted (worker serving) with
  /// the slot id. The router hooks this to probe_now() so the
  /// empty worker rejoins the ring and gets repaired immediately instead of
  /// on the next probe period.
  void on_restart(std::function<void(const std::string& id)> callback);

  /// One supervision cycle: reap crashes, restart slots whose backoff
  /// expired, retire slots over budget. Called from the router's prober
  /// thread; a restart blocks the tick for up to the launcher's ready
  /// timeout, which is the price of not owning a thread.
  void tick();

  /// Gracefully stop every worker (fleet teardown). Dead slots are skipped.
  void stop_all();

  struct SlotStatus {
    std::string id;
    int port = 0;
    SlotState state = SlotState::kRunning;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    int backoff_ms = 0;  ///< current delay when state == kBackoff
  };
  std::vector<SlotStatus> status() const;

  std::uint64_t restarts() const;          ///< successful restarts, all slots
  std::uint64_t crashes() const;           ///< crashes detected, all slots
  std::uint64_t permanently_down() const;  ///< slots in kDead

  /// {"slots": [...], "restarts": n, "crashes": n, "permanently_down": n}
  json::Value to_json() const;

 private:
  struct Slot {
    std::string id;
    std::unique_ptr<WorkerLauncher> launcher;
    SlotState state = SlotState::kRunning;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    int backoff_ms = 0;
    std::chrono::steady_clock::time_point restart_due{};
    std::deque<std::chrono::steady_clock::time_point> window;  ///< recent crashes
  };

  /// Crash accounting shared by "died while running" and "restart attempt
  /// failed". Returns the slot's next state. Caller holds mutex_.
  SlotState record_crash_locked(Slot& slot, std::chrono::steady_clock::time_point now);

  const SupervisorConfig config_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::function<void(const std::string&)> on_restart_;
};

}  // namespace cnn2fpga::serve::shard
