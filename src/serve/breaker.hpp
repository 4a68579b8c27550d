// Per-design circuit breaker: quarantine a failing design, keep the fleet up.
//
// The paper's block design wires a Processor System Reset into the fabric
// (Fig. 5) so a wedged IP core can be reset instead of taking the system
// down. This is the same discipline one level up: when a deployed design's
// batches fail `failure_threshold` times in a row, the breaker opens and
// predict requests for that design are rejected immediately (503
// design_unavailable) instead of burning executor slots on work that will
// fail. After `cooldown_ms` the breaker goes half-open and admits exactly one
// probe batch; a successful probe closes the breaker, a failed one reopens it
// and restarts the cooldown. Healthy designs never notice.
//
// State machine:
//
//     closed --(N consecutive failures)--> open
//     open   --(cooldown elapsed, next allow())--> half-open
//     half-open --(probe succeeds)--> closed
//     half-open --(probe fails)-----> open        (cooldown restarts)
//     half-open --(probe abandoned)-> half-open   (probe slot freed)
//
// Thread model: every transition happens under the breaker's own mutex;
// allow() is called once per request and record_* once per batch, so the
// lock is far off the per-image hot path.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "serve/metrics.hpp"

namespace cnn2fpga::serve {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState state);

struct BreakerConfig {
  /// Consecutive failed batches that open the breaker (clamped to >= 1).
  std::size_t failure_threshold = 5;
  /// Open duration before a half-open probe is admitted.
  std::uint64_t cooldown_ms = 1000;
};

class Breaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// `opens` may be null; when set it is bumped on every transition to open.
  explicit Breaker(BreakerConfig config = {}, Counter* opens = nullptr);

  /// May this request be admitted? Transitions open -> half-open once the
  /// cooldown has elapsed (the admitted request is the probe).
  bool allow();

  /// Would allow() succeed right now? Non-mutating: neither transitions the
  /// state nor claims the half-open probe slot. The batcher admits a request
  /// when the design's breaker would allow it, and only consumes allow() when
  /// the request's batch flushes.
  bool would_allow() const;

  /// A batch for this design executed successfully.
  void record_success();
  /// A batch for this design failed (execution error / injected fault).
  void record_failure();
  /// A batch executed nothing (every request expired): frees the half-open
  /// probe slot without deciding health either way.
  void record_abandoned();

  BreakerState state() const;
  const char* state_name() const { return breaker_state_name(state()); }
  std::size_t consecutive_failures() const;
  /// Cumulative closed/half-open -> open transitions.
  std::uint64_t opens() const;
  /// Cooldown remaining while open (0 otherwise) — feeds Retry-After.
  std::uint64_t retry_after_ms() const;

  const BreakerConfig& config() const { return config_; }

 private:
  void open_locked();

  const BreakerConfig config_;
  Counter* opens_counter_;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::uint64_t opens_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
};

}  // namespace cnn2fpga::serve
