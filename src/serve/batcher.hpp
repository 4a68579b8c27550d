// Dynamic (continuous) micro-batching of predict requests onto the serving
// runtime's engine.
//
// Requests for the same deployed design coalesce in a per-design lane. A lane
// flushes — becoming one batch that runs in a slot of the runtime's Executor,
// fulfilling the per-request futures — on the first of three triggers:
//   1. the design has a free inference slot (CPU engine only): flush
//      immediately, so an unloaded server adds zero batching latency and a
//      loaded one keeps every slot busy. When that flush holds only the
//      request a predict_wait() caller just submitted and the Executor has an
//      idle slot, the caller claims the slot and computes the batch on its
//      own thread: no hand-off to a worker and no future wake-up. Otherwise
//      the batch is submitted to the Executor;
//   2. `max_batch` requests are waiting: flush from the submitting thread;
//   3. the oldest request has waited `max_wait_us`: deadline flush for
//      partial batches stuck behind long-running batches.
// While the engine is busy, concurrent requests accumulate and flush the
// moment a batch completes — under saturation the batch size converges on
// the number of concurrent clients (capped at max_batch) with no timer on
// the hot path.
//
// The two engines differ in two rules, both here. The fabric (the generated
// IP of Fig. 5) amortizes its DMA round trip over a full batch, so it never
// flushes a partial lane early (trigger 1): partial lanes wait for trigger 3.
// And its Executor has exactly one thread, one physical IP core, in which a
// fabric batch keeps its slot until the modeled invocation,
// DeployedDesign::invocation_seconds, has passed since it started computing
// (while accel_sleep_for_model is on).
// Both engines compute the same function, one infer_batch through the
// design's pooled contexts at its serving precision (float32, int16 or int8;
// a fixed-point descriptor's format picks the integer one at deploy), so a
// batch's logits depend on the design and its precision, not on the engine.
//
// Overload behavior (see DESIGN.md "Overload and failure behavior"):
//   - Bounded admission. `max_queue_depth` caps requests that are admitted
//     but not yet executing (lanes + submitted-but-unstarted batches). At
//     the cap, predict() throws OverloadedError immediately — the accept
//     path never blocks and memory stays bounded. `max_queue_depth_per_design`
//     bounds one design's share the same way.
//   - Deadline propagation. Every request may carry a deadline. Expired
//     requests are dropped when their lane flushes and re-checked when the
//     batch starts executing, failing the future with DeadlineExceededError
//     so workers never run inference for a client that already gave up.
//   - Circuit breaking, per design. predict() admits a request while the
//     design's breaker would allow it; a flush claims the breaker (the
//     half-open probe included), and each batch's outcome feeds it. While it
//     is open, predict() fails with DesignUnavailableError.
//   - Fault sites: `batcher.enqueue` (latency/alloc) in predict(),
//     `backend.dispatch` (error/alloc at flush, latency at batch start),
//     `executor.batch` (latency/error) at batch execution.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/backend/ids.hpp"
#include "serve/errors.hpp"
#include "serve/executor.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "tensor/tensor.hpp"

namespace cnn2fpga::serve {

/// Result of one served image.
struct Prediction {
  std::size_t predicted = 0;       ///< argmax class (what the FPGA returns)
  std::vector<float> logits;       ///< final scores (log-probabilities)
  std::uint64_t queue_us = 0;      ///< time spent waiting in the batcher lane
  std::uint64_t exec_us = 0;       ///< execution time of the containing batch
  std::uint64_t accel_us = 0;      ///< this image's share of the modeled
                                   ///< accelerator invocation (see
                                   ///< DeployedDesign::invocation_seconds)
  std::size_t batch_size = 0;      ///< images in the containing batch
  BackendId backend = BackendId::kCpu;  ///< engine the batch executed on
  /// Serving arithmetic the design is deployed at (what computed the logits).
  nn::ServePrecision precision = nn::ServePrecision::kFloat32;
};

struct BatcherConfig {
  std::size_t max_batch = 8;        ///< flush as soon as this many requests wait
  std::uint64_t max_wait_us = 1000; ///< deadline flush for partial batches
  /// Concurrent batches allowed per design on the CPU engine; 0 = the
  /// executor's worker count. 1 restores the fully serialized
  /// pre-ExecutionContext behavior. (The fabric runs one batch at a time:
  /// its Executor has one thread.)
  std::size_t max_inflight_per_design = 0;
  /// Bounded admission: cap on requests admitted but not yet executing
  /// (waiting()). 0 = unbounded. At the cap predict() sheds with
  /// OverloadedError instead of queueing.
  std::size_t max_queue_depth = 0;
  /// Per-design share of the admission budget. 0 = unbounded.
  std::size_t max_queue_depth_per_design = 0;
  /// The engine every batch runs on: the host SIMD engine, or the simulated
  /// FPGA fabric, whose Executor must have exactly one thread.
  BackendId engine = BackendId::kCpu;
  /// On the fabric, hold the slot until the modeled invocation has passed
  /// since the batch started computing (the fabric really is busy that long).
  /// Off in tests that only read the modeled time from ServeMetrics::accel_us.
  bool accel_sleep_for_model = true;
};

class Batcher {
 public:
  using Clock = std::chrono::steady_clock;

  /// Sentinel deadline: the request never expires.
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// Every flushed batch runs in a slot of `executor`, which must outlive
  /// the batcher. `metrics` and `faults` may be null. Throws
  /// std::invalid_argument for a fabric engine on an executor wider than one
  /// thread: the model describes one physical IP core.
  Batcher(Executor& executor, BatcherConfig config, ServeMetrics* metrics = nullptr,
          FaultInjector* faults = nullptr);
  ~Batcher();
  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueue one image. The future resolves when its batch has executed; it
  /// carries an exception for per-request failures (DeadlineExceededError
  /// when dropped past `deadline`, InjectedFault / execution errors
  /// otherwise). Never blocks. Throws immediately:
  ///   std::invalid_argument      input-shape mismatch
  ///   OverloadedError            admission queue at max_queue_depth
  ///   DeadlineExceededError      `deadline` already passed
  ///   DesignUnavailableError     the design's circuit breaker is open
  ///   ShutdownError              after shutdown()
  std::future<Prediction> predict(std::shared_ptr<DeployedDesign> design,
                                  tensor::Tensor input,
                                  Clock::time_point deadline = kNoDeadline);

  /// predict() and wait for the result: returns the Prediction or throws
  /// what predict() or its future would. Admission is predict()'s own. When
  /// the request flushes at once as a batch of one and the executor has an
  /// idle slot, this thread claims that slot and runs the batch itself
  /// (counted in backends.<engine>.inline); the batch goes through the same
  /// deadline drops, fault sites, breaker verdicts, fabric hold and metrics
  /// as on a worker. Otherwise it waits on the future.
  Prediction predict_wait(std::shared_ptr<DeployedDesign> design, tensor::Tensor input,
                          Clock::time_point deadline = kNoDeadline);

  /// Flush every pending lane, wait for all in-flight batches, stop the
  /// deadline thread. Idempotent. The executor is the caller's to stop.
  void shutdown();

  const BatcherConfig& config() const { return config_; }
  /// Effective concurrent-batch cap per design.
  std::size_t inflight_limit() const { return inflight_limit_; }

  /// Requests waiting in lanes (not yet flushed).
  std::size_t pending() const;

  /// Requests admitted but not yet executing (lanes + submitted batches the
  /// executor has not started). This is what max_queue_depth bounds.
  std::size_t waiting() const;

 private:
  struct Request {
    std::promise<Prediction> promise;
    tensor::Tensor input;
    Clock::time_point enqueued;
    Clock::time_point deadline = kNoDeadline;
  };

  struct Lane {
    std::shared_ptr<DeployedDesign> design;
    std::vector<Request> requests;
    Clock::time_point deadline;  ///< enqueue time of the oldest + max_wait
  };

  /// A flushed batch the submitting thread runs itself, in the idle slot
  /// `slot` of the executor (predict_wait()).
  struct InlineBatch {
    Executor::Slot slot;
    std::shared_ptr<DeployedDesign> design;
    std::vector<Request> batch;
  };

  /// Admission shared by predict() and predict_wait(). With `run` set, a
  /// flush of this request alone may hand its batch back through `run`
  /// instead of dispatching it (see flush_locked()).
  std::future<Prediction> admit(std::shared_ptr<DeployedDesign> design, tensor::Tensor input,
                                Clock::time_point deadline, InlineBatch* run);
  void deadline_loop();
  /// The engine takes a partial lane of `design_id` right now: it is the CPU
  /// engine (the fabric amortizes a fixed per-invocation cost and waits for
  /// a full lane or the max_wait deadline) and the design has a free
  /// inflight slot. Caller holds mutex_.
  bool capacity_available_locked(const std::string& design_id) const;
  /// Claim the design's breaker for a lane and submit it to the executor
  /// (expired requests are dropped first). With `run` set, the batch is
  /// instead moved into `run` when the executor grants an idle slot; the
  /// caller then runs execute_batch after releasing the mutex. Caller holds
  /// mutex_.
  void flush_locked(Lane lane, InlineBatch* run = nullptr);
  void execute_batch(std::shared_ptr<DeployedDesign> design, std::vector<Request> batch);
  /// Account `count` admitted requests of `design_id` leaving the waiting
  /// set (started executing, expired, or failed to submit). Caller holds
  /// mutex_.
  void settle_waiting_locked(const std::string& design_id, std::size_t count);
  /// Fail one expired request (504 path) without executing it. Safe to call
  /// with or without mutex_ held (touches only the request and metrics).
  void expire_request(Request& request);

  Executor& executor_;
  const BatcherConfig config_;
  const std::size_t inflight_limit_;
  ServeMetrics* metrics_;
  FaultInjector* faults_;

  mutable std::mutex mutex_;
  std::condition_variable lane_cv_;     ///< wakes the deadline thread
  std::condition_variable drained_cv_;  ///< signals in-flight batches done
  std::map<std::string, Lane> lanes_;   ///< keyed by design id
  std::map<std::string, std::size_t> busy_;  ///< in-flight batches per design
  std::size_t in_flight_ = 0;           ///< batches submitted, not yet finished
  std::size_t waiting_ = 0;             ///< admitted, not yet executing
  std::map<std::string, std::size_t> waiting_by_design_;
  bool stopping_ = false;
  std::thread deadline_thread_;
};

}  // namespace cnn2fpga::serve
