#include "serve/batcher.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::serve {

using cnn2fpga::util::format;

namespace {
std::uint64_t elapsed_us(Batcher::Clock::time_point from, Batcher::Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// Returns at `until`, not much later. A sleep overshoots by tens of
/// microseconds (sleep_for(73 µs) returned after 129 µs at p50), which is the
/// size of a small design's whole invocation, so it sleeps only to 100 µs
/// short of `until` and spins the rest. It does not yield while spinning: on
/// a busy host a yield hands the core to another process for a whole
/// timeslice (holds of 3 ms against a 73 µs model).
void hold_until(Batcher::Clock::time_point until) {
  std::this_thread::sleep_until(until - std::chrono::microseconds(100));
  while (Batcher::Clock::now() < until) {
  }
}

/// The engine's functional result: the generated IP is bit-exact with the
/// reference network (the paper's central claim), so both engines compute
/// the same function and differ only in timing and concurrency. The pooled
/// contexts carry the design's serving precision, so one fused infer_batch
/// runs the micro-batch in float32, int16 or int8, bit-identical to
/// per-image infer by the kernel chunk-invariance contract.
void run_reference_batch(DeployedDesign& design, std::span<const tensor::Tensor* const> inputs,
                         std::span<tensor::Tensor> outputs) {
  auto ctx = design.contexts.acquire();
  design.net.infer_batch(inputs, outputs, *ctx);
  design.served.fetch_add(inputs.size(), std::memory_order_relaxed);
}

BatcherConfig validated(BatcherConfig config, const Executor& executor) {
  if (config.engine == BackendId::kAccelerator && executor.thread_count() != 1) {
    throw std::invalid_argument(
        format("Batcher: the fabric is one IP core, but the executor has %zu threads",
               executor.thread_count()));
  }
  if (config.max_batch == 0) config.max_batch = 1;
  return config;
}
}  // namespace

Batcher::Batcher(Executor& executor, BatcherConfig config, ServeMetrics* metrics,
                 FaultInjector* faults)
    : executor_(executor),
      config_(validated(config, executor)),
      inflight_limit_(config.max_inflight_per_design != 0 ? config.max_inflight_per_design
                                                          : executor.thread_count()),
      metrics_(metrics),
      faults_(faults),
      deadline_thread_([this] { deadline_loop(); }) {}

Batcher::~Batcher() { shutdown(); }

std::future<Prediction> Batcher::predict(std::shared_ptr<DeployedDesign> design,
                                         tensor::Tensor input, Clock::time_point deadline) {
  return admit(std::move(design), std::move(input), deadline, nullptr);
}

Prediction Batcher::predict_wait(std::shared_ptr<DeployedDesign> design, tensor::Tensor input,
                                 Clock::time_point deadline) {
  std::future<Prediction> future;
  {
    InlineBatch run;
    future = admit(std::move(design), std::move(input), deadline, &run);
    // The request flushed alone into an idle slot that this thread now
    // holds: compute it here, outside the mutex, exactly as a pool worker
    // would. Leaving the scope frees the slot.
    if (run.slot) execute_batch(std::move(run.design), std::move(run.batch));
  }
  return future.get();
}

std::future<Prediction> Batcher::admit(std::shared_ptr<DeployedDesign> design,
                                       tensor::Tensor input, Clock::time_point deadline,
                                       InlineBatch* run) {
  if (!design) throw std::invalid_argument("Batcher::predict: null design");
  if (input.shape() != design->net.input_shape()) {
    throw std::invalid_argument(format(
        "Batcher::predict: design '%s' expects input %s, got %s",
        design->descriptor().name.c_str(), design->net.input_shape().to_string().c_str(),
        input.shape().to_string().c_str()));
  }
  if (faults_ != nullptr) {
    faults_->inject_latency("batcher.enqueue");
    if (faults_->should_fail_alloc("batcher.enqueue")) throw std::bad_alloc();
  }

  Request request;
  request.input = std::move(input);
  request.enqueued = Clock::now();
  request.deadline = deadline;
  if (deadline <= request.enqueued) {
    // The client's budget is already spent; do not touch a lane for it.
    if (metrics_) metrics_->expired.add();
    throw DeadlineExceededError("predict: deadline expired before enqueue");
  }
  std::future<Prediction> future = request.promise.get_future();

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw ShutdownError("Batcher: predict after shutdown");

  // Bounded admission: shed before taking any queue space. waiting_ counts
  // every admitted request that has not started executing, so memory and
  // queueing delay stay bounded no matter how fast clients push.
  if (config_.max_queue_depth != 0 && waiting_ >= config_.max_queue_depth) {
    if (metrics_) metrics_->shed.add();
    throw OverloadedError(
        format("predict: admission queue full (%zu waiting)", waiting_), waiting_);
  }
  if (config_.max_queue_depth_per_design != 0) {
    const auto it = waiting_by_design_.find(design->id);
    const std::size_t design_waiting = it == waiting_by_design_.end() ? 0 : it->second;
    if (design_waiting >= config_.max_queue_depth_per_design) {
      if (metrics_) metrics_->shed.add();
      throw OverloadedError(
          format("predict: design '%s' queue full (%zu waiting)",
                 design->descriptor().name.c_str(), design_waiting),
          design_waiting);
    }
  }

  // Circuit breaker, checked after the shed paths. Admission only asks
  // whether the breaker would take a batch; the flush claims it (the
  // half-open probe included), so a shed request can never claim (and then
  // strand) the probe.
  if (!design->breaker.would_allow()) {
    if (metrics_) metrics_->breaker_rejects.add();
    throw DesignUnavailableError(
        format("predict: design '%s' unavailable (circuit breaker %s)",
               design->descriptor().name.c_str(), design->breaker.state_name()),
        design->breaker.retry_after_ms());
  }

  ++waiting_;
  ++waiting_by_design_[design->id];
  if (metrics_) {
    metrics_->admitted.add();
    metrics_->queue_depth.set(waiting_);
  }

  Lane& lane = lanes_[design->id];
  if (lane.requests.empty()) {
    lane.design = design;
    lane.deadline = request.enqueued + std::chrono::microseconds(config_.max_wait_us);
  }
  lane.requests.push_back(std::move(request));
  if (capacity_available_locked(design->id) || lane.requests.size() >= config_.max_batch) {
    // Free slot or full batch: dispatch from the submitting thread. Only
    // requests arriving while the engine is occupied wait to coalesce. A
    // lane of this request alone may run on the caller's thread.
    InlineBatch* const alone = lane.requests.size() == 1 ? run : nullptr;
    Lane ready = std::move(lane);
    lanes_.erase(design->id);
    flush_locked(std::move(ready), alone);
  } else {
    lane_cv_.notify_one();  // deadline thread re-arms for the new lane
  }
  return future;
}

void Batcher::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Drain: everything already accepted still executes.
    while (!lanes_.empty()) {
      Lane lane = std::move(lanes_.begin()->second);
      lanes_.erase(lanes_.begin());
      flush_locked(std::move(lane));
    }
  }
  lane_cv_.notify_all();
  if (deadline_thread_.joinable()) deadline_thread_.join();
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t Batcher::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, lane] : lanes_) total += lane.requests.size();
  return total;
}

std::size_t Batcher::waiting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiting_;
}

void Batcher::settle_waiting_locked(const std::string& design_id, std::size_t count) {
  waiting_ -= std::min(count, waiting_);
  if (const auto it = waiting_by_design_.find(design_id); it != waiting_by_design_.end()) {
    if (it->second <= count) {
      waiting_by_design_.erase(it);
    } else {
      it->second -= count;
    }
  }
  if (metrics_) metrics_->queue_depth.set(waiting_);
}

void Batcher::expire_request(Request& request) {
  if (metrics_) metrics_->expired.add();
  request.promise.set_exception(std::make_exception_ptr(
      DeadlineExceededError("predict: deadline exceeded before execution")));
}

void Batcher::deadline_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (lanes_.empty()) {
      lane_cv_.wait(lock, [this] { return stopping_ || !lanes_.empty(); });
      continue;
    }
    auto earliest = Clock::time_point::max();
    for (const auto& [id, lane] : lanes_) {
      if (lane.deadline < earliest) earliest = lane.deadline;
    }
    if (Clock::now() < earliest) {
      lane_cv_.wait_until(lock, earliest);
      continue;  // re-evaluate: lanes may have been flushed or added
    }
    const auto now = Clock::now();
    for (auto it = lanes_.begin(); it != lanes_.end();) {
      if (it->second.deadline <= now) {
        Lane expired = std::move(it->second);
        it = lanes_.erase(it);
        flush_locked(std::move(expired));
      } else {
        ++it;
      }
    }
  }
}

bool Batcher::capacity_available_locked(const std::string& design_id) const {
  // The fabric's DMA round trip amortizes over a full batch: an idle fabric
  // pulls full lanes at once but partial lanes only at their deadline.
  if (config_.engine == BackendId::kAccelerator) return false;
  // The executor runs many designs; what the flush trigger bounds is this
  // design's share of it.
  const auto it = busy_.find(design_id);
  return it == busy_.end() || it->second < inflight_limit_;
}

void Batcher::flush_locked(Lane lane, InlineBatch* run) {
  if (lane.requests.empty()) return;
  const std::string design_id = lane.design->id;

  // Deadline propagation, stage 1: a request whose deadline passed while it
  // coalesced is failed here instead of being dispatched.
  const auto now = Clock::now();
  std::vector<Request> live;
  live.reserve(lane.requests.size());
  std::size_t dropped = 0;
  for (Request& request : lane.requests) {
    if (request.deadline <= now) {
      expire_request(request);
      ++dropped;
    } else {
      live.push_back(std::move(request));
    }
  }
  if (dropped != 0) settle_waiting_locked(design_id, dropped);
  if (live.empty()) return;  // nothing dispatched, no probe held

  // The batch claims the design's breaker (the half-open probe included). A
  // breaker that opened since admission, or whose probe another batch took,
  // fails the batch here.
  Breaker& breaker = lane.design->breaker;
  if (!breaker.allow()) {
    settle_waiting_locked(design_id, live.size());
    const auto error = std::make_exception_ptr(DesignUnavailableError(
        format("predict: design '%s' unavailable (circuit breaker %s)",
               lane.design->descriptor().name.c_str(), breaker.state_name()),
        breaker.retry_after_ms()));
    for (Request& request : live) {
      if (metrics_) metrics_->breaker_rejects.add();
      request.promise.set_exception(error);
    }
    return;
  }
  const std::size_t backend_idx = backend_index(config_.engine);

  // Fault site backend.dispatch (error/alloc): the hand-off to the engine's
  // executor failed. Feed the breaker so repeated dispatch faults quarantine
  // the design; the batch never starts, so the requests fail here.
  if (faults_ != nullptr) {
    std::exception_ptr fault;
    if (faults_->should_fail_alloc("backend.dispatch")) {
      fault = std::make_exception_ptr(std::bad_alloc());
    } else if (faults_->should_fail("backend.dispatch")) {
      fault = std::make_exception_ptr(InjectedFault(
          format("injected dispatch failure on backend '%s'", backend_name(config_.engine))));
    }
    if (fault) {
      breaker.record_failure();
      settle_waiting_locked(design_id, live.size());
      if (metrics_) metrics_->backend[backend_idx].errors.add();
      for (Request& request : live) {
        if (metrics_) metrics_->predict_errors.add();
        request.promise.set_exception(fault);
      }
      return;
    }
  }

  ++in_flight_;
  ++busy_[design_id];
  if (metrics_) metrics_->backend[backend_idx].dispatched.add();
  if (run != nullptr) {
    // An idle slot of the executor is claimed here, under the mutex, so the
    // slot and the busy_/in_flight_ accounting above are taken together. (On
    // the fabric a lane of one flushes only at max_batch 1; the caller then
    // holds the one slot, as a worker would.)
    if (Executor::Slot slot = executor_.try_claim()) {
      if (metrics_) metrics_->backend[backend_idx].inline_batches.add();
      run->slot = std::move(slot);
      run->design = std::move(lane.design);
      run->batch = std::move(live);
      return;
    }
  }
  auto design = std::move(lane.design);
  // The task owns the batch; requests are fulfilled even if the lane's design
  // was evicted from the registry meanwhile (shared_ptr keeps it alive). The
  // executor outlives the batcher, and the task's last touch of the batcher
  // is execute_batch's final --in_flight_ under the mutex, which shutdown()
  // waits for.
  auto batch = std::make_shared<std::vector<Request>>(std::move(live));
  try {
    executor_.submit([this, design = std::move(design), batch] {
      execute_batch(design, std::move(*batch));
    });
  } catch (...) {
    --in_flight_;
    if (const auto it = busy_.find(design_id); it != busy_.end() && --it->second == 0) {
      busy_.erase(it);
    }
    settle_waiting_locked(design_id, batch->size());
    // The only expected submit failures are executor shutdown (report the
    // uniform shutdown code) and allocation pressure (forward as-is).
    std::exception_ptr error;
    try {
      throw;
    } catch (const std::bad_alloc&) {
      error = std::current_exception();
    } catch (...) {
      error = std::make_exception_ptr(ShutdownError("Batcher: executor is shut down"));
    }
    for (Request& request : *batch) {
      request.promise.set_exception(error);
      if (metrics_) metrics_->predict_errors.add();
    }
  }
}

void Batcher::execute_batch(std::shared_ptr<DeployedDesign> design,
                            std::vector<Request> batch) {
  {
    // The batch is executing now: it stops occupying admission-queue space.
    std::lock_guard<std::mutex> lock(mutex_);
    settle_waiting_locked(design->id, batch.size());
  }
  if (faults_ != nullptr) {
    faults_->inject_latency("backend.dispatch");
    faults_->inject_latency("executor.batch");
  }

  // Deadline propagation, stage 2: re-check at dispatch so a worker never
  // runs inference for a client that already gave up (the batch may have sat
  // in the executor queue behind slow work).
  std::vector<char> skip(batch.size(), 0);
  std::size_t live = 0;
  {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline <= now) {
        expire_request(batch[i]);
        skip[i] = 1;
      } else {
        ++live;
      }
    }
  }

  // Modeled deployment cost of this invocation: one scatter-gather pass
  // through the accelerator for the executed images (expired requests never
  // reach the FPGA). Reported per prediction on either engine, so clients
  // always see what the deployment hardware would cost.
  const double accel_seconds = design->invocation_seconds(live);

  const std::size_t backend_idx = backend_index(config_.engine);
  std::vector<Prediction> results(batch.size());
  std::vector<std::exception_ptr> errors(batch.size());
  Clock::time_point start = Clock::now();
  std::uint64_t exec_us = 0;
  std::size_t failures = 0;
  if (live != 0) {
    if (faults_ != nullptr && faults_->should_fail("executor.batch")) {
      const auto fault =
          std::make_exception_ptr(InjectedFault("injected execution failure"));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!skip[i]) errors[i] = fault;
      }
      failures = live;
    } else {
      std::vector<const tensor::Tensor*> inputs;
      std::vector<std::size_t> slot;
      inputs.reserve(live);
      slot.reserve(live);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!skip[i]) {
          inputs.push_back(&batch[i].input);
          slot.push_back(i);
        }
      }
      std::vector<tensor::Tensor> outputs(inputs.size());
      start = Clock::now();
      try {
        run_reference_batch(*design, inputs, outputs);
        if (config_.engine == BackendId::kAccelerator && config_.accel_sleep_for_model) {
          // The fabric is busy for the modeled invocation, counted from the
          // batch's start (the functional model's compute stands in for part
          // of it): the batch keeps the one IP core's slot until then, so
          // work queues behind the fabric as it would behind the hardware.
          hold_until(start + std::chrono::ceil<Clock::duration>(
                                 std::chrono::duration<double>(accel_seconds)));
        }
        for (std::size_t j = 0; j < slot.size(); ++j) {
          Prediction& out = results[slot[j]];
          out.predicted = outputs[j].argmax();
          out.logits.assign(outputs[j].span().begin(), outputs[j].span().end());
        }
      } catch (...) {
        // A batch fails as a unit; every live request shares the verdict
        // (inputs are shape-validated at submit, so this is an environmental
        // failure, not a per-request one).
        const std::exception_ptr error = std::current_exception();
        for (const std::size_t i : slot) errors[i] = error;
        failures = slot.size();
      }
      exec_us = elapsed_us(start, Clock::now());
    }
  }

  // One health verdict per batch feeds the design's breaker. An all-expired
  // batch says nothing about the design, so it only releases a pending
  // half-open probe.
  if (live == 0) {
    design->breaker.record_abandoned();
  } else if (failures != 0) {
    design->breaker.record_failure();
  } else {
    design->breaker.record_success();
    design->batches.fetch_add(1, std::memory_order_relaxed);
  }

  {
    // Free the engine and launch any coalesced batch BEFORE fulfilling
    // promises: the next batch executes on another slot while this thread
    // does completion work, keeping the per-design pipeline full.
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = busy_.find(design->id); it != busy_.end() && --it->second == 0) {
      busy_.erase(it);
    }
    if (const auto lane_it = lanes_.find(design->id); lane_it != lanes_.end()) {
      // Same rule as enqueue: the freed slot pulls the coalescing lane if it
      // is worth a flush now (on the fabric a partial lane waits for its
      // max_wait deadline).
      if (capacity_available_locked(design->id) ||
          lane_it->second.requests.size() >= config_.max_batch) {
        Lane next = std::move(lane_it->second);
        lanes_.erase(lane_it);
        flush_locked(std::move(next));
      }
    }
  }

  const auto accel_invocation_us = static_cast<std::uint64_t>(accel_seconds * 1e6);
  const auto accel_share_us =
      live == 0 ? 0
                : static_cast<std::uint64_t>(accel_seconds * 1e6 /
                                             static_cast<double>(live));

  if (metrics_ && live != 0) {
    metrics_->batches.add();
    metrics_->batch_size.record(live);
    metrics_->exec_us.record(exec_us);
    metrics_->accel_us.record(accel_invocation_us);
    if (failures != 0) {
      metrics_->backend[backend_idx].errors.add();
    } else {
      metrics_->backend[backend_idx].batches.add();
      metrics_->backend[backend_idx].images.add(live);
      metrics_->backend[backend_idx].exec_us.record(exec_us);
    }
    // Per-precision accounting: the design's deployed arithmetic is what the
    // batch just executed in.
    auto& precision_metrics =
        metrics_->precision[nn::serve_precision_index(design->precision)];
    precision_metrics.dispatched.add();
    if (failures == 0) {
      precision_metrics.batches.add();
      precision_metrics.images.add(live);
      precision_metrics.exec_us.record(exec_us);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (skip[i]) continue;  // promise already failed by expire_request()
    if (errors[i]) {
      if (metrics_) metrics_->predict_errors.add();
      batch[i].promise.set_exception(errors[i]);
      continue;
    }
    results[i].queue_us = elapsed_us(batch[i].enqueued, start);
    results[i].exec_us = exec_us;
    results[i].accel_us = accel_share_us;
    results[i].batch_size = live;
    results[i].backend = config_.engine;
    results[i].precision = design->precision;
    if (metrics_) {
      metrics_->predictions.add();
      metrics_->queue_us.record(results[i].queue_us);
    }
    batch[i].promise.set_value(std::move(results[i]));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (--in_flight_ == 0) drained_cv_.notify_all();
}

}  // namespace cnn2fpga::serve
