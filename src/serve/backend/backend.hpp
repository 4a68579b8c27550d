// InferenceBackend: the execution engine behind the batcher.
//
// The paper's evaluation (Tables I/II) is a two-engine comparison — the same
// generated CNN on the Zynq's ARM core vs. the generated FPGA IP — and picks,
// per network, the faster one. A serving runtime mirrors that choice: it runs
// every batch the Batcher flushes on one InferenceBackend, chosen at start-up.
// Two implementations exist:
//
//   CpuBackend          the SIMD ExecutionContextPool / infer_batch path on
//                       the shared worker pool (cpu_backend.hpp)
//   AcceleratorBackend  the simulated FPGA fabric: functional results from
//                       the same reentrant engine, timing from the
//                       axi::BlockDesign invocation model, one in-flight
//                       invocation (one physical IP core), executed on its
//                       own driver thread (accel_backend.hpp)
//
// The interface carries the backend's concurrency (slots), its flush rule
// and live queue-depth/inflight gauges maintained by dispatch() and
// begin_inline(). run_batch() is the compute itself — called from whatever
// execution resource do_submit chose, or from the submitting thread when it
// claimed an idle slot — and fails as a unit: one exception fails every image
// in the batch (inputs are shape-validated at predict(), so an execution
// failure is environmental, not per-request).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <span>

#include "serve/backend/ids.hpp"
#include "serve/executor.hpp"
#include "serve/registry.hpp"
#include "tensor/tensor.hpp"

namespace cnn2fpga::serve {

struct BackendCapabilities {
  /// Concurrent batches the backend can execute (its slot count).
  std::size_t concurrency = 1;
  /// A partial lane is still worth an eager flush: per-invocation setup is
  /// cheap, so a small batch wastes little capacity. False for the fabric —
  /// its DMA round trip amortizes over a full batch, so an idle accelerator
  /// pulls full lanes immediately but partial lanes only through the
  /// max_wait deadline flush.
  bool eager_partial_flush = true;
};

class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;
  InferenceBackend(const InferenceBackend&) = delete;
  InferenceBackend& operator=(const InferenceBackend&) = delete;

  virtual BackendId id() const = 0;
  const char* name() const { return backend_name(id()); }
  virtual BackendCapabilities capabilities() const = 0;

  /// Execute `inputs` through `design`, writing one logits tensor per input.
  /// Called from this backend's execution resource (see dispatch()). Throws
  /// on failure; the whole batch shares the verdict.
  virtual void run_batch(DeployedDesign& design,
                         std::span<const tensor::Tensor* const> inputs,
                         std::span<tensor::Tensor> outputs) = 0;

  /// Hand `task` to this backend's execution resource, maintaining the
  /// queued/inflight gauges that readyz and the metrics read. Throws
  /// (std::runtime_error) after the backend's resource has shut down.
  void dispatch(std::function<void()> task);

  /// Claim an idle slot of this backend's execution resource so the calling
  /// thread can run one batch itself. The batch counts in inflight(), as a
  /// dispatched one does while it executes, until end_inline(); the slot
  /// goes back to the resource when the returned Slot is destroyed. Empty
  /// when no slot is idle, and always for a backend whose batches must run
  /// on its own resource (the accelerator's driver thread). Never blocks.
  Executor::Slot begin_inline();
  /// The batch of a successful begin_inline() has finished executing.
  void end_inline() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  /// Batches handed to dispatch() that have not started executing.
  std::size_t queued() const { return queued_.load(std::memory_order_relaxed); }
  /// Batches currently executing, dispatched or inline.
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }
  /// Work competing for this backend's slots (queued + executing). CpuBackend
  /// widens this to the shared executor's whole backlog: foreign tasks on the
  /// pool delay our batches just the same.
  virtual std::size_t pending() const { return queued() + inflight(); }

  /// Stop accepting dispatches and drain what was accepted. Idempotent.
  virtual void shutdown() {}

 protected:
  InferenceBackend() = default;

  /// Enqueue on the backend's execution resource (shared pool / driver
  /// thread).
  virtual void do_submit(std::function<void()> task) = 0;

  /// Claim an idle slot of the execution resource for a batch the caller
  /// runs on its own thread; empty when none is idle. The default never
  /// claims: only CpuBackend, whose slots are the shared worker pool's,
  /// runs batches inline.
  virtual Executor::Slot try_claim_slot() { return {}; }

 private:
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> inflight_{0};
};

/// Functional reference execution shared by both backends: the simulated
/// fabric computes the same function as the host engine (the generated IP is
/// bit-exact with the reference network — the paper's central claim), so both
/// backends produce identical logits and differ only in timing and
/// concurrency. Float designs run the fused infer_batch path
/// (bit-identical to per-image infer by the kernel chunk-invariance
/// contract); fixed designs run per-image forward_fixed through the same
/// leased context.
void run_reference_batch(DeployedDesign& design,
                         std::span<const tensor::Tensor* const> inputs,
                         std::span<tensor::Tensor> outputs);

}  // namespace cnn2fpga::serve
