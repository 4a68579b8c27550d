// The host engine as an InferenceBackend.
//
// Wraps the SIMD ExecutionContextPool / infer_batch path (the "ARM core" side
// of the paper's Tables I/II comparison) behind the backend interface.
// Batches execute on the serving runtime's shared worker pool; the backend
// does not own that pool, so its shutdown() is a no-op and the runtime keeps
// owning the executor lifecycle. It is the one backend that runs batches
// inline: begin_inline() takes an idle slot of that pool, so a batch the
// submitting thread computes itself counts against the same worker_threads
// bound as one a worker runs.
//
// Cost signal: the first measurement of a design's real per-image execution
// time seeds an EWMA stored on the design (BackendServeState); until then the
// estimate assumes parity with the generated hardware's single-image latency
// (invocation_seconds(1)) so a cold design's placement is decided by queue
// pressure rather than a fictitious speed advantage for either engine.
#pragma once

#include "serve/backend/backend.hpp"
#include "serve/executor.hpp"

namespace cnn2fpga::serve {

class CpuBackend final : public InferenceBackend {
 public:
  /// `executor` is the runtime's shared worker pool and must outlive the
  /// backend; the backend never shuts it down.
  explicit CpuBackend(Executor& executor) : executor_(executor) {}

  BackendId id() const override { return BackendId::kCpu; }
  BackendCapabilities capabilities() const override;

  double estimate_batch_seconds(const DeployedDesign& design,
                                std::size_t images) const override;

  /// Times the reference execution and feeds the design's measured per-image
  /// EWMA, so estimates track the engine this host actually has.
  void run_batch(DeployedDesign& design, std::span<const tensor::Tensor* const> inputs,
                 std::span<tensor::Tensor> outputs) override;

  void warm(DeployedDesign& design) const override;

  /// Widened to the shared executor's whole backlog: foreign tasks on the
  /// pool delay our batches just the same, and the placer should see that.
  std::size_t pending() const override;

 protected:
  void do_submit(std::function<void()> task) override { executor_.submit(std::move(task)); }
  Executor::Slot try_claim_slot() override { return executor_.try_claim(); }

 private:
  Executor& executor_;
};

}  // namespace cnn2fpga::serve
