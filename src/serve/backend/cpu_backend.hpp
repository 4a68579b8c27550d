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

  void run_batch(DeployedDesign& design, std::span<const tensor::Tensor* const> inputs,
                 std::span<tensor::Tensor> outputs) override {
    run_reference_batch(design, inputs, outputs);
  }

  /// Widened to the shared executor's whole backlog: foreign tasks on the
  /// pool delay our batches just the same, and readyz should see that.
  std::size_t pending() const override;

 protected:
  void do_submit(std::function<void()> task) override { executor_.submit(std::move(task)); }
  Executor::Slot try_claim_slot() override { return executor_.try_claim(); }

 private:
  Executor& executor_;
};

}  // namespace cnn2fpga::serve
