// The simulated FPGA fabric as an InferenceBackend.
//
// The generated IP is bit-exact with the reference network (the paper's
// central claim), so the accelerator's *functional* result comes from the
// same reentrant engine as the CPU path — both backends return identical
// logits, and the choice of engine can never change a prediction. What
// differs is timing and concurrency:
//
//   timing       every invocation costs DeployedDesign::invocation_seconds
//                (HLS latency + axi driver overhead + initiation-interval
//                pipelining for batches). In real serving the driver thread
//                sleeps for the modeled duration (sleep_for_model); tests
//                disable the sleep and read the virtual clock instead, which
//                advances by the model either way.
//   concurrency  ONE. The model describes one physical IP core; the backend
//                owns a single driver thread (its own Executor(1)), so
//                concurrent dispatches queue, and run_batch() asserts the
//                serial-invocation contract by throwing std::logic_error if
//                two invocations ever overlap.
//
// Only a runtime that serves on the fabric builds this backend, so only that
// runtime runs the driver thread.
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/backend/backend.hpp"
#include "serve/executor.hpp"

namespace cnn2fpga::serve {

struct AcceleratorOptions {
  /// Wall-clock the modeled invocation latency on the driver thread. True
  /// in real serving (the fabric really is busy for that long); false under
  /// test, where only the virtual clock advances.
  bool sleep_for_model = true;
};

class AcceleratorBackend final : public InferenceBackend {
 public:
  using Options = AcceleratorOptions;

  explicit AcceleratorBackend(Options options = {});
  ~AcceleratorBackend() override;

  BackendId id() const override { return BackendId::kAccelerator; }
  BackendCapabilities capabilities() const override;

  /// Functional result via the reference engine, then the modeled invocation:
  /// virtual clock advances by invocation_seconds(images); with
  /// sleep_for_model the driver thread also sleeps for it. Throws
  /// std::logic_error if a second invocation overlaps this one (the
  /// single-IP-core contract of DeployedDesign::invocation_seconds).
  void run_batch(DeployedDesign& design, std::span<const tensor::Tensor* const> inputs,
                 std::span<tensor::Tensor> outputs) override;

  /// Joins the driver thread after draining queued invocations. Idempotent.
  void shutdown() override;

  /// Modeled fabric-busy time accumulated across all invocations.
  std::uint64_t virtual_clock_us() const {
    return virtual_clock_us_.load(std::memory_order_relaxed);
  }
  /// Completed invocations.
  std::uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }
  /// Highest number of simultaneously active run_batch() calls ever observed;
  /// must stay 1 (asserted by tests — concurrent dispatches queue on the
  /// driver thread instead of interleaving on the modeled core).
  std::size_t max_observed_concurrency() const {
    return max_concurrency_.load(std::memory_order_relaxed);
  }

 protected:
  void do_submit(std::function<void()> task) override { driver_.submit(std::move(task)); }

 private:
  const Options options_;
  Executor driver_;  ///< the one "DMA driver" thread — serializes invocations
  std::atomic<std::uint64_t> virtual_clock_us_{0};
  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::size_t> active_invocations_{0};
  std::atomic<std::size_t> max_concurrency_{0};
};

}  // namespace cnn2fpga::serve
