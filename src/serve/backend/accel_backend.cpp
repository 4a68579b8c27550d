#include "serve/backend/accel_backend.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace cnn2fpga::serve {

AcceleratorBackend::AcceleratorBackend(Options options)
    : options_(options), driver_(1) {}

AcceleratorBackend::~AcceleratorBackend() { shutdown(); }

BackendCapabilities AcceleratorBackend::capabilities() const {
  BackendCapabilities caps;
  caps.concurrency = 1;  // one physical IP core
  caps.eager_partial_flush = false;  // DMA round trip wants full batches
  return caps;
}

void AcceleratorBackend::run_batch(DeployedDesign& design,
                                   std::span<const tensor::Tensor* const> inputs,
                                   std::span<tensor::Tensor> outputs) {
  // Serial-invocation contract: invocation_seconds models one physical IP
  // core, so overlapping invocations would make the timing model meaningless.
  // Dispatches queue on the single driver thread; an overlap here means a
  // caller bypassed dispatch(), which is a programming error worth failing
  // loudly on.
  const std::size_t depth = active_invocations_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::size_t seen = max_concurrency_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_concurrency_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
  if (depth != 1) {
    active_invocations_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::logic_error(
        "AcceleratorBackend: concurrent invocation of the single IP core "
        "(callers must serialize through dispatch())");
  }
  try {
    run_reference_batch(design, inputs, outputs);
  } catch (...) {
    active_invocations_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
  const double seconds = design.invocation_seconds(inputs.size());
  virtual_clock_us_.fetch_add(static_cast<std::uint64_t>(seconds * 1e6),
                              std::memory_order_relaxed);
  invocations_.fetch_add(1, std::memory_order_relaxed);
  if (options_.sleep_for_model && seconds > 0.0) {
    // The fabric is busy for the modeled duration: occupy the driver thread
    // for it so queueing behind the accelerator behaves like real hardware.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  active_invocations_.fetch_sub(1, std::memory_order_acq_rel);
}

void AcceleratorBackend::shutdown() { driver_.shutdown(); }

}  // namespace cnn2fpga::serve
