#include "serve/backend/cpu_backend.hpp"

#include <chrono>

namespace cnn2fpga::serve {

BackendCapabilities CpuBackend::capabilities() const {
  BackendCapabilities caps;
  caps.concurrency = executor_.thread_count();
  return caps;
}

double CpuBackend::estimate_batch_seconds(const DeployedDesign& design,
                                          std::size_t images) const {
  const EwmaSeconds& measured =
      design.backend_state(BackendId::kCpu).measured_seconds_per_image;
  // Cold prior: assume per-image parity with the generated hardware so the
  // first placement is decided by queue depths, not a made-up speed gap. One
  // executed batch replaces the prior with a real measurement. Linear scaling
  // slightly over-estimates fused batches (weights stream once per batch, not
  // once per image) — a conservative bound is fine for placement.
  const double per_image =
      measured.has_samples() ? measured.value() : design.invocation_seconds(1);
  return per_image * static_cast<double>(images);
}

void CpuBackend::run_batch(DeployedDesign& design,
                           std::span<const tensor::Tensor* const> inputs,
                           std::span<tensor::Tensor> outputs) {
  const auto start = std::chrono::steady_clock::now();
  run_reference_batch(design, inputs, outputs);
  if (!inputs.empty()) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    design.backend_state(BackendId::kCpu)
        .measured_seconds_per_image.observe(seconds / static_cast<double>(inputs.size()));
  }
}

void CpuBackend::warm(DeployedDesign& design) const {
  // Build the pool's shared weight-pack cache so no request-path context ever
  // packs a panel (no-op on scalar hosts, idempotent otherwise).
  design.contexts.warm();
  design.backend_state(BackendId::kCpu).warmed.store(true, std::memory_order_relaxed);
}

std::size_t CpuBackend::pending() const {
  const std::size_t own = queued() + inflight();
  const std::size_t backlog = executor_.backlog();
  return backlog > own ? backlog : own;
}

}  // namespace cnn2fpga::serve
