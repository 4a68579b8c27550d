#include "serve/backend/backend.hpp"

#include <stdexcept>
#include <utility>

#include "nn/fixed_inference.hpp"

namespace cnn2fpga::serve {

void InferenceBackend::dispatch(std::function<void()> task) {
  queued_.fetch_add(1, std::memory_order_relaxed);
  try {
    do_submit([this, task = std::move(task)] {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      inflight_.fetch_add(1, std::memory_order_relaxed);
      try {
        task();
      } catch (...) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        throw;
      }
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    });
  } catch (...) {
    // The execution resource refused the task (shutdown / allocation): it was
    // never queued.
    queued_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

Executor::Slot InferenceBackend::begin_inline() {
  Executor::Slot slot = try_claim_slot();
  if (slot) inflight_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void run_reference_batch(DeployedDesign& design,
                         std::span<const tensor::Tensor* const> inputs,
                         std::span<tensor::Tensor> outputs) {
  if (inputs.size() != outputs.size()) {
    throw std::logic_error("run_reference_batch: inputs/outputs size mismatch");
  }
  if (inputs.empty()) return;
  auto ctx = design.contexts.acquire();
  const core::NetworkDescriptor& descriptor = design.descriptor();
  if (design.precision != nn::ServePrecision::kFloat32) {
    // Quantized serving: the pooled contexts carry the deployed precision, so
    // infer_batch runs the whole micro-batch through the int8/int16 fused
    // engine end to end and returns dequantized float scores (bit-identical
    // across batch sizes and engines — see kernels_int.hpp).
    design.net.infer_batch(inputs, outputs, *ctx);
  } else if (descriptor.precision.is_fixed) {
    // Fixed designs quantize per image through the context's cached Q(m,n)
    // parameters; the scores tensor already carries the final (float)
    // log-probabilities, so argmax over it equals FixedForwardResult::
    // predicted. A failure mid-batch fails the whole batch — same all-or-
    // nothing contract as the fused float path (inputs are shape-validated
    // at predict(), so a failure here is environmental).
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      outputs[i] = nn::forward_fixed(design.net, *inputs[i], descriptor.precision.fixed,
                                     *ctx, /*track_output_error=*/false)
                       .scores;
    }
  } else {
    // Float path: one fused inference for the whole batch — a single im2col +
    // GEMM per conv/linear layer, bit-identical to per-image infer() through
    // the same context (kernel chunk-invariance contract).
    design.net.infer_batch(inputs, outputs, *ctx);
  }
  design.served.fetch_add(inputs.size(), std::memory_order_relaxed);
}

}  // namespace cnn2fpga::serve
