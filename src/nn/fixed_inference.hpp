// Fixed-point inference over a float-trained network.
//
// Executes the network's feed-forward pass in Q(m,n) integer arithmetic:
// weights, biases and activations are quantized, multiply-accumulates run in
// a 64-bit accumulator at 2*frac_bits scale and are renormalized with
// round-half-up + saturation after each dot product — precisely the
// arithmetic the code generator's fixed mode emits, so the two agree
// bit-for-bit (tested in test_fixed.cpp).
//
// Transcendental stages (tanh/sigmoid, the trailing LogSoftMax) dequantize,
// evaluate in float and (for mid-network activations) requantize, mirroring
// the LUT-backed float cores the generated design would instantiate.
#pragma once

#include <vector>

#include "nn/execution.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"  // Sample

namespace cnn2fpga::nn {

struct FixedForwardResult {
  Tensor scores;              ///< final (float) log-probabilities
  std::size_t predicted = 0;
  /// Largest |float - fixed| discrepancy of the network's scores *before*
  /// LogSoftMax (a quantization-quality signal); 0 unless tracked.
  float output_error = 0.0f;
  /// The class the float network predicts for the same input (scalar
  /// engine, bit-exact with forward); 0 unless tracked.
  std::size_t reference_predicted = 0;
};

/// Run one image through the network in fixed-point arithmetic. Convenience
/// wrapper that builds a fresh ExecutionContext per call (re-quantizing the
/// parameters); hot paths should hold a context and use the overload below.
FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format);

/// Reentrant fixed-point inference through a caller-owned context: quantized
/// weights/biases are cached in `ctx` (keyed by `format`) and the int32
/// activation buffers are reused, so repeated calls do no steady-state heap
/// work. Bit-identical to the wrapper above. `track_output_error` additionally
/// runs the float network once on the scalar engine, up to its LogSoftMax
/// (through `ctx` when it is a scalar float context, else a temporary one), to
/// fill FixedForwardResult::output_error and reference_predicted; pass false
/// on serving hot paths. The cached parameters assume frozen weights — use a
/// fresh context after mutating them.
FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format, ExecutionContext& ctx,
                                 bool track_output_error = true);

/// Misclassification rate of the fixed-point execution over a sample set.
float evaluate_error_fixed(const Network& net, const std::vector<Sample>& samples,
                           const FixedPointFormat& format);

}  // namespace cnn2fpga::nn
