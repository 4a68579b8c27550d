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
//
// This is the reference model, not a serving path. Served fixed-point
// designs run the integer engine (int16 computes Q8.8, int8 Q4.4; see
// kernels_int.hpp), which the registry checks against this model at deploy;
// axi::CnnIpCore runs it as the function of a generated fixed-point design.
#pragma once

#include <span>
#include <vector>

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

/// Run `inputs` through the network in fixed-point arithmetic, one result
/// per image. The parameters are quantized once per call, so a call over N
/// images is bit-identical to N single-image calls and cheaper. Reentrant:
/// every call owns its state, so concurrent calls over one network are safe.
/// `track_output_error` additionally runs the float network on the scalar
/// engine (bit-exact with forward), up to its LogSoftMax, to fill
/// FixedForwardResult::output_error and reference_predicted; without it no
/// float inference runs.
std::vector<FixedForwardResult> forward_fixed(const Network& net,
                                              std::span<const Tensor* const> inputs,
                                              const FixedPointFormat& format,
                                              bool track_output_error = true);

/// One image: forward_fixed over a span of one.
FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format,
                                 bool track_output_error = true);

/// Misclassification rate of the fixed-point execution over a sample set.
float evaluate_error_fixed(const Network& net, const std::vector<Sample>& samples,
                           const FixedPointFormat& format);

}  // namespace cnn2fpga::nn
