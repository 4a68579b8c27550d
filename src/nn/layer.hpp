// Layer interface of the reference CNN library.
//
// This library serves three roles in the reproduction:
//   1. the *software implementation* the paper benchmarks against (Table I),
//   2. the golden functional model the generated HLS C++ is verified against
//      (the paper's "hardware implementation is as accurate as software one"),
//   3. the trainer that produces the weight files the framework takes as input
//      (the paper trains with Torch; Sec. IV requires an offline-trained net).
//
// Feature maps are CHW float32 tensors. forward() is the seed reference path:
// with `train = true` it caches what backward() needs, with `train = false` it
// skips the cache. Reentrant inference does not go through this interface:
// the plan executor (nn/execution.hpp) reads each layer's geometry and
// parameters and runs its own kernels, whose scalar engine is bit-identical
// to forward().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace cnn2fpga::nn {

using tensor::Shape;
using tensor::Tensor;

/// A learnable parameter: value plus its accumulated gradient.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable kind tag, e.g. "conv", "maxpool", "linear", "tanh", "logsoftmax".
  virtual std::string kind() const = 0;

  /// Human-readable one-line description (used by Fig. 1 structure traces).
  virtual std::string describe() const = 0;

  /// Output shape for a given input shape; throws std::invalid_argument if
  /// the input is incompatible (e.g. kernel larger than the feature map).
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Forward pass. When `train` is true the layer caches whatever it needs
  /// for a subsequent backward() call.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backward pass: gradient w.r.t. the cached input; accumulates parameter
  /// gradients. Must be preceded by forward(..., true).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for pooling/activations).
  virtual std::vector<Param> params() { return {}; }

  void zero_grad() {
    for (Param& p : params()) {
      if (p.grad != nullptr) p.grad->fill(0.0f);
    }
  }

  /// Number of multiply-accumulate operations per forward pass for an input
  /// of the given shape (consumed by the A9 and HLS cost models).
  virtual std::size_t mac_count(const Shape& input) const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cnn2fpga::nn
