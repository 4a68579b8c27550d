// Element-wise non-linearities (paper Sec. III-A: "this operation is performed
// by the Rectified Linear Unit (ReLU) layers and it can be implemented with
// different kinds of functions like the hyperbolic tangent or the sigmoid").
//
// The framework's GUI exposes tanh as the optional non-linearity on linear
// layers; relu and sigmoid are provided as well.
#pragma once

#include "nn/layer.hpp"

namespace cnn2fpga::nn {

enum class ActKind { kTanh, kSigmoid, kReLU };

class Activation final : public Layer {
 public:
  explicit Activation(ActKind act);

  std::string kind() const override;
  std::string describe() const override { return kind(); }
  Shape output_shape(const Shape& input) const override { return input; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t mac_count(const Shape& input) const override { return input.elements(); }

  ActKind act() const { return act_; }

  /// Scalar application (shared with the functional model of generated code).
  static float apply(ActKind act, float x);
  /// Derivative expressed in terms of the *output* y = apply(act, x)
  /// (tanh' = 1 - y^2, sigmoid' = y(1-y)); ReLU uses the cached input sign.
  static float derivative_from_output(ActKind act, float y);

 private:
  ActKind act_;
  Tensor cached_output_;
  Tensor cached_input_;  // needed for ReLU derivative at 0 boundary
};

}  // namespace cnn2fpga::nn
