// Fully-connected (perceptron) layer (paper Sec. III-C, Eq. 6):
//   o[j] = b[j] + sum_i w[j,i] * x[i]
// The layer accepts any input shape and treats it as a flat vector, exactly
// as the generated HLS code reads the previous layer's CHW buffer linearly.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace cnn2fpga::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  /// LeCun-style uniform init: U(-s, s) with s = 1/sqrt(fan_in).
  void init_weights(util::Rng& rng);

  std::string kind() const override { return "linear"; }
  std::string describe() const override;
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::size_t mac_count(const Shape& input) const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  /// Weights shape: (out_features, in_features).
  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

 private:
  std::size_t in_features_, out_features_;
  Tensor weights_, bias_;
  Tensor weights_grad_, bias_grad_;
  Tensor cached_input_;
};

}  // namespace cnn2fpga::nn
