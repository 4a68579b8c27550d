// Valid 2-D convolution layer (paper Eq. 1-3).
//
// Each of the `out_channels` kernels spans all input channels:
//   o[k,i,j] = b[k] + sum_c sum_m sum_n w[k,c,m,n] * x[c,i+m,j+n]
// and shrinks the feature map: out = in - kernel + 1 (Eq. 2/3).
//
// The accumulation order (c, then m, then n) is fixed and mirrored exactly by
// the code generator so reference and generated outputs match bit-for-bit.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace cnn2fpga::nn {

class Conv2D final : public Layer {
 public:
  /// Weights initialized to zero; call init_weights or load them.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_h,
         std::size_t kernel_w);

  /// LeCun-style uniform init: U(-s, s) with s = 1/sqrt(fan_in).
  void init_weights(util::Rng& rng);

  std::string kind() const override { return "conv"; }
  std::string describe() const override;
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::size_t mac_count(const Shape& input) const override;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel_h() const { return kernel_h_; }
  std::size_t kernel_w() const { return kernel_w_; }

  /// Weights shape: (out_channels, in_channels, kernel_h, kernel_w).
  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  /// Bias shape: (out_channels).
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

 private:
  void check_input(const Shape& input) const;

  std::size_t in_channels_, out_channels_, kernel_h_, kernel_w_;
  Tensor weights_, bias_;
  Tensor weights_grad_, bias_grad_;
  Tensor cached_input_;
};

}  // namespace cnn2fpga::nn
