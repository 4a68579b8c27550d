// Sub-sampling layers (paper Sec. III-B, Eq. 4-5).
//
// Max-pooling is what the framework's GUI offers per convolutional layer;
// mean-pooling is the paper's stated future-work extension and is provided
// here as well. The window slides with stride `step` (the paper's p_step),
// and the output dimensions follow Eq. 4/5:
//   new = floor((old - kernel) / step) + 1
#pragma once

#include "nn/layer.hpp"

namespace cnn2fpga::nn {

enum class PoolKind { kMax, kMean };

class Pool2D final : public Layer {
 public:
  Pool2D(PoolKind pool_kind, std::size_t kernel_h, std::size_t kernel_w, std::size_t step);

  /// Convenience: square kernel with stride equal to the kernel size
  /// (non-overlapping windows — the configuration used in all four tests).
  static Pool2D max_pool(std::size_t kernel) { return {PoolKind::kMax, kernel, kernel, kernel}; }
  static Pool2D mean_pool(std::size_t kernel) { return {PoolKind::kMean, kernel, kernel, kernel}; }

  std::string kind() const override { return pool_kind_ == PoolKind::kMax ? "maxpool" : "meanpool"; }
  std::string describe() const override;
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t mac_count(const Shape& input) const override;

  PoolKind pool_kind() const { return pool_kind_; }
  std::size_t kernel_h() const { return kernel_h_; }
  std::size_t kernel_w() const { return kernel_w_; }
  std::size_t step() const { return step_; }

 private:
  PoolKind pool_kind_;
  std::size_t kernel_h_, kernel_w_, step_;
  Shape cached_input_shape_;
  // For max-pool backward: flat input index of each window's winner.
  std::vector<std::size_t> argmax_;
};

}  // namespace cnn2fpga::nn
