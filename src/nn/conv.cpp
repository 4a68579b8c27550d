#include "nn/conv.hpp"

#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_h,
               std::size_t kernel_w)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      weights_(Shape{out_channels, in_channels, kernel_h, kernel_w}),
      bias_(Shape{out_channels}),
      weights_grad_(Shape{out_channels, in_channels, kernel_h, kernel_w}),
      bias_grad_(Shape{out_channels}) {
  if (in_channels == 0 || out_channels == 0 || kernel_h == 0 || kernel_w == 0) {
    throw std::invalid_argument("Conv2D: all dimensions must be positive");
  }
}

void Conv2D::init_weights(util::Rng& rng) {
  const float fan_in = static_cast<float>(in_channels_ * kernel_h_ * kernel_w_);
  const float s = 1.0f / std::sqrt(fan_in);
  weights_.fill_uniform(rng, -s, s);
  bias_.fill_uniform(rng, -s, s);
}

std::string Conv2D::describe() const {
  return format("conv %zux%zux%zux%zu (out=%zu kernels of %zux%zu over %zu input maps)",
                out_channels_, in_channels_, kernel_h_, kernel_w_, out_channels_, kernel_h_,
                kernel_w_, in_channels_);
}

void Conv2D::check_input(const Shape& input) const {
  if (input.rank() != 3) {
    throw std::invalid_argument(
        format("Conv2D: expected CHW input, got rank-%zu %s", input.rank(),
               input.to_string().c_str()));
  }
  if (input.channels() != in_channels_) {
    throw std::invalid_argument(format("Conv2D: expected %zu input channels, got %zu",
                                       in_channels_, input.channels()));
  }
  if (input.height() < kernel_h_ || input.width() < kernel_w_) {
    throw std::invalid_argument(format("Conv2D: kernel %zux%zu larger than input %zux%zu",
                                       kernel_h_, kernel_w_, input.height(), input.width()));
  }
}

Shape Conv2D::output_shape(const Shape& input) const {
  check_input(input);
  // Eq. 2 / Eq. 3: new = old - kernel + 1.
  return Shape{out_channels_, input.height() - kernel_h_ + 1, input.width() - kernel_w_ + 1};
}

Tensor Conv2D::forward(const Tensor& input, bool train) {
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  const std::size_t oh = out_shape.height(), ow = out_shape.width();
  const std::size_t ih = input.shape().height(), iw = input.shape().width();

  const float* x = input.data();
  const float* w = weights_.data();
  float* o = out.data();

  for (std::size_t k = 0; k < out_channels_; ++k) {
    const float bk = bias_[k];
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float acc = bk;
        for (std::size_t c = 0; c < in_channels_; ++c) {
          const float* xc = x + c * ih * iw;
          const float* wc = w + (k * in_channels_ + c) * kernel_h_ * kernel_w_;
          for (std::size_t m = 0; m < kernel_h_; ++m) {
            for (std::size_t n = 0; n < kernel_w_; ++n) {
              acc += wc[m * kernel_w_ + n] * xc[(i + m) * iw + (j + n)];
            }
          }
        }
        o[(k * oh + i) * ow + j] = acc;
      }
    }
  }

  if (train) cached_input_ = input;
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("Conv2D::backward before forward(train=true)");
  const Tensor& x = cached_input_;
  const Shape out_shape = output_shape(x.shape());
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument(format("Conv2D::backward: grad shape %s != output shape %s",
                                       grad_output.shape().to_string().c_str(),
                                       out_shape.to_string().c_str()));
  }

  const std::size_t oh = out_shape.height(), ow = out_shape.width();
  const std::size_t ih = x.shape().height(), iw = x.shape().width();
  Tensor grad_input(x.shape());

  for (std::size_t k = 0; k < out_channels_; ++k) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float g = grad_output.data()[(k * oh + i) * ow + j];
        bias_grad_[k] += g;
        for (std::size_t c = 0; c < in_channels_; ++c) {
          const std::size_t wbase = (k * in_channels_ + c) * kernel_h_ * kernel_w_;
          const std::size_t xbase = c * ih * iw;
          for (std::size_t m = 0; m < kernel_h_; ++m) {
            for (std::size_t n = 0; n < kernel_w_; ++n) {
              const std::size_t xidx = xbase + (i + m) * iw + (j + n);
              weights_grad_[wbase + m * kernel_w_ + n] += g * x[xidx];
              grad_input[xidx] += g * weights_[wbase + m * kernel_w_ + n];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<Param> Conv2D::params() {
  return {{&weights_, &weights_grad_, "weights"}, {&bias_, &bias_grad_, "bias"}};
}

std::size_t Conv2D::mac_count(const Shape& input) const {
  const Shape out = output_shape(input);
  return out.elements() * in_channels_ * kernel_h_ * kernel_w_;
}

}  // namespace cnn2fpga::nn
