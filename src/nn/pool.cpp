#include "nn/pool.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

Pool2D::Pool2D(PoolKind pool_kind, std::size_t kernel_h, std::size_t kernel_w, std::size_t step)
    : pool_kind_(pool_kind), kernel_h_(kernel_h), kernel_w_(kernel_w), step_(step) {
  if (kernel_h == 0 || kernel_w == 0 || step == 0) {
    throw std::invalid_argument("Pool2D: kernel and step must be positive");
  }
}

std::string Pool2D::describe() const {
  return format("%s %zux%zu stride %zu", kind().c_str(), kernel_h_, kernel_w_, step_);
}

Shape Pool2D::output_shape(const Shape& input) const {
  if (input.rank() != 3) {
    throw std::invalid_argument(format("Pool2D: expected CHW input, got %s",
                                       input.to_string().c_str()));
  }
  if (input.height() < kernel_h_ || input.width() < kernel_w_) {
    throw std::invalid_argument(format("Pool2D: window %zux%zu larger than input %zux%zu",
                                       kernel_h_, kernel_w_, input.height(), input.width()));
  }
  // Eq. 4 / Eq. 5: new = floor((old - kernel) / step) + 1.
  return Shape{input.channels(), (input.height() - kernel_h_) / step_ + 1,
               (input.width() - kernel_w_) / step_ + 1};
}

Tensor Pool2D::forward(const Tensor& input, bool train) {
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  const std::size_t channels = input.shape().channels();
  const std::size_t ih = input.shape().height(), iw = input.shape().width();
  const std::size_t oh = out_shape.height(), ow = out_shape.width();

  if (train) {
    cached_input_shape_ = input.shape();
    argmax_.assign(out_shape.elements(), 0);
  }

  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t base_i = i * step_, base_j = j * step_;
        const std::size_t out_idx = (c * oh + i) * ow + j;
        if (pool_kind_ == PoolKind::kMax) {
          std::size_t best_idx = (c * ih + base_i) * iw + base_j;
          float best = input[best_idx];
          for (std::size_t m = 0; m < kernel_h_; ++m) {
            for (std::size_t n = 0; n < kernel_w_; ++n) {
              const std::size_t idx = (c * ih + base_i + m) * iw + (base_j + n);
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          out[out_idx] = best;
          if (train) argmax_[out_idx] = best_idx;
        } else {
          float acc = 0.0f;
          for (std::size_t m = 0; m < kernel_h_; ++m) {
            for (std::size_t n = 0; n < kernel_w_; ++n) {
              acc += input[(c * ih + base_i + m) * iw + (base_j + n)];
            }
          }
          out[out_idx] = acc / static_cast<float>(kernel_h_ * kernel_w_);
        }
      }
    }
  }
  return out;
}

Tensor Pool2D::backward(const Tensor& grad_output) {
  if (cached_input_shape_.rank() == 0) {
    throw std::logic_error("Pool2D::backward before forward(train=true)");
  }
  const Shape out_shape = output_shape(cached_input_shape_);
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument("Pool2D::backward: gradient shape mismatch");
  }

  Tensor grad_input(cached_input_shape_);
  const std::size_t channels = cached_input_shape_.channels();
  const std::size_t ih = cached_input_shape_.height(), iw = cached_input_shape_.width();
  const std::size_t oh = out_shape.height(), ow = out_shape.width();

  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t out_idx = (c * oh + i) * ow + j;
        const float g = grad_output[out_idx];
        if (pool_kind_ == PoolKind::kMax) {
          grad_input[argmax_[out_idx]] += g;
        } else {
          const float share = g / static_cast<float>(kernel_h_ * kernel_w_);
          for (std::size_t m = 0; m < kernel_h_; ++m) {
            for (std::size_t n = 0; n < kernel_w_; ++n) {
              grad_input[(c * ih + i * step_ + m) * iw + (j * step_ + n)] += share;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::size_t Pool2D::mac_count(const Shape& input) const {
  // Pooling performs comparisons/adds, not MACs; the cost models charge one
  // window-element operation per output element.
  return output_shape(input).elements() * kernel_h_ * kernel_w_;
}

}  // namespace cnn2fpga::nn
