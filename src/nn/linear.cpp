#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weights_grad_(Shape{out_features, in_features}),
      bias_grad_(Shape{out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Linear: feature counts must be positive");
  }
}

void Linear::init_weights(util::Rng& rng) {
  const float s = 1.0f / std::sqrt(static_cast<float>(in_features_));
  weights_.fill_uniform(rng, -s, s);
  bias_.fill_uniform(rng, -s, s);
}

std::string Linear::describe() const {
  return format("linear %zu -> %zu neurons", in_features_, out_features_);
}

Shape Linear::output_shape(const Shape& input) const {
  if (input.elements() != in_features_) {
    throw std::invalid_argument(format("Linear: expected %zu inputs, got %s (%zu elements)",
                                       in_features_, input.to_string().c_str(),
                                       input.elements()));
  }
  return Shape{out_features_};
}

Tensor Linear::forward(const Tensor& input, bool train) {
  (void)output_shape(input.shape());  // validates
  Tensor out(Shape{out_features_});
  for (std::size_t j = 0; j < out_features_; ++j) {
    float acc = bias_[j];
    const float* wj = weights_.data() + j * in_features_;
    for (std::size_t i = 0; i < in_features_; ++i) acc += wj[i] * input[i];
    out[j] = acc;
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("Linear::backward before forward(train=true)");
  if (grad_output.shape().elements() != out_features_) {
    throw std::invalid_argument("Linear::backward: gradient size mismatch");
  }
  Tensor grad_input(cached_input_.shape());
  for (std::size_t j = 0; j < out_features_; ++j) {
    const float g = grad_output[j];
    bias_grad_[j] += g;
    float* wgj = weights_grad_.data() + j * in_features_;
    const float* wj = weights_.data() + j * in_features_;
    for (std::size_t i = 0; i < in_features_; ++i) {
      wgj[i] += g * cached_input_[i];
      grad_input[i] += g * wj[i];
    }
  }
  return grad_input;
}

std::vector<Param> Linear::params() {
  return {{&weights_, &weights_grad_, "weights"}, {&bias_, &bias_grad_, "bias"}};
}

std::size_t Linear::mac_count(const Shape& input) const {
  (void)input;
  return in_features_ * out_features_;
}

}  // namespace cnn2fpga::nn
