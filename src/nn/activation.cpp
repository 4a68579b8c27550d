#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

namespace cnn2fpga::nn {

Activation::Activation(ActKind act) : act_(act) {}

std::string Activation::kind() const {
  switch (act_) {
    case ActKind::kTanh: return "tanh";
    case ActKind::kSigmoid: return "sigmoid";
    case ActKind::kReLU: return "relu";
  }
  return "?";
}

float Activation::apply(ActKind act, float x) {
  switch (act) {
    case ActKind::kTanh: return std::tanh(x);
    case ActKind::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case ActKind::kReLU: return x > 0.0f ? x : 0.0f;
  }
  return x;
}

float Activation::derivative_from_output(ActKind act, float y) {
  switch (act) {
    case ActKind::kTanh: return 1.0f - y * y;
    case ActKind::kSigmoid: return y * (1.0f - y);
    case ActKind::kReLU: return y > 0.0f ? 1.0f : 0.0f;
  }
  return 1.0f;
}

Tensor Activation::forward(const Tensor& input, bool train) {
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) out[i] = apply(act_, input[i]);
  if (train) {
    cached_output_ = out;
    cached_input_ = input;
  }
  return out;
}

Tensor Activation::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) {
    throw std::logic_error("Activation::backward before forward(train=true)");
  }
  if (grad_output.shape() != cached_output_.shape()) {
    throw std::invalid_argument("Activation::backward: gradient shape mismatch");
  }
  Tensor grad_input(cached_output_.shape());
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    grad_input[i] = grad_output[i] * derivative_from_output(act_, cached_output_[i]);
  }
  return grad_input;
}

}  // namespace cnn2fpga::nn
