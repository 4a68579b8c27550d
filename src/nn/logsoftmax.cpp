#include "nn/logsoftmax.hpp"

#include <cmath>
#include <stdexcept>

namespace cnn2fpga::nn {

Tensor LogSoftMax::forward(const Tensor& input, bool train) {
  if (input.empty()) throw std::invalid_argument("LogSoftMax: empty input");
  Tensor out(input.shape());

  // logp[j] = (x[j] - max) - log(sum_k exp(x[k] - max))
  float max_val = input[0];
  for (std::size_t i = 1; i < input.size(); ++i) max_val = std::max(max_val, input[i]);
  float sum = 0.0f;
  for (std::size_t i = 0; i < input.size(); ++i) sum += std::exp(input[i] - max_val);
  const float log_sum = std::log(sum);
  for (std::size_t i = 0; i < input.size(); ++i) out[i] = (input[i] - max_val) - log_sum;

  if (train) cached_output_ = out;
  return out;
}

Tensor LogSoftMax::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) {
    throw std::logic_error("LogSoftMax::backward before forward(train=true)");
  }
  if (grad_output.shape() != cached_output_.shape()) {
    throw std::invalid_argument("LogSoftMax::backward: gradient shape mismatch");
  }
  // d logp_i / d x_j = delta_ij - softmax_j  =>
  // grad_x[j] = grad_out[j] - softmax[j] * sum_i grad_out[i]
  float grad_sum = 0.0f;
  for (std::size_t i = 0; i < grad_output.size(); ++i) grad_sum += grad_output[i];
  Tensor grad_input(cached_output_.shape());
  for (std::size_t j = 0; j < grad_input.size(); ++j) {
    const float softmax_j = std::exp(cached_output_[j]);
    grad_input[j] = grad_output[j] - softmax_j * grad_sum;
  }
  return grad_input;
}

float nll_loss(const Tensor& log_probs, std::size_t target) {
  if (target >= log_probs.size()) throw std::out_of_range("nll_loss: target out of range");
  return -log_probs[target];
}

Tensor nll_loss_grad(const Tensor& log_probs, std::size_t target) {
  if (target >= log_probs.size()) throw std::out_of_range("nll_loss_grad: target out of range");
  Tensor grad(log_probs.shape());
  grad[target] = -1.0f;
  return grad;
}

}  // namespace cnn2fpga::nn
