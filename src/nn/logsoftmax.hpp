// LogSoftMax output layer (paper Sec. III-C, Eq. 7) plus the negative
// log-likelihood loss used for training.
//
// The paper's generated function appends a LogSoftMax block "by default at the
// end of the function ... to normalize the outputs" and then returns the
// argmax class index. We compute log-probabilities with the standard
// max-subtraction trick; the code generator emits the exact same sequence so
// that reference and generated designs agree bit-for-bit.
#pragma once

#include "nn/layer.hpp"

namespace cnn2fpga::nn {

class LogSoftMax final : public Layer {
 public:
  LogSoftMax() = default;

  std::string kind() const override { return "logsoftmax"; }
  std::string describe() const override { return "logsoftmax"; }
  Shape output_shape(const Shape& input) const override { return input; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// exp per element plus the reduction; charged as one MAC-equivalent each
  /// (the cost models additionally weight exp by its operator latency).
  std::size_t mac_count(const Shape& input) const override { return 2 * input.elements(); }

 private:
  Tensor cached_output_;
};

/// NLL loss on log-probabilities: loss = -logp[target].
float nll_loss(const Tensor& log_probs, std::size_t target);

/// Gradient of the NLL loss w.r.t. the log-probabilities:
/// dL/dlogp[j] = softmax[j] - 1{j == target} ... expressed for the
/// LogSoftMax::backward contract as dL/dlogp (simply -1 at target), letting
/// the layer combine it with its own Jacobian.
Tensor nll_loss_grad(const Tensor& log_probs, std::size_t target);

}  // namespace cnn2fpga::nn
