// Sequential CNN container: the in-memory form of the network the framework's
// descriptor describes (Fig. 1 structure: conv/pool stages followed by an MLP
// and a LogSoftMax output).
//
// Two ways to run it: forward() walks the layers themselves (the mutable seed
// path, used for training and as the reference every engine is checked
// against), and infer()/infer_batch() run the compiled plan of an
// ExecutionContext through one plan executor for every kernel engine and
// serving precision (nn/execution.hpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/logsoftmax.hpp"
#include "nn/pool.hpp"

namespace cnn2fpga::nn {

class ExecutionContext;  // nn/execution.hpp

class Network {
 public:
  /// A network for CHW inputs of the given shape.
  explicit Network(Shape input_shape, std::string name = "cnn");

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }

  /// Builder API. Each call validates shape compatibility eagerly so a broken
  /// architecture fails at construction, not at the first forward pass.
  Conv2D& add_conv(std::size_t out_channels, std::size_t kernel_h, std::size_t kernel_w);
  Pool2D& add_max_pool(std::size_t kernel, std::size_t step);
  Pool2D& add_mean_pool(std::size_t kernel, std::size_t step);
  Linear& add_linear(std::size_t out_features);
  Activation& add_activation(ActKind act);
  LogSoftMax& add_logsoftmax();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Shape flowing out of layer i (and into layer i+1).
  const Shape& shape_after(std::size_t i) const { return shapes_.at(i + 1); }
  /// Final output shape.
  const Shape& output_shape() const { return shapes_.back(); }

  /// Full forward pass (mutable seed path). Training must pass train=true —
  /// preferably via TrainContext (nn/execution.hpp) so the mutation is
  /// explicit; inference-only callers should migrate to infer().
  Tensor forward(const Tensor& input, bool train = false);

  /// Reentrant inference through a caller-owned ExecutionContext
  /// (nn/execution.hpp): const, no per-call heap traffic. Scalar-pinned
  /// float contexts are bit-identical to forward(input, false); avx2-pinned
  /// ones run the SIMD kernel engine (within 1e-4 relative of scalar,
  /// identical argmax — see nn/kernels/kernels.hpp); quantized contexts run
  /// int16/int8 fixed point. Same result as infer_batch with a batch of one.
  /// Returns the context-owned output tensor, valid until the next infer()
  /// through `ctx`. Distinct contexts may run concurrently over one network.
  const Tensor& infer(const Tensor& input, ExecutionContext& ctx) const;

  /// The plan run through `ctx` up to, not including, its first LogSoftMax
  /// (the whole plan if there is none): the scores the output normalizer
  /// would see. forward_fixed measures its quantization error against these.
  Tensor infer_logits(const Tensor& input, ExecutionContext& ctx) const;

  /// Batch inference: the whole micro-batch runs through ONE im2col + GEMM
  /// per conv layer (weights stream from cache once per layer, not once per
  /// image) and one kernel call per linear layer, bit-identical to per-image
  /// infer() through the same context in every engine and precision.
  /// `outputs[i]` is assigned the result for `inputs[i]`; the spans must be
  /// the same length.
  void infer_batch(std::span<const Tensor* const> inputs, std::span<Tensor> outputs,
                   ExecutionContext& ctx) const;

  /// Convenience wrapper over the span overload.
  std::vector<Tensor> infer_batch(const std::vector<Tensor>& inputs,
                                  ExecutionContext& ctx) const;

  /// Inference + argmax: the class index the generated hardware returns.
  std::size_t predict(const Tensor& input) const;

  /// Backward from the output gradient; requires forward(..., true) first.
  void backward(const Tensor& grad_output);

  /// All learnable parameters across layers (named layer<i>.<param>).
  std::vector<Param> params();
  void zero_grad();

  /// Total parameter scalars (weights + biases).
  std::size_t parameter_count() const;

  /// Total multiply-accumulates for one forward pass.
  std::size_t total_macs() const;

  /// Initialize all conv/linear weights (LeCun uniform) from one RNG.
  void init_weights(util::Rng& rng);

  /// Multi-line structure trace (layer kind, config, output shape) — the
  /// textual equivalent of the paper's Fig. 1.
  std::string structure() const;

 private:
  template <typename L>
  L& add_layer(std::unique_ptr<L> layer);

  /// The plan executor (nn/execution_plan.cpp): runs the first `stop` steps
  /// of ctx's plan over `count` images in the context's engine and precision
  /// and writes each image's resulting activations, as float, to
  /// `out_rows[i]`.
  void run_plan(const Tensor* const* inputs, std::size_t count, ExecutionContext& ctx,
                float* const* out_rows, std::size_t stop) const;

  std::string name_;
  Shape input_shape_;
  std::vector<LayerPtr> layers_;
  std::vector<Shape> shapes_;  // shapes_[0] = input, shapes_[i+1] = after layer i
};

/// The four case-study networks of the paper's evaluation (Sec. V).
/// Weight values are *not* initialized; train or load them.
Network make_test1_network();  // USPS: conv 6x5x5 + maxpool 2x2 + linear 10 (Tests 1 & 2)
Network make_test3_network();  // USPS: + conv 16x5x5 -> 2x2 maps, linear 10
Network make_test4_network();  // CIFAR-10: conv12/pool/conv36/pool/linear36/linear10

}  // namespace cnn2fpga::nn
