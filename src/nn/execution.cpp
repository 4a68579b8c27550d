#include "nn/execution.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace cnn2fpga::nn {

using cnn2fpga::util::format;

namespace {

void check_call(const Network& net, const ExecutionContext& ctx, const Tensor* input,
                const char* who) {
  if (&ctx.network() != &net) {
    throw std::invalid_argument(format("%s: context was built for a different network", who));
  }
  if (input == nullptr || input->shape() != net.input_shape()) {
    throw std::invalid_argument(format("%s: expected input %s, got %s", who,
                                       net.input_shape().to_string().c_str(),
                                       input == nullptr ? "null"
                                                        : input->shape().to_string().c_str()));
  }
}

}  // namespace

ExecutionContext::ExecutionContext(const Network& net)
    : ExecutionContext(net, kernels::active(), nullptr) {}

ExecutionContext::ExecutionContext(const Network& net, kernels::Kind kind,
                                   std::shared_ptr<kernels::PackCache> packs)
    : ExecutionContext(net, kind, std::move(packs), ServePrecision::kFloat32, nullptr) {}

ExecutionContext::ExecutionContext(const Network& net, kernels::Kind kind,
                                   std::shared_ptr<kernels::PackCache> packs,
                                   ServePrecision precision,
                                   std::shared_ptr<kernels::QuantPackCache> qpacks)
    : net_(&net),
      kernel_(kind),
      precision_(precision),
      output_(net.output_shape()),
      packs_(std::move(packs)),
      qpacks_(std::move(qpacks)) {
  if (kernel_ == kernels::Kind::kAvx2 && !kernels::avx2_available()) {
    throw std::runtime_error("ExecutionContext: AVX2 engine requested but unavailable");
  }
  const std::size_t count = net.layer_count();
  if (precision_ == ServePrecision::kFloat32) {
    if (packs_ == nullptr) packs_ = std::make_shared<kernels::PackCache>(count);
  } else {
    qformat_ = serve_precision_format(precision_);
    if (qpacks_ == nullptr) {
      qpacks_ = std::make_shared<kernels::QuantPackCache>(count, precision_);
    } else if (qpacks_->precision() != precision_) {
      throw std::invalid_argument(
          "ExecutionContext: shared QuantPackCache precision mismatch");
    }
  }
  max_image_elems_ = net.input_shape().elements();
  std::size_t l = 0;
  while (l < count) {
    Step step;
    step.layer = &net.layer(l);
    step.layer_index = l;
    step.in_shape = l == 0 ? net.input_shape() : net.shape_after(l - 1);
    step.out_shape = net.shape_after(l);
    if (dynamic_cast<const Conv2D*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kConv;
    } else if (dynamic_cast<const Linear*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kLinear;
    } else if (dynamic_cast<const Pool2D*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kPool;
    } else if (dynamic_cast<const Activation*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kActivation;
    } else if (dynamic_cast<const LogSoftMax*>(step.layer) != nullptr) {
      step.kind = Step::Kind::kLogSoftMax;
    } else {
      // Network's builder only adds the five kinds above.
      throw std::logic_error("ExecutionContext: unknown layer kind " + step.layer->kind());
    }
    ++l;
    // Fuse a directly following Activation into its producer: the activation
    // is applied elementwise to each finished accumulator, so fusion skips a
    // buffer round trip without touching the arithmetic.
    if ((step.kind == Step::Kind::kConv || step.kind == Step::Kind::kLinear) && l < count) {
      if (const auto* act = dynamic_cast<const Activation*>(&net.layer(l))) {
        step.fused = act;
        step.out_shape = net.shape_after(l);
        ++l;
      }
    }
    max_image_elems_ = std::max(max_image_elems_, step.out_shape.elements());
    steps_.push_back(step);
  }
}

const Tensor& Network::infer(const Tensor& input, ExecutionContext& ctx) const {
  check_call(*this, ctx, &input, "Network::infer");
  const Tensor* in = &input;
  float* row = ctx.output_.data();
  run_plan(&in, 1, ctx, &row, ctx.steps().size());
  return ctx.output_;
}

Tensor Network::infer_logits(const Tensor& input, ExecutionContext& ctx) const {
  check_call(*this, ctx, &input, "Network::infer_logits");
  const std::vector<ExecutionContext::Step>& steps = ctx.steps();
  std::size_t stop = 0;
  while (stop < steps.size() && steps[stop].kind != ExecutionContext::Step::Kind::kLogSoftMax) {
    ++stop;
  }
  Tensor logits(stop == 0 ? input_shape_ : steps[stop - 1].out_shape);
  const Tensor* in = &input;
  float* row = logits.data();
  run_plan(&in, 1, ctx, &row, stop);
  return logits;
}

void Network::infer_batch(std::span<const Tensor* const> inputs, std::span<Tensor> outputs,
                          ExecutionContext& ctx) const {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("Network::infer_batch: inputs/outputs size mismatch");
  }
  if (inputs.empty()) return;
  for (const Tensor* input : inputs) check_call(*this, ctx, input, "Network::infer_batch");
  const Shape& out_shape = output_shape();
  std::vector<float*> out_rows(inputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].shape() != out_shape) outputs[i] = Tensor(out_shape);
    out_rows[i] = outputs[i].data();
  }
  run_plan(inputs.data(), inputs.size(), ctx, out_rows.data(), ctx.steps().size());
}

std::vector<Tensor> Network::infer_batch(const std::vector<Tensor>& inputs,
                                         ExecutionContext& ctx) const {
  std::vector<Tensor> outputs(inputs.size());
  std::vector<const Tensor*> ptrs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ptrs[i] = &inputs[i];
  infer_batch(std::span<const Tensor* const>(ptrs), std::span<Tensor>(outputs), ctx);
  return outputs;
}

std::size_t Network::predict(const Tensor& input) const {
  ExecutionContext ctx(*this);
  return infer(input, ctx).argmax();
}

}  // namespace cnn2fpga::nn
