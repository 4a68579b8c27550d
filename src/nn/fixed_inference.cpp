#include "nn/fixed_inference.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "nn/execution.hpp"

namespace cnn2fpga::nn {

namespace {

using Raw = std::int32_t;

std::vector<Raw> quantize_tensor(const Tensor& t, const FixedPointFormat& format) {
  std::vector<Raw> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = fixed_quantize(t[i], format);
  return out;
}

void run_conv(const Conv2D& conv, const std::vector<Raw>& w, const std::vector<Raw>& b,
              const std::vector<Raw>& x, const Shape& in_shape, const Shape& out_shape,
              const FixedPointFormat& format, std::vector<Raw>& out) {
  const std::size_t C = conv.in_channels(), KH = conv.kernel_h(), KW = conv.kernel_w();
  const std::size_t IH = in_shape.height(), IW = in_shape.width();
  const std::size_t OH = out_shape.height(), OW = out_shape.width();

  out.resize(out_shape.elements());
  for (std::size_t k = 0; k < conv.out_channels(); ++k) {
    for (std::size_t i = 0; i < OH; ++i) {
      for (std::size_t j = 0; j < OW; ++j) {
        // Bias is frac-scaled; products are 2*frac-scaled: align the bias up.
        std::int64_t acc = static_cast<std::int64_t>(b[k]) << format.frac_bits;
        for (std::size_t c = 0; c < C; ++c) {
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              const std::int64_t wv = w[((k * C + c) * KH + m) * KW + n];
              const std::int64_t xv = x[(c * IH + (i + m)) * IW + (j + n)];
              acc += wv * xv;
            }
          }
        }
        out[(k * OH + i) * OW + j] = fixed_renormalize(acc, format);
      }
    }
  }
}

void run_pool(const Pool2D& pool, const std::vector<Raw>& x, const Shape& in_shape,
              const Shape& out_shape, const FixedPointFormat& format, std::vector<Raw>& out) {
  const std::size_t C = out_shape.channels(), OH = out_shape.height(), OW = out_shape.width();
  const std::size_t IH = in_shape.height(), IW = in_shape.width();
  const std::size_t KH = pool.kernel_h(), KW = pool.kernel_w(), S = pool.step();

  out.resize(out_shape.elements());
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t i = 0; i < OH; ++i) {
      for (std::size_t j = 0; j < OW; ++j) {
        if (pool.pool_kind() == PoolKind::kMax) {
          Raw best = x[(c * IH + i * S) * IW + j * S];
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              best = std::max(best, x[(c * IH + (i * S + m)) * IW + (j * S + n)]);
            }
          }
          out[(c * OH + i) * OW + j] = best;
        } else {
          std::int64_t acc = 0;
          for (std::size_t m = 0; m < KH; ++m) {
            for (std::size_t n = 0; n < KW; ++n) {
              acc += x[(c * IH + (i * S + m)) * IW + (j * S + n)];
            }
          }
          // Symmetric round-half-away integer mean; the generated fixed C++
          // emits this exact expression so both sides agree bit-for-bit.
          const std::int64_t window = static_cast<std::int64_t>(KH * KW);
          const std::int64_t mean = acc >= 0 ? (acc + window / 2) / window
                                             : -((-acc + window / 2) / window);
          out[(c * OH + i) * OW + j] = fixed_saturate(mean, format);
        }
      }
    }
  }
}

void run_linear(const Linear& linear, const std::vector<Raw>& w, const std::vector<Raw>& b,
                const std::vector<Raw>& x, const FixedPointFormat& format,
                std::vector<Raw>& out) {
  const std::size_t I = linear.in_features(), J = linear.out_features();

  out.resize(J);
  for (std::size_t j = 0; j < J; ++j) {
    std::int64_t acc = static_cast<std::int64_t>(b[j]) << format.frac_bits;
    for (std::size_t i = 0; i < I; ++i) {
      acc += static_cast<std::int64_t>(w[j * I + i]) * static_cast<std::int64_t>(x[i]);
    }
    out[j] = fixed_renormalize(acc, format);
  }
}

void run_activation(const Activation& act, const std::vector<Raw>& x,
                    const FixedPointFormat& format, std::vector<Raw>& out) {
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (act.act() == ActKind::kReLU) {
      out[i] = x[i] > 0 ? x[i] : 0;  // exact in fixed point
    } else {
      const float y = Activation::apply(act.act(), fixed_dequantize(x[i], format));
      out[i] = fixed_quantize(y, format);
    }
  }
}

}  // namespace

std::vector<FixedForwardResult> forward_fixed(const Network& net,
                                              std::span<const Tensor* const> inputs,
                                              const FixedPointFormat& format,
                                              bool track_output_error) {
  format.validate();
  for (const Tensor* input : inputs) {
    if (input->shape() != net.input_shape()) {
      throw std::invalid_argument("forward_fixed: input shape mismatch");
    }
  }
  // Every conv/linear layer's parameters, quantized once for all inputs.
  std::vector<std::vector<Raw>> weights(net.layer_count()), biases(net.layer_count());
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const Layer& layer = net.layer(l);
    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      weights[l] = quantize_tensor(conv->weights(), format);
      biases[l] = quantize_tensor(conv->bias(), format);
    } else if (const auto* linear = dynamic_cast<const Linear*>(&layer)) {
      weights[l] = quantize_tensor(linear->weights(), format);
      biases[l] = quantize_tensor(linear->bias(), format);
    }
  }
  // The error signal's float reference: the scalar engine, bit-exact with forward.
  std::optional<ExecutionContext> scalar;
  if (track_output_error) scalar.emplace(net, kernels::Kind::kScalar, nullptr);

  std::vector<Raw> ping, pong;  // activation buffers, reused across inputs
  std::vector<FixedForwardResult> results(inputs.size());
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    const Tensor& input = *inputs[n];
    std::vector<Raw>* acts = &ping;
    std::vector<Raw>* next = &pong;
    acts->resize(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) (*acts)[i] = fixed_quantize(input[i], format);
    Shape shape = net.input_shape();

    bool normalize = false;
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      const Layer& layer = net.layer(l);
      const Shape& out_shape = net.shape_after(l);
      if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
        run_conv(*conv, weights[l], biases[l], *acts, shape, out_shape, format, *next);
      } else if (const auto* pool = dynamic_cast<const Pool2D*>(&layer)) {
        run_pool(*pool, *acts, shape, out_shape, format, *next);
      } else if (const auto* linear = dynamic_cast<const Linear*>(&layer)) {
        run_linear(*linear, weights[l], biases[l], *acts, format, *next);
      } else if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
        run_activation(*act, *acts, format, *next);
      } else if (dynamic_cast<const LogSoftMax*>(&layer) != nullptr) {
        // The output normalizer runs in float on the dequantized logits,
        // exactly as the generated fixed design does.
        normalize = true;
        break;
      }
      std::swap(acts, next);
      shape = out_shape;
    }

    FixedForwardResult& result = results[n];
    result.scores = Tensor(Shape{acts->size()});
    for (std::size_t i = 0; i < acts->size(); ++i) {
      result.scores[i] = fixed_dequantize((*acts)[i], format);
    }
    if (scalar) {
      // Quantization-quality signal: the same point of the network in float.
      Tensor reference = net.infer_logits(input, *scalar);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        result.output_error =
            std::max(result.output_error, std::fabs(reference[i] - result.scores[i]));
      }
      if (normalize) {
        kernels::logsoftmax_scalar(reference.data(), reference.data(), reference.size());
      }
      result.reference_predicted = reference.argmax();
    }
    if (normalize) {
      kernels::logsoftmax_scalar(result.scores.data(), result.scores.data(),
                                 result.scores.size());
    }
    result.predicted = result.scores.argmax();
  }
  return results;
}

FixedForwardResult forward_fixed(const Network& net, const Tensor& input,
                                 const FixedPointFormat& format, bool track_output_error) {
  const Tensor* one = &input;
  return std::move(forward_fixed(net, std::span(&one, 1), format, track_output_error)[0]);
}

float evaluate_error_fixed(const Network& net, const std::vector<Sample>& samples,
                           const FixedPointFormat& format) {
  if (samples.empty()) return 1.0f;
  std::vector<const Tensor*> images;
  for (const Sample& sample : samples) images.push_back(&sample.image);
  const std::vector<FixedForwardResult> out =
      forward_fixed(net, images, format, /*track_output_error=*/false);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (out[i].predicted != samples[i].label) ++wrong;
  }
  return static_cast<float>(wrong) / static_cast<float>(samples.size());
}

}  // namespace cnn2fpga::nn
