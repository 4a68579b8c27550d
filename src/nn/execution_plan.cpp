// The plan executor: one walker for every kernel engine x precision pair.
//
// One invocation runs a whole micro-batch through the context's plan. A conv
// step is one blocked pack + GEMM over the batch's im2col matrix
// (kernels::conv_step and its integer twins): each kConvBlockCols-column
// block is packed into an L1-sized arena and multiplied at once, and each
// conv layer's weight panels stream from cache once per block, whichever
// images the block holds. A pool step is one vector pass over all the
// batch's planes. Linear steps make one kernel call per batch: quantized
// ones pack the rows for one GEMM, float ones stream the weights against
// each image row.
// Activations between steps live in the context's ping/pong buffers in one of
// two layouts, tracked per step:
//
//   kInterleaved — channel-major: channel c of image b occupies columns
//                  [b*pixels, (b+1)*pixels) of row c in a (C x B*pixels)
//                  buffer. This is exactly what a batched conv GEMM produces
//                  when image b's im2col patches sit at packed columns
//                  b*pixels..; pooling preserves it (its planes are
//                  consecutive in either layout), and a following conv
//                  consumes it directly with channel stride B*pixels — no
//                  reshuffling between conv/pool/conv chains.
//   kImageMajor  — image b's flat activations at [b*elems, (b+1)*elems);
//                  how inputs are loaded, what linear layers read and write,
//                  and what log-softmax and the final store read.
//
// The walker is written once against an *arithmetic*: the value type kept
// between steps plus the kernels that load, convolve, multiply, pool and
// activate it. FloatArith runs float32 on either engine, and its linear steps
// stream the weight panels against the image rows in place;
// QuantArith<int16_t> and QuantArith<int8_t> run the raw fixed-point values
// of kernels_int.hpp (Q8.8 / Q4.4) with the fixed-point renormalize +
// saturate in the GEMM epilogue. Loading quantizes the float inputs and
// storing dequantizes the scores, and a trailing LogSoftMax always runs the
// seed float loop on the stored scores, exactly as forward_fixed does, so
// quantized scores agree with the fixed-point model bit-for-bit (int8 modulo
// the weight clamp).
//
// Numerical contract: every output element is produced by the same
// per-element operation sequence whatever the batch size (see kernels.hpp and
// kernels_int.hpp), so a batch of N is bit-identical to N batches of one —
// asserted in tests/test_kernels.cpp.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "nn/execution.hpp"

namespace cnn2fpga::nn {

namespace {

namespace ker = kernels;
using Step = ExecutionContext::Step;

enum class Domain { kInterleaved, kImageMajor };

/// The GEMM behind a conv/linear step: M x K weights with bias, producing
/// `cols` output columns per image.
struct Gemm {
  const float* w;
  const float* bias;
  std::size_t m, k, cols;
};

Gemm gemm_of(const Step& step) {
  if (step.kind == Step::Kind::kConv) {
    const auto* conv = static_cast<const Conv2D*>(step.layer);
    return {conv->weights().data(), conv->bias().data(), conv->out_channels(),
            conv->in_channels() * conv->kernel_h() * conv->kernel_w(),
            step.out_shape.height() * step.out_shape.width()};
  }
  const auto* lin = static_cast<const Linear*>(step.layer);
  return {lin->weights().data(), lin->bias().data(), lin->out_features(),
          lin->in_features(), 1};
}

const Activation* activation_of(const Step& step) {
  return step.kind == Step::Kind::kActivation ? static_cast<const Activation*>(step.layer)
                                              : step.fused;
}

/// float32 on either engine: the scalar kernels keep forward()'s operation
/// sequence per element, the AVX2 ones are chunk-invariant (kernels.hpp).
struct FloatArith {
  using Raw = float;
  using Pack = float;
  /// Linear steps read the image rows in place (linear()), not packed-B.
  static constexpr bool kPacksLinear = false;
  static std::size_t packed_b_size(std::size_t n, std::size_t k) {
    return ker::packed_b_size(n, k);
  }
  static std::size_t conv_block_size(std::size_t k) { return ker::conv_block_size(k); }

  bool avx2;
  ker::PackCache& packs;

  void load(const float* in, std::size_t n, Raw* out) const {
    std::memcpy(out, in, n * sizeof(float));
  }
  void store(const Raw* in, std::size_t n, float* out) const {
    std::memcpy(out, in, n * sizeof(float));
  }
  const ker::PackedA& weights(std::size_t layer, const Gemm& g) const {
    return packs.get(layer, g.w, g.m, g.k);
  }
  void conv(std::size_t layer, const Gemm& g, int act, const Raw* in, std::size_t image_stride,
            std::size_t count, const ker::ConvShape& s, Pack* block, Raw* c) const {
    ker::conv_step(avx2 ? ker::Kind::kAvx2 : ker::Kind::kScalar, weights(layer, g), g.bias,
                   act, in, image_stride, count, s, block, c);
  }
  /// Linear step over `count` image-major rows, without packing them.
  void linear(std::size_t layer, const Gemm& g, const Raw* in, std::size_t count, int act,
              Raw* out) const {
    if (avx2) {
      ker::linear(weights(layer, g), in, count, g.bias, act, out);
    } else {
      ker::linear_scalar(weights(layer, g), in, count, g.bias, act, out);
    }
  }
  void pool(bool is_max, const Raw* in, const ker::PoolShape& s, Raw* out) const {
    if (avx2) {
      ker::pool_layer(is_max, in, s, out);
      return;
    }
    for (std::size_t p = 0; p < s.planes; ++p) {
      ker::pool_plane_scalar(is_max, in + p * s.ih * s.iw, s.ih, s.iw, s.kh, s.kw, s.step,
                             s.oh, s.ow, out + p * s.oh * s.ow);
    }
  }
  const Raw* lut(ActKind) const { return nullptr; }  // float needs no tables
  void activation(ActKind act, Raw* x, std::size_t n) const {
    if (avx2) {
      ker::activation_apply(act, x, x, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) x[i] = Activation::apply(act, x[i]);
    }
  }
  void logsoftmax(float* row, std::size_t n) const {
    if (avx2) {
      ker::logsoftmax(row, row, n);
    } else {
      ker::logsoftmax_scalar(row, row, n);
    }
  }
};

/// Fixed-point raw values (int8 at Q4.4, int16 at Q8.8) on either engine;
/// the engines differ only inside the GEMM and are bit-identical.
template <typename R>
struct QuantArith {
  static constexpr bool k8 = std::is_same_v<R, std::int8_t>;
  using Raw = R;
  /// int8 panels hold u8 (maddubs wants the unsigned-offset operand).
  using Pack = std::conditional_t<k8, std::uint8_t, std::int16_t>;
  static constexpr bool kPacksLinear = true;
  static std::size_t packed_b_size(std::size_t n, std::size_t k) {
    return k8 ? ker::packed_b_size_s8(n, k) : ker::packed_b_size_s16(n, k);
  }
  static std::size_t conv_block_size(std::size_t k) {
    return k8 ? ker::conv_block_size_s8(k) : ker::conv_block_size_s16(k);
  }

  ker::Kind kind;
  ker::QuantPackCache& packs;
  const FixedPointFormat& fmt;

  void load(const float* in, std::size_t n, Raw* out) const {
    if constexpr (k8) {
      ker::quantize_input_s8(in, n, fmt, out);
    } else {
      ker::quantize_input_s16(in, n, fmt, out);
    }
  }
  void store(const Raw* in, std::size_t n, float* out) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = fixed_dequantize(in[i], fmt);
  }
  void pack_rows(const void* const* rows, std::size_t n, std::size_t k, Pack* bpack) const {
    if constexpr (k8) {
      ker::pack_b_s8(rows, n, k, bpack);
    } else {
      ker::pack_b_s16(rows, n, k, bpack);
    }
  }
  const auto& weights(std::size_t layer, const Gemm& g) const {
    if constexpr (k8) {
      return packs.get8(layer, g.w, g.bias, g.m, g.k);
    } else {
      return packs.get16(layer, g.w, g.bias, g.m, g.k);
    }
  }
  // Only ReLU fuses into the integer epilogue; tanh/sigmoid go through the
  // activation table afterwards.
  static int fused_act(int act) { return act == static_cast<int>(ActKind::kReLU) ? act : -1; }
  void lut_act(int act, Raw* c, std::size_t n) const {
    if (act >= 0 && fused_act(act) < 0) activation(static_cast<ActKind>(act), c, n);
  }
  void conv(std::size_t layer, const Gemm& g, int act, const Raw* in, std::size_t image_stride,
            std::size_t count, const ker::ConvShape& s, Pack* block, Raw* c) const {
    if constexpr (k8) {
      ker::conv_step_s8(kind, weights(layer, g), fmt, fused_act(act), in, image_stride, count,
                        s, block, c);
    } else {
      ker::conv_step_s16(kind, weights(layer, g), fmt, fused_act(act), in, image_stride, count,
                         s, block, c);
    }
    lut_act(act, c, g.m * count * s.cols());
  }
  void gemm(std::size_t layer, const Gemm& g, const Pack* bpack, std::size_t n, int act,
            Raw* c) const {
    if constexpr (k8) {
      ker::gemm_s8(kind, weights(layer, g), bpack, n, fmt, fused_act(act), c, n);
    } else {
      ker::gemm_s16(kind, weights(layer, g), bpack, n, fmt, fused_act(act), c, n);
    }
    lut_act(act, c, g.m * n);
  }
  void pool(bool is_max, const Raw* in, const ker::PoolShape& s, Raw* out) const {
    if constexpr (k8) {
      ker::pool_layer_s8(is_max, in, s, out, fmt);
    } else {
      ker::pool_layer_s16(is_max, in, s, out, fmt);
    }
  }
  const Raw* lut(ActKind act) const {
    if (act == ActKind::kReLU) return nullptr;
    if constexpr (k8) {
      return packs.lut8(act);
    } else {
      return packs.lut16(act);
    }
  }
  void activation(ActKind act, Raw* x, std::size_t n) const {
    if constexpr (k8) {
      ker::activation_lut_s8(act, lut(act), x, x, n);
    } else {
      ker::activation_lut_s16(act, lut(act), x, x, n);
    }
  }
  void logsoftmax(float* row, std::size_t n) const { ker::logsoftmax_scalar(row, row, n); }
};

/// Runs steps [0, stop) over `count` images and stores each image's last
/// activations, as float, to out_rows[b].
template <typename A>
void run_steps(const Step* steps, std::size_t stop, const Shape& input_shape,
               const Tensor* const* inputs, std::size_t count, const A& ar,
               typename A::Pack* bpack, typename A::Raw* ping, typename A::Raw* pong,
               const void** rows, float* const* out_rows) {
  using Raw = typename A::Raw;
  const std::size_t in_elems = input_shape.elements();
  for (std::size_t b = 0; b < count; ++b) {
    ar.load(inputs[b]->data(), in_elems, ping + b * in_elems);
  }
  Raw* cur = ping;
  Domain domain = Domain::kImageMajor;

  // The buffer the next producing step should write to.
  const auto free_buf = [&]() { return cur == ping ? pong : ping; };

  // The distance between images and between one image's channel planes in
  // the current domain, for a conv's im2col.
  const auto plane_strides = [&](const Shape& in_shape) -> std::pair<std::size_t, std::size_t> {
    const std::size_t pixels = in_shape.height() * in_shape.width();
    if (domain == Domain::kInterleaved) return {pixels, count * pixels};
    return {in_shape.elements(), pixels};
  };

  // Materialize the current activations as kImageMajor (no-op if they are,
  // and for one image, whose two layouts coincide).
  const auto to_image_major = [&](const Shape& shape) {
    if (domain == Domain::kImageMajor || count == 1) {
      domain = Domain::kImageMajor;
      return;
    }
    const std::size_t elems = shape.elements();
    const std::size_t pixels = shape.height() * shape.width();
    Raw* dst = free_buf();
    for (std::size_t c = 0; c < shape.channels(); ++c) {
      const Raw* src_row = cur + c * count * pixels;
      for (std::size_t b = 0; b < count; ++b) {
        std::memcpy(dst + b * elems + c * pixels, src_row + b * pixels,
                    pixels * sizeof(Raw));
      }
    }
    cur = dst;
    domain = Domain::kImageMajor;
  };

  for (std::size_t s = 0; s < stop; ++s) {
    const Step& step = steps[s];
    const int act = step.fused != nullptr ? static_cast<int>(step.fused->act()) : -1;
    switch (step.kind) {
      case Step::Kind::kConv: {
        const auto* conv = static_cast<const Conv2D*>(step.layer);
        const auto [image_stride, c_stride] = plane_strides(step.in_shape);
        const ker::ConvShape shape{c_stride,
                                   conv->in_channels(),
                                   step.in_shape.height(),
                                   step.in_shape.width(),
                                   conv->kernel_h(),
                                   conv->kernel_w(),
                                   step.out_shape.height(),
                                   step.out_shape.width()};
        Raw* dst = free_buf();
        ar.conv(step.layer_index, gemm_of(step), act, cur, image_stride, count, shape, bpack,
                dst);
        cur = dst;
        domain = Domain::kInterleaved;
        break;
      }
      case Step::Kind::kPool: {
        // The planes are consecutive in either domain, and stay so.
        const auto* pool = static_cast<const Pool2D*>(step.layer);
        const ker::PoolShape shape{count * step.in_shape.channels(),
                                   step.in_shape.height(),
                                   step.in_shape.width(),
                                   pool->kernel_h(),
                                   pool->kernel_w(),
                                   pool->step(),
                                   step.out_shape.height(),
                                   step.out_shape.width()};
        Raw* dst = free_buf();
        ar.pool(pool->pool_kind() == PoolKind::kMax, cur, shape, dst);
        cur = dst;
        break;
      }
      case Step::Kind::kLinear: {
        const Gemm g = gemm_of(step);
        to_image_major(step.in_shape);
        Raw* dst = free_buf();
        if constexpr (!A::kPacksLinear) {
          ar.linear(step.layer_index, g, cur, count, act, dst);
        } else {
          for (std::size_t b = 0; b < count; ++b) rows[b] = cur + b * g.k;
          // No finish(): the integer panels' padding only meets zero weights
          // or dead columns.
          ar.pack_rows(rows, count, g.k, bpack);
          // The rows now live in the panels, so the GEMM's C[m][b] (ldc =
          // count) may overwrite `cur` before the transpose to image-major.
          ar.gemm(step.layer_index, g, bpack, count, act, cur);
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t j = 0; j < g.m; ++j) dst[b * g.m + j] = cur[j * count + b];
          }
        }
        cur = dst;
        break;
      }
      case Step::Kind::kActivation:
        // Elementwise: both domains hold the batch contiguously at cur, so
        // one pass covers everything and the domain is preserved.
        ar.activation(activation_of(step)->act(), cur, count * step.in_shape.elements());
        break;
      case Step::Kind::kLogSoftMax: {
        const std::size_t elems = step.in_shape.elements();
        to_image_major(step.in_shape);
        if (s + 1 == stop) {
          for (std::size_t b = 0; b < count; ++b) {
            ar.store(cur + b * elems, elems, out_rows[b]);
            ar.logsoftmax(out_rows[b], elems);
          }
          return;
        }
        if constexpr (std::is_same_v<Raw, float>) {
          for (std::size_t b = 0; b < count; ++b) ar.logsoftmax(cur + b * elems, elems);
        } else {
          throw std::logic_error("quantized plan: LogSoftMax must be the final step");
        }
        break;
      }
    }
  }

  const Shape& out_shape = steps[stop - 1].out_shape;
  const std::size_t out_elems = out_shape.elements();
  to_image_major(out_shape);
  for (std::size_t b = 0; b < count; ++b) {
    ar.store(cur + b * out_elems, out_elems, out_rows[b]);
  }
}

}  // namespace

template <typename Fn>
void ExecutionContext::with_arithmetic(Fn&& fn) {
  switch (precision_) {
    case ServePrecision::kInt8:
      fn(QuantArith<std::int8_t>{kernel_, *qpacks_, qformat_});
      return;
    case ServePrecision::kInt16:
      fn(QuantArith<std::int16_t>{kernel_, *qpacks_, qformat_});
      return;
    case ServePrecision::kFloat32:
      fn(FloatArith{kernel_ == kernels::Kind::kAvx2, *packs_});
      return;
  }
}

void ExecutionContext::ensure_batch(std::size_t batch, std::size_t elem,
                                    std::size_t (*conv_block_size)(std::size_t),
                                    std::size_t (*packed_b_size)(std::size_t, std::size_t),
                                    bool packs_linear) {
  if (batch <= batch_capacity_) return;
  std::size_t need_bpack = 0;
  for (const Step& step : steps_) {
    if (step.kind == Step::Kind::kConv) {
      need_bpack = std::max(need_bpack, conv_block_size(gemm_of(step).k));
    } else if (packs_linear && step.kind == Step::Kind::kLinear) {
      need_bpack = std::max(need_bpack, packed_b_size(batch, gemm_of(step).k));
    }
  }
  bpack_.resize(need_bpack * elem);
  ping_.resize(batch * max_image_elems_ * elem);
  pong_.resize(batch * max_image_elems_ * elem);
  if (packs_linear) rows_.resize(batch * sizeof(const void*));
  batch_capacity_ = batch;
}

void ExecutionContext::warm_packs() {
  with_arithmetic([&](const auto& ar) {
    for (const Step& step : steps_) {
      if (step.kind == Step::Kind::kConv || step.kind == Step::Kind::kLinear) {
        (void)ar.weights(step.layer_index, gemm_of(step));
      }
      if (const Activation* act = activation_of(step)) (void)ar.lut(act->act());
    }
  });
}

void Network::run_plan(const Tensor* const* inputs, std::size_t count, ExecutionContext& ctx,
                       float* const* out_rows, std::size_t stop) const {
  if (stop == 0) {
    const std::size_t elems = input_shape_.elements();
    for (std::size_t b = 0; b < count; ++b) {
      std::memcpy(out_rows[b], inputs[b]->data(), elems * sizeof(float));
    }
    return;
  }
  ctx.with_arithmetic([&](const auto& ar) {
    using A = std::decay_t<decltype(ar)>;
    using Raw = typename A::Raw;
    // The byte buffers hold this arithmetic's element type.
    ctx.ensure_batch(count, sizeof(Raw), &A::conv_block_size, &A::packed_b_size,
                     A::kPacksLinear);
    run_steps(ctx.steps_.data(), stop, input_shape_, inputs, count, ar,
              reinterpret_cast<typename A::Pack*>(ctx.bpack_.data()),
              reinterpret_cast<Raw*>(ctx.ping_.data()), reinterpret_cast<Raw*>(ctx.pong_.data()),
              reinterpret_cast<const void**>(ctx.rows_.data()), out_rows);
  });
}

}  // namespace cnn2fpga::nn
