// Portable half of the kernel engine: dispatch resolution, operand packing,
// the scalar engine's compute kernels and the shared weight-pack cache. The
// scalar kernels repeat forward()'s expressions, so this file must be built
// like Network::forward — without FP contraction (top-level CMakeLists.txt)
// and never with the flags of kernels_avx2.cpp. The AVX2 compute entry
// points (gemm, linear, pool_layer, activation_apply, logsoftmax; gemm's
// 512-bit instance and the AVX-512 conv packer are kernels_avx512.cpp) live
// in kernels_avx2.cpp, built with
// -mavx2 -mfma only when the toolchain supports it; without CNN2FPGA_HAVE_AVX2
// those symbols become throwing stubs here and active() resolves to kScalar.
#include "nn/kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cnn2fpga::nn::kernels {

namespace {

Kind resolve_default() {
  const char* env = std::getenv("CNN2FPGA_KERNEL");
  if (env != nullptr && *env != '\0') {
    const std::string want(env);
    if (want == "scalar") return Kind::kScalar;
    if (want == "avx2") {
      if (avx2_available()) return Kind::kAvx2;
      std::fprintf(stderr,
                   "cnn2fpga: CNN2FPGA_KERNEL=avx2 requested but AVX2+FMA is "
                   "unavailable on this host; falling back to scalar kernels\n");
      return Kind::kScalar;
    }
    std::fprintf(stderr, "cnn2fpga: unknown CNN2FPGA_KERNEL=%s (expected scalar|avx2); using auto detection\n",
                 env);
  }
  return avx2_available() ? Kind::kAvx2 : Kind::kScalar;
}

Kind& mutable_active() {
  static Kind kind = resolve_default();
  return kind;
}

FloatMicrokernel& mutable_float_microkernel() {
  static FloatMicrokernel mk = float_microkernel_available(FloatMicrokernel::kAvx512)
                                   ? FloatMicrokernel::kAvx512
                                   : FloatMicrokernel::kAvx2;
  return mk;
}

}  // namespace

Kind active() { return mutable_active(); }

bool avx2_available() {
#ifdef CNN2FPGA_HAVE_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kScalar: return "scalar";
    case Kind::kAvx2: return "avx2";
  }
  return "?";
}

ScopedKernelOverride::ScopedKernelOverride(Kind kind) : previous_(mutable_active()) {
  if (kind == Kind::kAvx2 && !avx2_available()) {
    throw std::runtime_error("ScopedKernelOverride: AVX2 engine unavailable on this host");
  }
  mutable_active() = kind;
}

ScopedKernelOverride::~ScopedKernelOverride() { mutable_active() = previous_; }

const char* float_microkernel_name(FloatMicrokernel mk) {
  return mk == FloatMicrokernel::kAvx512 ? "avx512" : "avx2";
}

bool float_microkernel_available(FloatMicrokernel mk) {
#ifdef CNN2FPGA_HAVE_AVX512
  if (mk == FloatMicrokernel::kAvx512) return avx2_available() && __builtin_cpu_supports("avx512f");
#endif
  return mk == FloatMicrokernel::kAvx2 && avx2_available();
}

FloatMicrokernel float_microkernel() { return mutable_float_microkernel(); }

ScopedFloatMicrokernel::ScopedFloatMicrokernel(FloatMicrokernel mk)
    : previous_(mutable_float_microkernel()) {
  if (!float_microkernel_available(mk)) {
    throw std::runtime_error(std::string("ScopedFloatMicrokernel: ") +
                             float_microkernel_name(mk) + " is unavailable on this host");
  }
  mutable_float_microkernel() = mk;
}

ScopedFloatMicrokernel::~ScopedFloatMicrokernel() { mutable_float_microkernel() = previous_; }

void pack_a(const float* w, std::size_t m, std::size_t k, PackedA& out) {
  const std::size_t panels = (m + kPanelRows - 1) / kPanelRows;
  out.rows = m;
  out.cols = k;
  out.data.assign(panels * k * kPanelRows, 0.0f);
  float* dst = out.data.data();
  for (std::size_t p = 0; p < panels; ++p) {
    float* panel = dst + p * k * kPanelRows;
    const std::size_t live = std::min(kPanelRows, m - p * kPanelRows);
    for (std::size_t r = 0; r < live; ++r) {
      const float* row = w + (p * kPanelRows + r) * k;
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelRows + r] = row[kk];
    }
  }
}

std::size_t packed_b_size(std::size_t n, std::size_t k) {
  return ((n + kPanelCols - 1) / kPanelCols) * k * kPanelCols;
}

void pack_b(const float* const* rows, std::size_t n, std::size_t k, float* bpack) {
  const std::size_t panels = (n + kPanelCols - 1) / kPanelCols;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bpack + q * k * kPanelCols;
    const std::size_t live = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t j = 0; j < live; ++j) {
      const float* src = rows[q * kPanelCols + j];
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelCols + j] = src[kk];
    }
    for (std::size_t j = live; j < kPanelCols; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kPanelCols + j] = 0.0f;
    }
  }
}

void zero_pack_tail(float* bpack, std::size_t n, std::size_t k) {
  const std::size_t panels = (n + kPanelCols - 1) / kPanelCols;
  if (panels == 0) return;
  const std::size_t live = n - (panels - 1) * kPanelCols;
  if (live == kPanelCols) return;
  float* panel = bpack + (panels - 1) * k * kPanelCols;
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = live; j < kPanelCols; ++j) panel[kk * kPanelCols + j] = 0.0f;
  }
}

void im2col_pack(const float* in, std::size_t c_stride, std::size_t channels,
                 std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                 std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                 std::size_t n_total) {
  (void)n_total;
  im2col_pack(in, ConvShape{c_stride, channels, ih, iw, kh, kw, oh, ow}, 0, oh * ow, bpack,
              col0);
}

void im2col_pack(const float* in, const ConvShape& s, std::size_t first, std::size_t last,
                 float* bpack, std::size_t col0) {
  if (float_microkernel_available(FloatMicrokernel::kAvx512) &&
      detail::im2col_pack_avx512(in, s, first, last, bpack, col0)) {
    return;
  }
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available()) {
    detail::im2col_pack_avx2(in, s, first, last, bpack, col0);
    return;
  }
#endif
  detail::im2col_pack_ref(in, s, first, last, bpack, col0);
}

void detail::im2col_pack_ref(const float* in, const ConvShape& s, std::size_t first,
                             std::size_t last, float* bpack, std::size_t col0) {
  // Depth index k = (c*kh + ky)*kw + kx is the (c, m, n) order in which
  // Conv2D::forward accumulates, so a packed GEMM against pack_a(weights)
  // computes the same dot products as the seed path.
  const std::size_t total_k = s.k();
  std::size_t k = 0;
  for (std::size_t c = 0; c < s.channels; ++c) {
    const float* xc = in + c * s.c_stride;
    for (std::size_t ky = 0; ky < s.kh; ++ky) {
      for (std::size_t kx = 0; kx < s.kw; ++kx, ++k) {
        // Walk the columns for this fixed depth index, one output row's run
        // at a time; source elements along x are contiguous, destination
        // advances one packed lane at a time (wrapping to the next panel
        // every 16 columns).
        std::size_t g = col0;  // packed column of image column i
        for (std::size_t i = first; i < last;) {
          const std::size_t y = i / s.ow, x0 = i % s.ow;
          const std::size_t run = std::min(s.ow - x0, last - i);
          const float* src = xc + (y + ky) * s.iw + kx + x0;
          std::size_t j = g % kPanelCols;
          float* panel = bpack + (g / kPanelCols) * total_k * kPanelCols + k * kPanelCols;
          for (std::size_t x = 0; x < run; ++x) {
            panel[j] = src[x];
            if (++j == kPanelCols) {
              j = 0;
              panel += total_k * kPanelCols;
            }
          }
          i += run;
          g += run;
        }
      }
    }
  }
}

std::size_t conv_block_size(std::size_t k) { return packed_b_size(kConvBlockCols, k); }

void conv_step(Kind kind, const PackedA& a, const float* bias, int act, const float* in,
               std::size_t image_stride, std::size_t count, const ConvShape& s,
               float* block, float* c) {
  const std::size_t n = count * s.cols();
  detail::for_each_conv_block(
      s.cols(), count,
      [&](std::size_t b, std::size_t first, std::size_t last, std::size_t col) {
        im2col_pack(in + b * image_stride, s, first, last, block, col);
      },
      [&](std::size_t col0, std::size_t width) {
        zero_pack_tail(block, width, a.cols);
        if (kind == Kind::kAvx2) {
          gemm(a, block, width, bias, act, c + col0, n);
        } else {
          gemm_scalar(a, block, width, bias, act, c + col0, n);
        }
      });
}

void gemm_scalar(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
                 int act, float* c, std::size_t ldc) {
  const std::size_t k = a.cols;
  for (std::size_t m = 0; m < a.rows; ++m) {
    const float* wm = a.data.data() + (m / kPanelRows) * k * kPanelRows + m % kPanelRows;
    for (std::size_t col = 0; col < n; ++col) {
      const float* xn = bpack + (col / kPanelCols) * k * kPanelCols + col % kPanelCols;
      float acc = bias != nullptr ? bias[m] : 0.0f;
      for (std::size_t q = 0; q < k; ++q) acc += wm[q * kPanelRows] * xn[q * kPanelCols];
      c[m * ldc + col] = act < 0 ? acc : Activation::apply(static_cast<ActKind>(act), acc);
    }
  }
}

void linear_scalar(const PackedA& a, const float* x, std::size_t batch, const float* bias,
                   int act, float* out) {
  const std::size_t m = a.rows;
  const std::size_t k = a.cols;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x + b * k;
    for (std::size_t row = 0; row < m; ++row) {
      const float* wm =
          a.data.data() + (row / kPanelRows) * k * kPanelRows + row % kPanelRows;
      float acc = bias != nullptr ? bias[row] : 0.0f;
      for (std::size_t q = 0; q < k; ++q) acc += wm[q * kPanelRows] * xb[q];
      out[b * m + row] = act < 0 ? acc : Activation::apply(static_cast<ActKind>(act), acc);
    }
  }
}

void pool_plane_scalar(bool is_max, const float* in, std::size_t ih, std::size_t iw,
                       std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                       std::size_t ow, float* out) {
  (void)ih;
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      const float* win = in + (i * step) * iw + j * step;
      if (is_max) {
        float best = win[0];
        for (std::size_t m = 0; m < kh; ++m) {
          for (std::size_t n = 0; n < kw; ++n) {
            if (win[m * iw + n] > best) best = win[m * iw + n];
          }
        }
        out[i * ow + j] = best;
      } else {
        float acc = 0.0f;
        for (std::size_t m = 0; m < kh; ++m) {
          for (std::size_t n = 0; n < kw; ++n) acc += win[m * iw + n];
        }
        out[i * ow + j] = acc / static_cast<float>(kh * kw);
      }
    }
  }
}

void logsoftmax_scalar(const float* in, float* out, std::size_t n) {
  float max_val = in[0];
  for (std::size_t i = 1; i < n; ++i) max_val = std::max(max_val, in[i]);
  float sum = 0.0f;
  for (std::size_t i = 0; i < n; ++i) sum += std::exp(in[i] - max_val);
  const float log_sum = std::log(sum);
  for (std::size_t i = 0; i < n; ++i) out[i] = (in[i] - max_val) - log_sum;
}

PackCache::PackCache(std::size_t layer_count) {
  entries_.reserve(layer_count);
  for (std::size_t i = 0; i < layer_count; ++i) entries_.push_back(std::make_unique<Entry>());
}

const PackedA& PackCache::get(std::size_t layer, const float* w, std::size_t m,
                              std::size_t k) {
  if (layer >= entries_.size()) throw std::out_of_range("PackCache::get: layer index");
  Entry& e = *entries_[layer];
  std::call_once(e.once, [&] { pack_a(w, m, k, e.pack); });
  return e.pack;
}

#ifndef CNN2FPGA_HAVE_AVX2
namespace {
[[noreturn]] void no_avx2() {
  throw std::runtime_error("cnn2fpga: AVX2 kernel invoked but engine not compiled in");
}
}  // namespace

void gemm(const PackedA&, const float*, std::size_t, const float*, int, float*, std::size_t) {
  no_avx2();
}
void linear(const PackedA&, const float*, std::size_t, const float*, int, float*) {
  no_avx2();
}
void pool_layer(bool, const float*, const PoolShape&, float*) { no_avx2(); }
void activation_apply(ActKind, const float*, float*, std::size_t) { no_avx2(); }
void logsoftmax(const float*, float*, std::size_t) { no_avx2(); }
#endif  // !CNN2FPGA_HAVE_AVX2

#ifndef CNN2FPGA_HAVE_AVX512
// Declines every geometry, so im2col_pack runs the AVX2 packer.
bool detail::im2col_pack_avx512(const float*, const ConvShape&, std::size_t, std::size_t,
                                float*, std::size_t) {
  return false;
}
#endif

}  // namespace cnn2fpga::nn::kernels
