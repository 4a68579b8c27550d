// AVX2/FMA compute engine. Compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt); every entry point assumes avx2_available() — the
// dispatcher in execution.cpp guarantees it, and kernels.cpp provides
// throwing stubs for builds without CNN2FPGA_HAVE_AVX2.
//
// Numerical contract (see kernels.hpp): each output element is a single FMA
// accumulation chain over k seeded with the bias, independent of which SIMD
// lane or panel the element lands in. That makes the engine chunk-invariant —
// batch-fused and per-image execution produce bit-identical floats — while
// differing from the scalar reference only through FMA contraction and the
// polynomial transcendentals (~1e-7 relative in practice, 1e-4 documented).
// gemm runs gemm_tile.hpp's loop on 256-bit registers, or its bitwise-equal
// 512-bit instance (kernels_avx512.cpp) where float_microkernel() names it.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "nn/kernels/gemm_tile.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/simd_math.hpp"

namespace cnn2fpga::nn::kernels {

namespace {

inline __m256 apply_act(int act, __m256 x) {
  switch (act) {
    case static_cast<int>(ActKind::kTanh): return tanh256_ps(x);
    case static_cast<int>(ActKind::kSigmoid): return sigmoid256_ps(x);
    case static_cast<int>(ActKind::kReLU): return _mm256_max_ps(x, _mm256_setzero_ps());
    default: return x;
  }
}

/// gemm's arithmetic for detail::gemm_tiles: 6x16 tiles of 12 YMM
/// accumulators seeded with the row bias; the epilogue fuses the activation.
struct FloatYmm {
  using Vec = __m256;
  const float* bias;
  int act;
  float* c;
  std::size_t ldc;

  Vec seed(std::size_t row, bool live) const {
    return bias != nullptr && live ? _mm256_set1_ps(bias[row]) : _mm256_setzero_ps();
  }
  static Vec load(const std::uint8_t* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static Vec broadcast(const std::uint8_t* p) {
    return _mm256_broadcast_ss(reinterpret_cast<const float*>(p));
  }
  static Vec madd(Vec acc, Vec b, Vec a) { return _mm256_fmadd_ps(a, b, acc); }
  void store(std::size_t row, std::size_t col, const Vec (&acc)[2], std::size_t live) const {
    float* dst = c + row * ldc + col;
#pragma GCC unroll 2
    for (std::size_t j = 0; j < 2; ++j) {
      const std::size_t lanes = std::min<std::size_t>(8, live > 8 * j ? live - 8 * j : 0);
      if (lanes == 8) {
        _mm256_storeu_ps(dst + 8 * j, apply_act(act, acc[j]));
      } else if (lanes > 0) {
        _mm256_maskstore_ps(dst + 8 * j, tail_mask(lanes), apply_act(act, acc[j]));
      }
    }
  }
};

}  // namespace

void gemm(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
          int act, float* c, std::size_t ldc) {
#ifdef CNN2FPGA_HAVE_AVX512
  if (float_microkernel() == FloatMicrokernel::kAvx512) {
    detail::gemm_avx512(a, bpack, n, bias, act, c, ldc);
    return;
  }
#endif
  detail::gemm_tiles(FloatYmm{bias, act, c, ldc}, a.data.data(), bpack, a.rows, n, a.cols,
                     a.cols);
}

void linear(const PackedA& a, const float* x, std::size_t batch, const float* bias,
            int act, float* out) {
  // Blocks of six weight panels (36 output rows) per image: six accumulator
  // chains hide the FMA latency, and with the broadcast activation, one
  // weight vector and the row mask they fit the 16 YMM registers. Lane r of
  // acc[p] is output row (p0 + p)*6 + r and grows by the bias-seeded,
  // in-order FMA chain gemm runs for that element.
  constexpr std::size_t kBlockPanels = 6;
  const std::size_t m = a.rows;
  const std::size_t k = a.cols;
  const std::size_t panels = (m + kPanelRows - 1) / kPanelRows;
  const __m256i panel_rows = tail_mask(kPanelRows);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x + b * k;
    float* ob = out + b * m;
    for (std::size_t p0 = 0; p0 < panels; p0 += kBlockPanels) {
      // The dead slots of a short last block re-read its last live panel and
      // store through an empty mask, so no loop indexes the accumulators at
      // run time and they stay in registers.
      const std::size_t live = std::min(kBlockPanels, panels - p0);
      const float* wp[kBlockPanels];
      __m256 acc[kBlockPanels];
#pragma GCC unroll 6
      for (std::size_t p = 0; p < kBlockPanels; ++p) {
        const std::size_t panel = p0 + std::min(p, live - 1);
        const std::size_t row = panel * kPanelRows;
        wp[p] = a.data.data() + panel * k * kPanelRows;
        acc[p] = bias != nullptr
                     ? _mm256_maskload_ps(bias + row, tail_mask(std::min(kPanelRows, m - row)))
                     : _mm256_setzero_ps();
      }

      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256 xv = _mm256_broadcast_ss(xb + kk);
#pragma GCC unroll 6
        for (std::size_t p = 0; p < kBlockPanels; ++p) {
          const __m256 w = _mm256_maskload_ps(wp[p] + kk * kPanelRows, panel_rows);
          acc[p] = _mm256_fmadd_ps(w, xv, acc[p]);
        }
      }

#pragma GCC unroll 6
      for (std::size_t p = 0; p < kBlockPanels; ++p) {
        const std::size_t row = std::min((p0 + p) * kPanelRows, m);  // m: dead slot
        _mm256_maskstore_ps(ob + row, tail_mask(std::min(kPanelRows, m - row)),
                            apply_act(act, acc[p]));
      }
    }
  }
}

void pool_plane(bool is_max, const float* in, std::size_t ih, std::size_t iw,
                std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                std::size_t ow, float* out, float* row_scratch) {
  (void)ih;
  const std::size_t used_w = (ow - 1) * step + kw;  // input columns touched
  const float scale = 1.0f / static_cast<float>(kh * kw);

  for (std::size_t oy = 0; oy < oh; ++oy) {
    // Pass 1: reduce the kh window rows element-wise into row_scratch. Max is
    // order-independent; for mean, summing rows first reorders the seed's
    // window-major accumulation (documented tolerance, avx2 mode only).
    const float* r0 = in + (oy * step) * iw;
    std::size_t x = 0;
    for (; x + 8 <= used_w; x += 8) {
      __m256 v = _mm256_loadu_ps(r0 + x);
      for (std::size_t m = 1; m < kh; ++m) {
        const __m256 rm = _mm256_loadu_ps(r0 + m * iw + x);
        v = is_max ? _mm256_max_ps(v, rm) : _mm256_add_ps(v, rm);
      }
      _mm256_storeu_ps(row_scratch + x, v);
    }
    if (x < used_w) {
      const __m256i mask = tail_mask(used_w - x);
      __m256 v = _mm256_maskload_ps(r0 + x, mask);
      for (std::size_t m = 1; m < kh; ++m) {
        const __m256 rm = _mm256_maskload_ps(r0 + m * iw + x, mask);
        v = is_max ? _mm256_max_ps(v, rm) : _mm256_add_ps(v, rm);
      }
      _mm256_maskstore_ps(row_scratch + x, mask, v);
    }

    // Pass 2: reduce each kw-wide window of the collapsed row.
    float* orow = out + oy * ow;
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* w = row_scratch + ox * step;
      float v = w[0];
      if (is_max) {
        for (std::size_t j = 1; j < kw; ++j) v = std::max(v, w[j]);
        orow[ox] = v;
      } else {
        for (std::size_t j = 1; j < kw; ++j) v += w[j];
        orow[ox] = v * scale;
      }
    }
  }
}

void activation_apply(ActKind act, const float* in, float* out, std::size_t n) {
  const int a = static_cast<int>(act);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, apply_act(a, _mm256_loadu_ps(in + i)));
  }
  if (i < n) {
    // Masked tail runs the identical lane-wise instruction sequence, so the
    // result of an element never depends on how the buffer was chunked.
    const __m256i mask = tail_mask(n - i);
    _mm256_maskstore_ps(out + i, mask, apply_act(a, _mm256_maskload_ps(in + i, mask)));
  }
}

void logsoftmax(const float* in, float* out, std::size_t n) {
  // logp[j] = (x[j] - max) - log(sum_k exp(x[k] - max)); the subtraction of
  // lane-constant values preserves the argmax ordering of the input exactly.
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(in + i));
  float max_val = [&] {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmax);
    float m = lanes[0];
    for (int j = 1; j < 8; ++j) m = std::max(m, lanes[j]);
    return m;
  }();
  for (; i < n; ++i) max_val = std::max(max_val, in[i]);

  const __m256 vm = _mm256_set1_ps(max_val);
  __m256 vsum = _mm256_setzero_ps();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    vsum = _mm256_add_ps(vsum, exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(in + i), vm)));
  }
  float sum = [&] {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vsum);
    float s = 0.0f;
    for (int j = 0; j < 8; ++j) s += lanes[j];
    return s;
  }();
  for (; i < n; ++i) sum += std::exp(in[i] - max_val);

  const __m256 shift = _mm256_set1_ps(max_val + std::log(sum));
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(in + i), shift));
  }
  if (i < n) {
    const __m256i mask = tail_mask(n - i);
    _mm256_maskstore_ps(out + i, mask,
                        _mm256_sub_ps(_mm256_maskload_ps(in + i, mask), shift));
  }
}

}  // namespace cnn2fpga::nn::kernels
