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
// One pooling pass, on 256-bit registers whatever float_microkernel() names,
// serves float and, on int32 lanes, the integer engines' pool_layer_s8/_s16,
// which are exact.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/kernels/gemm_tile.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"
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

namespace {

/// Lanes 0, 2, ..., 14 (even) or 1, 3, ..., 15 (odd) of a:b.
inline __m256 deinterleave_ps(__m256 a, __m256 b, bool odd) {
  const __m256 picked = odd ? _mm256_shuffle_ps(a, b, 0xDD) : _mm256_shuffle_ps(a, b, 0x88);
  return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(picked), 0xD8));
}

/// The lanes of pool_pass: one row chunk of eight elements in 32-bit lanes
/// (float, or int8 / int16 widened to int32). Each supplies static
/// load(p, n) (elements [0, n) into lanes 0..n-1, reading no others),
/// load_pair(p, n, lo, hi) (16 elements), gather(p, step, n),
/// deinterleave(lo, hi, odd) (the even or odd lanes of lo:hi), the
/// reductions max_rows, max_cols and add, store(p, v, n) (lanes [0, n) back
/// to the element type), and a member mean(sum), the mean pool's finish.
struct FloatLanes {
  using T = float;
  using Vec = __m256;
  static constexpr std::size_t kLanes = 8;
  float scale;  ///< 1/(kh*kw)

  /// Elements [0, n) into lanes 0..n-1, n <= 8.
  static Vec load(const float* p, std::size_t n) {
    return n == 8 ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, tail_mask(n));
  }
  static void load_pair(const float* p, std::size_t n, Vec& lo, Vec& hi) {
    lo = load(p, std::min<std::size_t>(n, 8));
    hi = n > 8 ? load(p + 8, n - 8) : _mm256_setzero_ps();
  }
  static Vec gather(const float* p, std::size_t step, std::size_t n) {
    const __m256i idx = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                           _mm256_set1_epi32(static_cast<int>(step)));
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, idx,
                                    _mm256_castsi256_ps(tail_mask(n)), 4);
  }
  static Vec deinterleave(Vec lo, Vec hi, bool odd) { return deinterleave_ps(lo, hi, odd); }
  /// Rows reduce as max(v, row) and columns as std::max(v, col), which is
  /// max(col, v): the operand order of the loops this replaced, so NaNs
  /// travel as they did.
  static Vec max_rows(Vec v, Vec row) { return _mm256_max_ps(v, row); }
  static Vec max_cols(Vec v, Vec col) { return _mm256_max_ps(col, v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  Vec mean(Vec sum) const { return _mm256_mul_ps(sum, _mm256_set1_ps(scale)); }
  static void store(float* p, Vec v, std::size_t n) {
    if (n == 8) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm256_maskstore_ps(p, tail_mask(n), v);
    }
  }
};

/// Raw fixed values in int32 lanes: every reduction is exact.
template <typename R>
struct IntLanes {
  using T = R;
  using Vec = __m256i;
  static constexpr std::size_t kLanes = 8;
  int window;                     ///< kh*kw
  std::int32_t min_raw, max_raw;  ///< fixed_saturate's clamp

  static Vec widen(__m128i v) {
    if constexpr (sizeof(R) == 1) {
      return _mm256_cvtepi8_epi32(v);
    } else {
      return _mm256_cvtepi16_epi32(v);
    }
  }
  static Vec load(const R* p, std::size_t n) {
    alignas(16) R tmp[8] = {};
    if (n < 8) {
      std::memcpy(tmp, p, n * sizeof(R));
      p = tmp;
    }
    return widen(sizeof(R) == 1 ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))
                                : _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void load_pair(const R* p, std::size_t n, Vec& lo, Vec& hi) {
    alignas(16) R tmp[16] = {};
    if (n < 16) {
      std::memcpy(tmp, p, n * sizeof(R));
      p = tmp;
    }
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    if constexpr (sizeof(R) == 1) {
      lo = widen(a);
      hi = widen(_mm_unpackhi_epi64(a, a));
    } else {
      lo = widen(a);
      hi = widen(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8)));
    }
  }
  static Vec gather(const R* p, std::size_t step, std::size_t n) {
    alignas(16) R tmp[8] = {};
    for (std::size_t i = 0; i < n; ++i) tmp[i] = p[i * step];
    return load(tmp, 8);
  }
  static Vec deinterleave(Vec lo, Vec hi, bool odd) {
    return _mm256_castps_si256(
        deinterleave_ps(_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi), odd));
  }
  static Vec max_rows(Vec v, Vec row) { return _mm256_max_epi32(v, row); }
  static Vec max_cols(Vec v, Vec col) { return _mm256_max_epi32(v, col); }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
  /// fixed_inference's symmetric round-half-away mean, then the clamp:
  /// (|sum| + window/2) / window with the sign of sum. The quotient of two
  /// int32 values is exact enough in double for truncation to floor it.
  Vec mean(Vec sum) const {
    const __m256i num = _mm256_add_epi32(_mm256_abs_epi32(sum), _mm256_set1_epi32(window / 2));
    const __m256d w = _mm256_set1_pd(window);
    const __m128i lo = _mm256_cvttpd_epi32(
        _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(num)), w));
    const __m128i hi = _mm256_cvttpd_epi32(
        _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(num, 1)), w));
    const __m256i q = _mm256_sign_epi32(_mm256_set_m128i(hi, lo), sum);
    return _mm256_min_epi32(_mm256_max_epi32(q, _mm256_set1_epi32(min_raw)),
                            _mm256_set1_epi32(max_raw));
  }
  /// Narrow with saturation (the values already lie in the type's range).
  static void store(R* p, Vec v, std::size_t n) {
    __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    if constexpr (sizeof(R) == 1) words = _mm_packs_epi16(words, words);
    if (n == 8) {
      if constexpr (sizeof(R) == 1) {
        _mm_storel_epi64(reinterpret_cast<__m128i*>(p), words);
      } else {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), words);
      }
      return;
    }
    alignas(16) R tmp[16 / sizeof(R)];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), words);
    std::memcpy(p, tmp, n * sizeof(R));
  }
};

template <typename R>
IntLanes<R> int_lanes(const PoolShape& s, const FixedPointFormat& format) {
  return {static_cast<int>(s.kh * s.kw), static_cast<std::int32_t>(format.min_raw()),
          static_cast<std::int32_t>(format.max_raw())};
}

/// One pool step over all its planes, eight outputs of a row at a time. For
/// each window column j, the kh rows reduce element-wise to column sums (or
/// maxima) s_j, which then reduce left to right: per element the order of
/// the row-then-column loops this replaced. Column j of the windows is
/// elements j, j + step, ... of the rows: one load at step 1, two loads
/// split into even and odd lanes (columns j and j + 1) at step 2, a gather
/// otherwise. Loads may run past a row into the next one, and stores past an
/// output row into the next (rewritten when its turn comes); only at the end
/// of the planes do they stop at the last element.
template <bool kMax, class L>
void pool_pass(const L& lanes, const typename L::T* in, const PoolShape& s,
               typename L::T* out) {
  using T = typename L::T;
  using Vec = typename L::Vec;
  constexpr std::size_t kLanes = L::kLanes;
  const std::size_t in_plane = s.ih * s.iw, out_plane = s.oh * s.ow;
  const T* in_end = in + s.planes * in_plane;
  T* out_end = out + s.planes * out_plane;
  // At most n elements from p on, as far as the planes reach.
  const auto within = [](const T* p, const T* end, std::size_t n) {
    return std::min(n, static_cast<std::size_t>(end - p));
  };
  const auto reduce = [](Vec v, Vec next) {
    return kMax ? L::max_rows(v, next) : L::add(v, next);
  };
  for (std::size_t p = 0; p < s.planes; ++p) {
    for (std::size_t oy = 0; oy < s.oh; ++oy) {
      const T* row0 = in + p * in_plane + oy * s.step * s.iw;
      T* orow = out + p * out_plane + oy * s.ow;
      for (std::size_t ox = 0; ox < s.ow; ox += kLanes) {
        const std::size_t n = std::min(kLanes, s.ow - ox);
        const T* w = row0 + ox * s.step;  // column 0 of the first window
        Vec acc{};
        const auto column = [&](std::size_t j, Vec col) {
          acc = j == 0 ? col : kMax ? L::max_cols(acc, col) : L::add(acc, col);
        };
        if (s.step == 2) {
          for (std::size_t j = 0; j < s.kw; j += 2) {
            Vec lo, hi;
            L::load_pair(w + j, within(w + j, in_end, 2 * kLanes), lo, hi);
            for (std::size_t m = 1; m < s.kh; ++m) {
              const T* at = w + m * s.iw + j;
              Vec next_lo, next_hi;
              L::load_pair(at, within(at, in_end, 2 * kLanes), next_lo, next_hi);
              lo = reduce(lo, next_lo);
              hi = reduce(hi, next_hi);
            }
            column(j, L::deinterleave(lo, hi, false));
            if (j + 1 < s.kw) column(j + 1, L::deinterleave(lo, hi, true));
          }
        } else {
          for (std::size_t j = 0; j < s.kw; ++j) {
            const auto load_row = [&](std::size_t m) {
              const T* at = w + m * s.iw + j;
              return s.step == 1 ? L::load(at, within(at, in_end, kLanes))
                                 : L::gather(at, s.step, n);
            };
            Vec v = load_row(0);
            for (std::size_t m = 1; m < s.kh; ++m) v = reduce(v, load_row(m));
            column(j, v);
          }
        }
        L::store(orow + ox, kMax ? acc : lanes.mean(acc), within(orow + ox, out_end, kLanes));
      }
    }
  }
}

template <class L>
void pool_pass(bool is_max, const L& lanes, const typename L::T* in, const PoolShape& s,
               typename L::T* out) {
  if (is_max) {
    pool_pass<true>(lanes, in, s, out);
  } else {
    pool_pass<false>(lanes, in, s, out);
  }
}

}  // namespace

void pool_layer(bool is_max, const float* in, const PoolShape& s, float* out) {
  pool_pass(is_max, FloatLanes{1.0f / static_cast<float>(s.kh * s.kw)}, in, s, out);
}

void detail::pool_layer_s8_avx2(bool is_max, const std::int8_t* in, const PoolShape& s,
                                std::int8_t* out, const FixedPointFormat& format) {
  pool_pass(is_max, int_lanes<std::int8_t>(s, format), in, s, out);
}

void detail::pool_layer_s16_avx2(bool is_max, const std::int16_t* in, const PoolShape& s,
                                 std::int16_t* out, const FixedPointFormat& format) {
  pool_pass(is_max, int_lanes<std::int16_t>(s, format), in, s, out);
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
