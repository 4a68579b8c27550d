// The float engine's 512-bit code (float_microkernel() kAvx512): built with
// kernels_avx2.cpp's flags plus -mavx512f, FP contraction included, so the
// 256-bit polynomials compile to the same operations here as there.
//
// kernels::gemm: gemm_tile.hpp's loop runs 6x32 tiles of 12 ZMM accumulators
// over two adjacent B panels (6x16 on an odd last one), each lane the 256-bit
// kernel's bias-seeded FMA chain. Identity and ReLU run at full width, tanh
// and sigmoid the 256-bit polynomials on each half: the outputs are bitwise
// equal to the 256-bit kernel's.
//
// The float conv packer (im2col_pack_avx512), which im2col_pack prefers on
// AVX-512 hosts: the float twin of the VBMI int8 packer
// (im2col_avx512.cpp). Column j of a panel row reads the input element at
// off_j + kb: the column's output pixel in input coordinates plus the tap's
// kernel offset. A panel's live off_j lie within `spread` elements of the
// first (one per column, plus iw - ow per output row crossed), so when that
// is under 32 two 16-float loads from off_first + kb hold the whole row, and
// one vpermt2ps with the index off_j - off_first puts every element in place.
// A panel row costs two loads, the permute and a store, where the AVX2 packer
// blends one 16-float load per output row the panel touches. A panel whose
// loads could pass the end of the image's last plane masks them there;
// loaded elements lie in the image's planes or between them, and only the
// row's own are picked. Stores are masked to the image's own lanes.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "nn/kernels/gemm_tile.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/simd_math.hpp"

namespace cnn2fpga::nn::kernels::detail {

namespace {

/// f on each 256-bit half of x. Full-mask maskz forms throughout: GCC 12
/// warns on the plain forms' undefined operand.
template <class F>
inline __m512 per_half(__m512 x, F f) {
  const __m512d xd = _mm512_castps_pd(x);
  const __m256 lo = f(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, xd, 0)));
  const __m256 hi = f(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, xd, 1)));
  return _mm512_castpd_ps(_mm512_maskz_insertf64x4(
      0xFF, _mm512_castpd256_pd512(_mm256_castps_pd(lo)), _mm256_castps_pd(hi), 1));
}

struct FloatZmm {
  using Vec = __m512;
  const float* bias;
  int act;
  float* c;
  std::size_t ldc;

  Vec seed(std::size_t row, bool live) const {
    return bias != nullptr && live ? _mm512_set1_ps(bias[row]) : _mm512_setzero_ps();
  }
  static Vec load(const std::uint8_t* p) { return _mm512_loadu_ps(p); }
  static Vec broadcast(const std::uint8_t* p) {
    return _mm512_set1_ps(*reinterpret_cast<const float*>(p));
  }
  static Vec madd(Vec acc, Vec b, Vec a) { return _mm512_fmadd_ps(a, b, acc); }

  Vec activate(Vec x) const {
    switch (act) {
      case static_cast<int>(ActKind::kTanh):
        return per_half(x, [](__m256 v) { return tanh256_ps(v); });
      case static_cast<int>(ActKind::kSigmoid):
        return per_half(x, [](__m256 v) { return sigmoid256_ps(v); });
      case static_cast<int>(ActKind::kReLU):
        return _mm512_maskz_max_ps(0xFFFF, x, _mm512_setzero_ps());
      default: return x;
    }
  }

  template <std::size_t kVecs>
  void store(std::size_t row, std::size_t col, const Vec (&acc)[kVecs],
             std::size_t live) const {
#pragma GCC unroll 2
    for (std::size_t j = 0; j < kVecs; ++j) {
      const std::size_t lanes = std::min(kPanelCols, live - j * kPanelCols);
      _mm512_mask_storeu_ps(c + row * ldc + col + j * kPanelCols,
                            static_cast<__mmask16>((1u << lanes) - 1), activate(acc[j]));
    }
  }
};

}  // namespace

void gemm_avx512(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
                 int act, float* c, std::size_t ldc) {
  gemm_tiles(FloatZmm{bias, act, c, ldc}, a.data.data(), bpack, a.rows, n, a.cols, a.cols);
}

bool im2col_pack_avx512(const float* in, const ConvShape& s, std::size_t first,
                        std::size_t last, float* bpack, std::size_t col0) {
  const std::size_t k_total = s.k();
  const std::size_t n = last - first;
  if (n == 0 || k_total == 0) return true;
  // The live columns of one panel: at most 16, and at most this call's.
  const std::size_t live_max = std::min(n, kPanelCols);
  const std::size_t skip = s.iw - s.ow;  // input elements between output rows
  // How far past its first live column a panel's last one can lie: one
  // element per column, plus `skip` per output row crossed.
  const std::size_t spread =
      live_max - 1 + (live_max - 1 + s.ow - 1) / s.ow * skip;
  if (spread >= 32) return false;

  // The in-image offset c*c_stride + ky*iw + kx of the last k, the furthest.
  const auto reach =
      static_cast<std::ptrdiff_t>((s.channels - 1) * s.c_stride + (s.kh - 1) * s.iw + s.kw - 1);
  const auto end = static_cast<std::ptrdiff_t>((s.channels - 1) * s.c_stride + s.ih * s.iw);
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  // Elements [0, n) of a 16-float load at `at`, n clamped to [0, 16].
  const auto low_lanes = [](std::ptrdiff_t count) -> __mmask16 {
    return count >= 16 ? 0xFFFF
                       : static_cast<__mmask16>(count <= 0 ? 0 : (1u << count) - 1);
  };

  std::size_t y = first / s.ow, x = first % s.ow;  // output pixel of the next column
  for (std::size_t q = col0 / kPanelCols; q * kPanelCols < col0 + n; ++q) {
    const std::size_t panel0 = q * kPanelCols;
    const auto l0 = static_cast<int>(std::max(col0, panel0) - panel0);
    const auto l1 = static_cast<int>(std::min(col0 + n, panel0 + kPanelCols) - panel0);
    const auto live = static_cast<__mmask16>(((1u << l1) - 1) & ~((1u << l0) - 1));
    // Column l0 + i lies i input elements past the first live column, plus
    // `skip` for each output row it lies beyond that column's row; dead
    // columns pick element 0 and are not stored.
    const auto base = static_cast<std::ptrdiff_t>(y * s.iw + x);
    __m512i cols = _mm512_sub_epi32(lane, _mm512_set1_epi32(l0));
    for (int edge = l0 + static_cast<int>(s.ow - x); edge < l1; edge += static_cast<int>(s.ow)) {
      cols = _mm512_mask_add_epi32(cols, _mm512_cmpge_epi32_mask(lane, _mm512_set1_epi32(edge)),
                                   cols, _mm512_set1_epi32(static_cast<int>(skip)));
    }
    cols = _mm512_maskz_mov_epi32(live, cols);
    for (x += static_cast<std::size_t>(l1 - l0); x >= s.ow; x -= s.ow) ++y;

    float* row = bpack + q * k_total * kPanelCols;
    // Row k = (c*kh + ky)*kw + kx: the 32 floats from the first live
    // column's element under that tap, from which vpermt2ps picks every live
    // column's.
    const auto pack_rows = [&](auto near_end) {
      for (std::size_t c = 0; c < s.channels; ++c) {
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
          const std::ptrdiff_t tap = base + static_cast<std::ptrdiff_t>(c * s.c_stride + ky * s.iw);
          for (std::size_t kx = 0; kx < s.kw; ++kx, row += kPanelCols) {
            const std::ptrdiff_t at = tap + static_cast<std::ptrdiff_t>(kx);
            __m512 lo, hi;
            if constexpr (decltype(near_end)::value) {
              lo = _mm512_maskz_loadu_ps(low_lanes(end - at), in + at);
              hi = _mm512_maskz_loadu_ps(low_lanes(end - at - 16), in + at + 16);
            } else {
              lo = _mm512_loadu_ps(in + at);
              hi = _mm512_loadu_ps(in + at + 16);
            }
            _mm512_mask_storeu_ps(row, live, _mm512_permutex2var_ps(lo, cols, hi));
          }
        }
      }
    };
    if (base + reach + 32 <= end) {
      pack_rows(std::false_type{});
    } else {
      pack_rows(std::true_type{});
    }
  }
  return true;
}

}  // namespace cnn2fpga::nn::kernels::detail
