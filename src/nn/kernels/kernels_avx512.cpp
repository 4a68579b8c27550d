// kernels::gemm on 512-bit registers (float_microkernel() kAvx512): built
// with kernels_avx2.cpp's flags plus -mavx512f, FP contraction included, so
// the 256-bit polynomials compile to the same operations here as there.
// gemm_tile.hpp's loop runs 6x32 tiles of 12 ZMM accumulators over two
// adjacent B panels (6x16 on an odd last one), each lane the 256-bit kernel's
// bias-seeded FMA chain. Identity and ReLU run at full width, tanh and
// sigmoid the 256-bit polynomials on each half: the outputs are bitwise
// equal to the 256-bit kernel's.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

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

}  // namespace cnn2fpga::nn::kernels::detail
