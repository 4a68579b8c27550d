// AVX2 transcendental helpers for the kernel engine's activation epilogues.
//
// exp256_ps is the classic Cephes-derived range-reduction + degree-5
// polynomial (as popularized by Pommier's sse_mathfun): accurate to ~1 ulp
// over the clamped domain, which keeps tanh/sigmoid within ~1e-7 relative of
// libm — far inside the engine's documented 1e-4 tolerance versus the scalar
// reference.
//
// This header must only be included from translation units compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt). Internal linkage: an inline copy
// built in kernels_avx512.cpp must not stand in for the AVX2 callers' copy.
#pragma once

#include <immintrin.h>

#include <cstddef>

namespace cnn2fpga::nn::kernels {
namespace {

inline __m256 exp256_ps(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 exp_lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  // ln2 split into a high part exactly representable in float and a low-order
  // correction, so n*ln2 can be subtracted without cancellation error.
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(x, exp_hi);
  x = _mm256_max_ps(x, exp_lo);

  // n = round(x * log2(e));  r = x - n*ln2 in two steps.
  __m256 fn = _mm256_round_ps(_mm256_mul_ps(x, log2e),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fn, c1, x);
  r = _mm256_fnmadd_ps(fn, c2, r);

  __m256 r2 = _mm256_mul_ps(r, r);
  __m256 y = p0;
  y = _mm256_fmadd_ps(y, r, p1);
  y = _mm256_fmadd_ps(y, r, p2);
  y = _mm256_fmadd_ps(y, r, p3);
  y = _mm256_fmadd_ps(y, r, p4);
  y = _mm256_fmadd_ps(y, r, p5);
  y = _mm256_fmadd_ps(y, r2, _mm256_add_ps(r, one));

  // 2^n via exponent-field construction.
  __m256i n = _mm256_cvtps_epi32(fn);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(127));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

/// tanh(x) = sign(x) * (1 - e) / (1 + e) with e = exp(-2|x|); this form never
/// overflows and is monotone-saturating for large |x|.
inline __m256 tanh256_ps(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 sign = _mm256_and_ps(x, sign_mask);
  __m256 ax = _mm256_andnot_ps(sign_mask, x);
  __m256 e = exp256_ps(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0f)));
  __m256 t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
  return _mm256_or_ps(t, sign);
}

/// sigmoid(x) = 1 / (1 + exp(-x)).
inline __m256 sigmoid256_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

/// AVX2 mask with the first `live` (0..8) lanes enabled for maskload/maskstore.
inline __m256i tail_mask(std::size_t live) {
  alignas(32) static const int kMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMask + 8 - live));
}

}  // namespace
}  // namespace cnn2fpga::nn::kernels
