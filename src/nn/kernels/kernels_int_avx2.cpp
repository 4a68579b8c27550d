// AVX2 quantized GEMM microkernels. Compiled with -mavx2 -mfma (the FMA flag
// only keeps the TU's flags uniform with kernels_avx2.cpp; these kernels are
// pure integer SIMD).
//
// int8 (gemm_s8_avx2): 3x16 register tiles (half a 6-row weight panel), 6
// YMM int32 accumulators seeded with (bias<<frac) - 128*sum(w). B panels hold
// offset-u8 activations in dword groups of 4 consecutive k; A panels hold the
// matching s8 weight dwords per row, broadcast with one vpbroadcastd each. Per
// row, 16 columns and 8 k-steps: four vpmaddubsw pair-sums (bounded by the
// +/-31 weight clamp, so exact), two saturation-free vpaddsw combines, two
// vpmaddwd widens and two vpaddd — 10 vector ops per 128 MACs versus 16 FMAs
// on the float path.
//
// int16 (gemm_s16_avx2): same tiles over pair-interleaved s16 panels; one
// vpmaddwd + vpaddd per 2 k-steps per 8 columns. ALU-neutral with float FMA
// but half the operand bytes, which is where its speedup comes from.
//
// Epilogues renormalize in-register (modular add of the rounding half +
// arithmetic shift), then let the saturating pack instructions perform the
// fixed_saturate clamp exactly; fused ReLU applies to the packed lanes
// (kernels_int_simd.hpp, shared with the VNNI kernels). Everything is modular
// int32 arithmetic on exact products, so these kernels are bit-identical to
// the _ref kernels in kernels_int.cpp.
//
// The file also holds quantize_input_s8/_s16's eight-lane pass
// (quantize_*_avx2), which rounds exactly as fixed_quantize does.
//
// gemm_s8 / gemm_s16 run these only where the CPU has no VNNI
// (kernels_int_vnni.cpp: 12 vpdpbusd per 384 int8 MACs on 256-bit registers,
// 1 op per 32 against the 10 per 128 here), or under the ScopedIntMicrokernel
// hook the tests and bench_kernels use to keep measuring them on VNNI hosts.
#include "nn/kernels/kernels_int.hpp"

#ifdef CNN2FPGA_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "nn/kernels/kernels_int_simd.hpp"
#include "nn/kernels/simd_math.hpp"

namespace cnn2fpga::nn::kernels::detail {

namespace {

/// Rows of C per register tile: half a weight panel. A 6x16 int8 tile is 12
/// accumulators beside four B vectors, the ones vector and the broadcasts,
/// more than the 16 YMM registers, and the 6x16 int16 tile leaves none to
/// spare, so each panel runs as two 3-row passes over the same B panel.
/// Integer adds are exact, so the split cannot change a result. The
/// `#pragma GCC unroll 3` row loops spell out kTileRows: fully unrolled, with
/// the epilogue guarding dead rows rather than stopping at live_rows, they
/// never index the accumulators at run time, so the tile stays in registers
/// at -O2 too.
constexpr std::size_t kTileRows = 3;
static_assert(kPanelRows == 2 * kTileRows);

}  // namespace

void gemm_s8_avx2(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                  const FixedPointFormat& format, int act, std::int8_t* c,
                  std::size_t ldc) {
  const std::size_t kp = a.kp;
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (format.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(format.frac_bits);
  const bool relu = act == static_cast<int>(ActKind::kReLU);

  for (std::size_t q = 0; q * kPanelCols < n; ++q) {
    const std::uint8_t* bpanel = bpack + q * kp * kPanelCols;
    const std::size_t live_cols = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t row0 = 0; row0 < a.rows; row0 += kTileRows) {
      // Rows [row0, row0 + 3) are half of weight panel row0 / 6.
      const std::int8_t* apanel = a.panels.data() + (row0 / kPanelRows) * kp * kPanelRows +
                                  (row0 % kPanelRows) * 4;
      const std::size_t live_rows = std::min(kTileRows, a.rows - row0);

      __m256i acc_lo[kTileRows], acc_hi[kTileRows];
#pragma GCC unroll 3
      for (std::size_t r = 0; r < kTileRows; ++r) {
        acc_lo[r] = _mm256_set1_epi32(a.seed[row0 + r]);
        acc_hi[r] = acc_lo[r];
      }

      for (std::size_t g = 0; g < kp; g += 8) {
        const std::uint8_t* bk = bpanel + g * kPanelCols;
        const __m256i b0_lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk));
        const __m256i b0_hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 32));
        const __m256i b1_lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 64));
        const __m256i b1_hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 96));
        const std::int8_t* ak = apanel + g * kPanelRows;
#pragma GCC unroll 3
        for (std::size_t r = 0; r < kTileRows; ++r) {
          const __m256i a0 = broadcast_dword(ak + r * 4);
          const __m256i a1 = broadcast_dword(ak + kPanelRows * 4 + r * 4);
          const __m256i s_lo = _mm256_adds_epi16(_mm256_maddubs_epi16(b0_lo, a0),
                                                 _mm256_maddubs_epi16(b1_lo, a1));
          const __m256i s_hi = _mm256_adds_epi16(_mm256_maddubs_epi16(b0_hi, a0),
                                                 _mm256_maddubs_epi16(b1_hi, a1));
          acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(s_lo, ones));
          acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(s_hi, ones));
        }
      }

#pragma GCC unroll 3
      for (std::size_t r = 0; r < kTileRows; ++r) {
        if (r >= live_rows) continue;
        store_row_s8(c + (row0 + r) * ldc + q * kPanelCols, acc_lo[r], acc_hi[r], half, shift,
                     relu, live_cols);
      }
    }
  }
}

void gemm_s16_avx2(const PackedWeightsS16& a, const std::int16_t* bpack, std::size_t n,
                   const FixedPointFormat& format, int act, std::int16_t* c,
                   std::size_t ldc) {
  const std::size_t kp = a.kp;
  const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (format.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(format.frac_bits);
  const bool relu = act == static_cast<int>(ActKind::kReLU);

  for (std::size_t q = 0; q * kPanelCols < n; ++q) {
    const std::int16_t* bpanel = bpack + q * kp * kPanelCols;
    const std::size_t live_cols = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t row0 = 0; row0 < a.rows; row0 += kTileRows) {
      const std::int16_t* apanel = a.panels.data() +
                                   (row0 / kPanelRows) * kp * kPanelRows +
                                   (row0 % kPanelRows) * 2;
      const std::size_t live_rows = std::min(kTileRows, a.rows - row0);

      __m256i acc_lo[kTileRows], acc_hi[kTileRows];
#pragma GCC unroll 3
      for (std::size_t r = 0; r < kTileRows; ++r) {
        acc_lo[r] = _mm256_set1_epi32(a.seed[row0 + r]);
        acc_hi[r] = acc_lo[r];
      }

      for (std::size_t g = 0; g < kp; g += 2) {
        const std::int16_t* bk = bpanel + g * kPanelCols;
        const __m256i b_lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk));
        const __m256i b_hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 16));
        const std::int16_t* ak = apanel + g * kPanelRows;
#pragma GCC unroll 3
        for (std::size_t r = 0; r < kTileRows; ++r) {
          const __m256i av = broadcast_dword(ak + r * 2);
          acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(b_lo, av));
          acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(b_hi, av));
        }
      }

#pragma GCC unroll 3
      for (std::size_t r = 0; r < kTileRows; ++r) {
        if (r >= live_rows) continue;
        store_row_s16(c + (row0 + r) * ldc + q * kPanelCols, acc_lo[r], acc_hi[r], half,
                      shift, relu, live_cols);
      }
    }
  }
}

namespace {

/// fixed_quantize on eight floats: scale; NaN and !(x < max_raw) go to
/// max_raw; max with min_raw sends x < min_raw there; vcvtps2dq rounds the
/// rest under the default rounding mode, as lrintf does.
inline __m256i quantize8(__m256 x, __m256 scale, __m256 max_raw, __m256 min_raw) {
  const __m256 scaled = _mm256_mul_ps(x, scale);
  const __m256 high =
      _mm256_blendv_ps(scaled, max_raw, _mm256_cmp_ps(scaled, max_raw, _CMP_NLT_UQ));
  return _mm256_cvtps_epi32(_mm256_max_ps(high, min_raw));
}

/// quantize_s8_avx2 / _s16_avx2: eight floats at a time, the last ones
/// through a masked load. The values already lie in [min_raw, max_raw], so
/// the saturating packs only narrow them.
template <typename R>
void quantize_avx2(const float* in, std::size_t n, const FixedPointFormat& format, R* out) {
  const __m256 scale = _mm256_set1_ps(static_cast<float>(format.scale()));
  const __m256 max_raw = _mm256_set1_ps(static_cast<float>(format.max_raw()));
  const __m256 min_raw = _mm256_set1_ps(static_cast<float>(format.min_raw()));
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t live = std::min<std::size_t>(8, n - i);
    const __m256 x = live == 8 ? _mm256_loadu_ps(in + i)
                               : _mm256_maskload_ps(in + i, tail_mask(live));
    const __m256i q = quantize8(x, scale, max_raw, min_raw);
    __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
    if constexpr (sizeof(R) == 1) words = _mm_packs_epi16(words, words);
    if (live == 8) {
      if constexpr (sizeof(R) == 1) {
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), words);
      } else {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), words);
      }
      continue;
    }
    alignas(16) R tmp[16 / sizeof(R)];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), words);
    std::memcpy(out + i, tmp, live * sizeof(R));
  }
}

}  // namespace

void quantize_s8_avx2(const float* in, std::size_t n, const FixedPointFormat& format,
                      std::int8_t* out) {
  quantize_avx2(in, n, format, out);
}

void quantize_s16_avx2(const float* in, std::size_t n, const FixedPointFormat& format,
                       std::int16_t* out) {
  quantize_avx2(in, n, format, out);
}

}  // namespace cnn2fpga::nn::kernels::detail

#endif  // CNN2FPGA_HAVE_AVX2
