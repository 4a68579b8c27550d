// VNNI quantized GEMM microkernels. This one source is compiled twice (see
// src/nn/CMakeLists.txt): with -mavxvnni, where CNN2FPGA_VNNI_EVEX is unset
// and the kernels are detail::gemm_*_avxvnni (VEX-encoded vpdpbusd /
// vpdpwssd), and with -mavx512vnni -mavx512vl and CNN2FPGA_VNNI_EVEX, where
// they are detail::gemm_*_avx512vnni (the same instructions, EVEX-encoded on
// YMM registers). gemm_s8 / gemm_s16 pick one by cpuid (kernels_int.cpp).
//
// Both run full 6x16 tiles over the same packed panels as the AVX2 kernels:
// 12 YMM int32 accumulators seeded with the row seed, 2 B vectors (16
// columns of one k-group) and 1 weight broadcast, 15 of the 16 registers.
//
// int8 (vpdpbusd): each instruction adds, per int32 lane, the four u8 x s8
// products of one column's 4-k dword (offset activations x weights) to the
// accumulator. Per k-group of a tile: 2 B loads, 6 vpbroadcastd and 12
// vpdpbusd for 384 MACs, 32 MACs per arithmetic op against 8 per FMA on the
// float path; the AVX2 kernel needs 10 ops per 128 MACs. The products are
// exact with or without the +/-31 weight clamp, which stays so every engine
// reads the same weights.
//
// int16 (vpdpwssd): each instruction adds one column's two s16 x s16
// products; 12 per k-pair of a tile, 16 MACs per op, against vpmaddwd +
// vpaddd (8 MACs per op) in the AVX2 kernel.
//
// vpdpbusd and vpdpwssd add without saturation, so every sum is the modular
// int32 sum of exact products the _ref kernels compute, and the epilogue is
// the AVX2 kernels' (kernels_int_simd.hpp): the results are bit-identical.
#include "nn/kernels/kernels_int.hpp"

#include <immintrin.h>

#include <algorithm>

#include "nn/kernels/kernels_int_simd.hpp"

#ifdef CNN2FPGA_VNNI_EVEX
#define CNN2FPGA_DPBUSD _mm256_dpbusd_epi32
#define CNN2FPGA_DPWSSD _mm256_dpwssd_epi32
#define CNN2FPGA_VNNI_NAME(kernel) kernel##_avx512vnni
#else
#define CNN2FPGA_DPBUSD _mm256_dpbusd_avx_epi32
#define CNN2FPGA_DPWSSD _mm256_dpwssd_avx_epi32
#define CNN2FPGA_VNNI_NAME(kernel) kernel##_avxvnni
#endif

namespace cnn2fpga::nn::kernels::detail {

// The `#pragma GCC unroll 6` row loops spell out kPanelRows: fully unrolled,
// with the epilogue guarding dead rows, they never index the accumulators at
// run time, so the tile stays in registers at -O2 too.
static_assert(kPanelRows == 6);

void CNN2FPGA_VNNI_NAME(gemm_s8)(const PackedWeightsS8& a, const std::uint8_t* bpack,
                                 std::size_t n, const FixedPointFormat& format, int act,
                                 std::int8_t* c, std::size_t ldc) {
  const std::size_t kp = a.kp;
  // kp pads K to 8 for the AVX2 kernel's pairs of groups; this kernel takes
  // one 4-k group per step, so it stops at the last group holding a real k
  // (the rest is zero in both operands).
  const std::size_t k4 = (a.cols + 3) & ~std::size_t{3};
  const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (format.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(format.frac_bits);
  const bool relu = act == static_cast<int>(ActKind::kReLU);

  for (std::size_t q = 0; q * kPanelCols < n; ++q) {
    const std::uint8_t* bpanel = bpack + q * kp * kPanelCols;
    const std::size_t live_cols = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t row0 = 0; row0 < a.rows; row0 += kPanelRows) {
      const std::int8_t* apanel = a.panels.data() + row0 * kp;
      const std::size_t live_rows = std::min(kPanelRows, a.rows - row0);

      // Seeds of padding rows are zero (pack_weights_s8 sizes `seed` to
      // whole panels), so the dead rows need no guard here.
      __m256i acc_lo[kPanelRows], acc_hi[kPanelRows];
#pragma GCC unroll 6
      for (std::size_t r = 0; r < kPanelRows; ++r) {
        acc_lo[r] = _mm256_set1_epi32(a.seed[row0 + r]);
        acc_hi[r] = acc_lo[r];
      }

      for (std::size_t g = 0; g < k4; g += 4) {
        const std::uint8_t* bk = bpanel + g * kPanelCols;
        const __m256i b_lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk));
        const __m256i b_hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 32));
        const std::int8_t* ak = apanel + g * kPanelRows;
#pragma GCC unroll 6
        for (std::size_t r = 0; r < kPanelRows; ++r) {
          const __m256i av = broadcast_dword(ak + r * 4);
          acc_lo[r] = CNN2FPGA_DPBUSD(acc_lo[r], b_lo, av);
          acc_hi[r] = CNN2FPGA_DPBUSD(acc_hi[r], b_hi, av);
        }
      }

#pragma GCC unroll 6
      for (std::size_t r = 0; r < kPanelRows; ++r) {
        if (r >= live_rows) continue;
        store_row_s8(c + (row0 + r) * ldc + q * kPanelCols, acc_lo[r], acc_hi[r], half, shift,
                     relu, live_cols);
      }
    }
  }
}

void CNN2FPGA_VNNI_NAME(gemm_s16)(const PackedWeightsS16& a, const std::int16_t* bpack,
                                  std::size_t n, const FixedPointFormat& format, int act,
                                  std::int16_t* c, std::size_t ldc) {
  const std::size_t kp = a.kp;
  const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (format.frac_bits - 1));
  const __m128i shift = _mm_cvtsi32_si128(format.frac_bits);
  const bool relu = act == static_cast<int>(ActKind::kReLU);

  for (std::size_t q = 0; q * kPanelCols < n; ++q) {
    const std::int16_t* bpanel = bpack + q * kp * kPanelCols;
    const std::size_t live_cols = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t row0 = 0; row0 < a.rows; row0 += kPanelRows) {
      const std::int16_t* apanel = a.panels.data() + row0 * kp;
      const std::size_t live_rows = std::min(kPanelRows, a.rows - row0);

      __m256i acc_lo[kPanelRows], acc_hi[kPanelRows];
#pragma GCC unroll 6
      for (std::size_t r = 0; r < kPanelRows; ++r) {
        acc_lo[r] = _mm256_set1_epi32(a.seed[row0 + r]);
        acc_hi[r] = acc_lo[r];
      }

      for (std::size_t g = 0; g < kp; g += 2) {
        const std::int16_t* bk = bpanel + g * kPanelCols;
        const __m256i b_lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk));
        const __m256i b_hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(bk + 16));
        const std::int16_t* ak = apanel + g * kPanelRows;
#pragma GCC unroll 6
        for (std::size_t r = 0; r < kPanelRows; ++r) {
          const __m256i av = broadcast_dword(ak + r * 2);
          acc_lo[r] = CNN2FPGA_DPWSSD(acc_lo[r], b_lo, av);
          acc_hi[r] = CNN2FPGA_DPWSSD(acc_hi[r], b_hi, av);
        }
      }

#pragma GCC unroll 6
      for (std::size_t r = 0; r < kPanelRows; ++r) {
        if (r >= live_rows) continue;
        store_row_s16(c + (row0 + r) * ldc + q * kPanelCols, acc_lo[r], acc_hi[r], half,
                      shift, relu, live_cols);
      }
    }
  }
}

}  // namespace cnn2fpga::nn::kernels::detail
