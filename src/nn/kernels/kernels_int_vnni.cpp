// VNNI quantized GEMM microkernels. This one source is compiled twice (see
// src/nn/CMakeLists.txt): with -mavxvnni, where CNN2FPGA_VNNI_EVEX is unset
// and the kernels are detail::gemm_*_avxvnni (VEX vpdpbusd / vpdpwssd on
// 256-bit registers), and with -mavx512f -mavx512vnni and CNN2FPGA_VNNI_EVEX,
// where they are detail::gemm_*_avx512vnni (the same instructions on 512-bit
// registers). gemm_s8 / gemm_s16 pick one by cpuid (kernels_int.cpp).
//
// Both run gemm_tile.hpp's loop over the AVX2 kernels' panels, 12 int32
// accumulators seeded with the row seed: 6x16 tiles on 256-bit registers,
// 6x32 over two adjacent panels (6x16 on an odd last one) on 512-bit ones.
// vpdpbusd adds a column's four u8 x s8 products per int32 lane (32 int8
// MACs per op at 256 bits, against 8 per float FMA and 10 ops per 128 MACs
// in the AVX2 kernel); vpdpwssd adds two s16 products. The +/-31 int8 weight
// clamp stays so every engine reads the same weights. Neither instruction
// saturates, so every sum is the _ref kernels' modular int32 sum. The
// 256-bit epilogue is kernels_int_simd.hpp's; the 512-bit one renormalizes
// alike, then vpmovsdb / vpmovsdw clamp int32 straight to int8 / int16 as the
// packs chain does (ReLU before the clamp equals ReLU after it) and store
// through a lane mask. So the results are bit-identical.
#include "nn/kernels/kernels_int.hpp"

#include <immintrin.h>

#include <algorithm>

#include "nn/kernels/gemm_tile.hpp"
#include "nn/kernels/kernels_int_simd.hpp"

namespace cnn2fpga::nn::kernels::detail {

namespace {

#ifdef CNN2FPGA_VNNI_EVEX
#define CNN2FPGA_VNNI_NAME(kernel) kernel##_avx512vnni
using Reg = __m512i;
inline Reg set1(std::int32_t v) { return _mm512_set1_epi32(v); }
inline Reg load_reg(const std::uint8_t* p) { return _mm512_loadu_si512(p); }
inline Reg dpbusd(Reg acc, Reg b, Reg a) { return _mm512_dpbusd_epi32(acc, b, a); }
inline Reg dpwssd(Reg acc, Reg b, Reg a) { return _mm512_dpwssd_epi32(acc, b, a); }
#else
#define CNN2FPGA_VNNI_NAME(kernel) kernel##_avxvnni
using Reg = __m256i;
inline Reg set1(std::int32_t v) { return _mm256_set1_epi32(v); }
inline Reg load_reg(const std::uint8_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}
inline Reg dpbusd(Reg acc, Reg b, Reg a) { return _mm256_dpbusd_avx_epi32(acc, b, a); }
inline Reg dpwssd(Reg acc, Reg b, Reg a) { return _mm256_dpwssd_avx_epi32(acc, b, a); }
#endif

/// An integer GEMM's arithmetic for gemm_tiles: Madd is vpdpbusd (int8) or
/// vpdpwssd (int16), T the output type. Seeds of padding rows are zero
/// (pack_weights_* size `seed` to whole panels), so they need no guard.
template <class T, Reg (*Madd)(Reg, Reg, Reg)>
struct IntOps {
  using Vec = Reg;
  const std::int32_t* seeds;
  T* c;
  std::size_t ldc;
  int frac;
  bool relu;

  IntOps(const std::int32_t* s, const FixedPointFormat& format, int act, T* out,
         std::size_t ld)
      : seeds(s), c(out), ldc(ld), frac(format.frac_bits),
        relu(act == static_cast<int>(ActKind::kReLU)) {}

  Vec seed(std::size_t row, bool) const { return set1(seeds[row]); }
  static Vec load(const std::uint8_t* p) { return load_reg(p); }
  static Vec broadcast(const std::uint8_t* p) { return set1(load_dword(p)); }
  static Vec madd(Vec acc, Vec b, Vec a) { return Madd(acc, b, a); }

  /// Renormalize ((acc + half) >> frac, as renorm8), saturate to T, apply
  /// ReLU and store the live lanes of one tile row.
  template <std::size_t kVecs>
  void store(std::size_t row, std::size_t col, const Vec (&acc)[kVecs],
             std::size_t live) const {
    T* dst = c + row * ldc + col;
    const Reg half = set1(std::int32_t{1} << (frac - 1));
    const __m128i shift = _mm_cvtsi32_si128(frac);
#ifdef CNN2FPGA_VNNI_EVEX
#pragma GCC unroll 2
    for (std::size_t j = 0; j < kVecs; ++j) {
      // Full-mask maskz forms: GCC 12 warns on the plain forms' undefined operand.
      Reg v = _mm512_maskz_sra_epi32(0xFFFF, _mm512_add_epi32(acc[j], half), shift);
      if (relu) v = _mm512_maskz_max_epi32(0xFFFF, v, _mm512_setzero_si512());
      const auto lanes =
          static_cast<__mmask16>((1u << std::min(kPanelCols, live - j * kPanelCols)) - 1);
      if constexpr (sizeof(T) == 1) {
        _mm512_mask_cvtsepi32_storeu_epi8(dst + j * kPanelCols, lanes, v);
      } else {
        _mm512_mask_cvtsepi32_storeu_epi16(dst + j * kPanelCols, lanes, v);
      }
    }
#else
    if constexpr (sizeof(T) == 1) {
      store_row_s8(dst, acc[0], acc[1], half, shift, relu, live);
    } else {
      store_row_s16(dst, acc[0], acc[1], half, shift, relu, live);
    }
#endif
  }
};

}  // namespace

void CNN2FPGA_VNNI_NAME(gemm_s8)(const PackedWeightsS8& a, const std::uint8_t* bpack,
                                 std::size_t n, const FixedPointFormat& format, int act,
                                 std::int8_t* c, std::size_t ldc) {
  // kp pads K to 8 for the AVX2 kernel's pairs of groups; this kernel takes
  // one 4-k group per step, so it stops at the last group holding a real k
  // (the rest is zero in both operands).
  gemm_tiles(IntOps<std::int8_t, dpbusd>(a.seed.data(), format, act, c, ldc), a.panels.data(),
             bpack, a.rows, n, (a.cols + 3) / 4, a.kp / 4);
}

void CNN2FPGA_VNNI_NAME(gemm_s16)(const PackedWeightsS16& a, const std::int16_t* bpack,
                                  std::size_t n, const FixedPointFormat& format, int act,
                                  std::int16_t* c, std::size_t ldc) {
  gemm_tiles(IntOps<std::int16_t, dpwssd>(a.seed.data(), format, act, c, ldc),
             a.panels.data(), bpack, a.rows, n, a.kp / 2, a.kp / 2);
}

}  // namespace cnn2fpga::nn::kernels::detail
