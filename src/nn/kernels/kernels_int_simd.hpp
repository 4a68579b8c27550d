// Register helpers shared by the integer GEMM microkernels
// (kernels_int_avx2.cpp and both builds of kernels_int_vnni.cpp). Everything
// here has internal linkage: the including sources are compiled with
// different ISA flags, so one inline definition must never stand in for
// another at link time.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/kernels/kernels.hpp"

namespace cnn2fpga::nn::kernels::detail {
namespace {

inline std::int32_t load_dword(const void* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline __m256i broadcast_dword(const void* p) { return _mm256_set1_epi32(load_dword(p)); }

/// (acc + half) >> frac on 8 int32 lanes; the add wraps and the shift is
/// arithmetic, matching the scalar reference's uint32 + srai sequence.
inline __m256i renorm8(__m256i acc, __m256i half, __m128i shift) {
  return _mm256_sra_epi32(_mm256_add_epi32(acc, half), shift);
}

/// Renormalize, saturate and store one row of a 16-column int8 tile
/// (accumulators for columns 0-7 and 8-15). packs_epi32 / packs_epi16
/// saturate exactly like fixed_saturate's clamp to [-128, 127]; fused ReLU
/// applies to the packed lanes.
inline void store_row_s8(std::int8_t* dst, __m256i lo, __m256i hi, __m256i half,
                         __m128i shift, bool relu, std::size_t live_cols) {
  __m256i w = _mm256_packs_epi32(renorm8(lo, half, shift),
                                 renorm8(hi, half, shift));  // lo0-3 hi0-3 | lo4-7 hi4-7
  w = _mm256_permute4x64_epi64(w, 0xD8);                     // lo0-7 | hi0-7
  __m128i bytes =
      _mm_packs_epi16(_mm256_castsi256_si128(w), _mm256_extracti128_si256(w, 1));
  if (relu) bytes = _mm_max_epi8(bytes, _mm_setzero_si128());
  if (live_cols == kPanelCols) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), bytes);
  } else {
    alignas(16) std::int8_t tmp[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), bytes);
    std::memcpy(dst, tmp, live_cols);
  }
}

/// The same for int16 lanes, saturated to [-32768, 32767].
inline void store_row_s16(std::int16_t* dst, __m256i lo, __m256i hi, __m256i half,
                          __m128i shift, bool relu, std::size_t live_cols) {
  __m256i words = _mm256_permute4x64_epi64(
      _mm256_packs_epi32(renorm8(lo, half, shift), renorm8(hi, half, shift)), 0xD8);
  if (relu) words = _mm256_max_epi16(words, _mm256_setzero_si256());
  if (live_cols == kPanelCols) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), words);
  } else {
    alignas(32) std::int16_t tmp[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), words);
    std::memcpy(dst, tmp, live_cols * sizeof(std::int16_t));
  }
}

}  // namespace
}  // namespace cnn2fpga::nn::kernels::detail
