// Portable half of the quantized kernel engine: weight quantization +
// panel packing, offset-u8 / pair-interleaved B packing, the blocked conv
// steps, the bit-identical scalar reference GEMMs, integer pooling, input
// quantization, activation tables, the shared QuantPackCache, and the
// choice of integer microkernel. The AVX2 entry points
// (gemm_s8_avx2 / gemm_s16_avx2) live in kernels_int_avx2.cpp and become
// throwing stubs without CNN2FPGA_HAVE_AVX2; the VNNI ones in
// kernels_int_vnni.cpp, stubbed likewise when the compiler lacks their flags.
//
// Bit-exactness argument (tested in tests/test_kernels.cpp): every product of
// raw fixed values is exact in int32, and both engines reduce with modular
// int32 addition, which is associative and commutative — so accumulation
// order cannot change a single bit, unlike the float engine's 1e-4 contract.
// The scalar kernels therefore read the SAME packed bytes the SIMD kernels
// read and must agree exactly on every input.
#include "nn/kernels/kernels_int.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cnn2fpga::nn::kernels {

namespace {

constexpr std::size_t kGroupS8 = 4;   ///< raw k values per packed dword, int8
constexpr std::size_t kGroupS16 = 2;  ///< raw k values per packed dword, int16

std::size_t panel_count_rows(std::size_t m) { return (m + kPanelRows - 1) / kPanelRows; }
std::size_t panel_count_cols(std::size_t n) { return (n + kPanelCols - 1) / kPanelCols; }

/// Renormalize + saturate an int32 accumulator exactly as both engines do it:
/// modular add of the rounding half, arithmetic shift, clamp. Whenever the
/// true sum fits int32 (always for these formats in practice) this equals
/// fixed_renormalize on an int64 accumulator.
template <std::int32_t Lo, std::int32_t Hi>
std::int32_t renorm_clamp(std::uint32_t acc, std::int32_t half, int frac) {
  std::int32_t v = static_cast<std::int32_t>(acc + static_cast<std::uint32_t>(half));
  v >>= frac;
  return std::clamp(v, Lo, Hi);
}

}  // namespace

void pack_weights_s8(const float* w, const float* bias, std::size_t m, std::size_t k,
                     const FixedPointFormat& format, PackedWeightsS8& out) {
  const std::size_t panels = panel_count_rows(m);
  out.rows = m;
  out.cols = k;
  out.kp = padded_k_s8(k);
  out.panels.assign(panels * out.kp * kPanelRows, 0);
  out.seed.assign(panels * kPanelRows, 0);
  out.clamped = false;
  for (std::size_t r = 0; r < m; ++r) {
    std::int8_t* panel = out.panels.data() + (r / kPanelRows) * out.kp * kPanelRows;
    const std::size_t rr = r % kPanelRows;
    std::int32_t wsum = 0;
    const float* row = w + r * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::int32_t q =
          std::clamp(fixed_quantize(row[kk], format), -kInt8WeightClamp, kInt8WeightClamp);
      out.clamped = out.clamped || int8_weight_clamped(row[kk], format);
      panel[(kk / kGroupS8) * (kPanelRows * kGroupS8) + rr * kGroupS8 + kk % kGroupS8] =
          static_cast<std::int8_t>(q);
      wsum += q;
    }
    // maddubs sees activations offset by +128; fold the compensation
    // -128 * sum(w) into the frac-aligned bias seed.
    out.seed[r] = (fixed_quantize(bias[r], format) << format.frac_bits) - 128 * wsum;
  }
}

void pack_weights_s16(const float* w, const float* bias, std::size_t m, std::size_t k,
                      const FixedPointFormat& format, PackedWeightsS16& out) {
  const std::size_t panels = panel_count_rows(m);
  out.rows = m;
  out.cols = k;
  out.kp = padded_k_s16(k);
  out.panels.assign(panels * out.kp * kPanelRows, 0);
  out.seed.assign(panels * kPanelRows, 0);
  for (std::size_t r = 0; r < m; ++r) {
    std::int16_t* panel = out.panels.data() + (r / kPanelRows) * out.kp * kPanelRows;
    const std::size_t rr = r % kPanelRows;
    const float* row = w + r * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      panel[(kk / kGroupS16) * (kPanelRows * kGroupS16) + rr * kGroupS16 + kk % kGroupS16] =
          static_cast<std::int16_t>(fixed_quantize(row[kk], format));
    }
    out.seed[r] = fixed_quantize(bias[r], format) << format.frac_bits;
  }
}

std::size_t packed_b_size_s8(std::size_t n, std::size_t k) {
  return panel_count_cols(n) * padded_k_s8(k) * kPanelCols;
}

std::size_t packed_b_size_s16(std::size_t n, std::size_t k) {
  return panel_count_cols(n) * padded_k_s16(k) * kPanelCols;
}

void im2col_pack_s8(const std::int8_t* in, std::size_t c_stride, std::size_t channels,
                    std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                    std::size_t oh, std::size_t ow, std::uint8_t* bpack, std::size_t col0,
                    std::size_t n_total) {
  (void)n_total;
  im2col_pack_s8(in, ConvShape{c_stride, channels, ih, iw, kh, kw, oh, ow}, 0, oh * ow, bpack,
                 col0);
}

void im2col_pack_s8(const std::int8_t* in, const ConvShape& s, std::size_t first,
                    std::size_t last, std::uint8_t* bpack, std::size_t col0) {
  if (detail::im2col_int_avx512_available() &&
      detail::im2col_pack_s8_avx512(in, s, first, last, bpack, col0)) {
    return;
  }
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available()) {
    detail::im2col_pack_s8_avx2(in, s, first, last, bpack, col0);
    return;
  }
#endif
  detail::im2col_pack_s8_ref(in, s, first, last, bpack, col0);
}

void im2col_pack_s16(const std::int16_t* in, const ConvShape& s, std::size_t first,
                     std::size_t last, std::int16_t* bpack, std::size_t col0) {
  if (detail::im2col_int_avx512_available() &&
      detail::im2col_pack_s16_avx512(in, s, first, last, bpack, col0)) {
    return;
  }
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available()) {
    detail::im2col_pack_s16_avx2(in, s, first, last, bpack, col0);
    return;
  }
#endif
  detail::im2col_pack_s16_ref(in, s, first, last, bpack, col0);
}

void detail::im2col_pack_s8_ref(const std::int8_t* in, const ConvShape& s, std::size_t first,
                                std::size_t last, std::uint8_t* bpack, std::size_t col0) {
  // Same depth order k = (c*kh + ky)*kw + kx as the float im2col_pack. The
  // packed layout puts a column's 4-k group in one contiguous dword
  // ((k/4)*64 + j*4 + k%4), so instead of scattering bytes at stride 4 we
  // assemble each dword and store it whole. When the group's 4 k values sit in
  // one kernel row (kx..kx+3 < kw) their sources are 4 adjacent input bytes —
  // one unaligned u32 load — and the +128 u8 offset is a single
  // xor 0x80808080 on the dword.
  const std::size_t kh = s.kh, kw = s.kw, iw = s.iw, ow = s.ow;
  const std::size_t kk_total = s.k();
  const std::size_t kp = padded_k_s8(kk_total);
  const std::size_t panel_stride = kp * kPanelCols;
  constexpr std::uint32_t kOffset = 0x80808080u;  // +128 per byte == flip sign bit
  for (std::size_t k0 = 0; k0 < kk_total; k0 += kGroupS8) {
    const std::size_t live = std::min(kGroupS8, kk_total - k0);
    // Per-k source row base; the column's (y, x) adds y*iw + x to each.
    const std::int8_t* src_k[kGroupS8] = {};
    for (std::size_t b = 0; b < live; ++b) {
      const std::size_t k = k0 + b;
      const std::size_t c = k / (kh * kw), rem = k % (kh * kw);
      src_k[b] = in + c * s.c_stride + (rem / kw) * iw + rem % kw;
    }
    // Padding lanes of a partial tail group alias lane 0: the weight panels
    // are zero there, so the byte value never reaches an accumulator, and
    // both engines read the identical buffer either way.
    const std::int8_t* s0 = src_k[0];
    const std::int8_t* s1 = live > 1 ? src_k[1] : s0;
    const std::int8_t* s2 = live > 2 ? src_k[2] : s0;
    const std::int8_t* s3 = live > 3 ? src_k[3] : s0;
    const std::size_t group_off = (k0 / kGroupS8) * (kPanelCols * kGroupS8);
    // One output row's run of columns at a time.
    for (std::size_t i = first; i < last;) {
      const std::size_t y = i / ow;
      std::size_t x = i % ow;
      const std::size_t end = std::min(ow, x + (last - i));
      const std::size_t g = col0 + (i - first);
      i += end - x;
      std::size_t j = g % kPanelCols;
      std::uint8_t* panel = bpack + (g / kPanelCols) * panel_stride + group_off;
      const std::size_t yoff = y * iw;
      while (x < end) {
        std::size_t chunk = std::min(end - x, kPanelCols - j);
#if defined(__SSE2__)
        // 4x8 byte transpose: 8 bytes from each source row interleave into
        // 8 consecutive column dwords (two punpck levels), offset to u8 with
        // one xor.
        for (; chunk >= 8; chunk -= 8, x += 8, j += 8) {
          const __m128i a =
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s0 + yoff + x));
          const __m128i b =
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s1 + yoff + x));
          const __m128i c2 =
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s2 + yoff + x));
          const __m128i d =
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s3 + yoff + x));
          const __m128i ab = _mm_unpacklo_epi8(a, b);
          const __m128i cd = _mm_unpacklo_epi8(c2, d);
          const __m128i off = _mm_set1_epi8(static_cast<char>(0x80));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + j * kGroupS8),
                           _mm_xor_si128(_mm_unpacklo_epi16(ab, cd), off));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + j * kGroupS8 + 16),
                           _mm_xor_si128(_mm_unpackhi_epi16(ab, cd), off));
        }
#endif
        for (; chunk > 0; --chunk, ++x, ++j) {
          std::uint32_t v =
              static_cast<std::uint32_t>(static_cast<std::uint8_t>(s0[yoff + x])) |
              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(s1[yoff + x])) << 8) |
              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(s2[yoff + x])) << 16) |
              (static_cast<std::uint32_t>(static_cast<std::uint8_t>(s3[yoff + x])) << 24);
          v ^= kOffset;
          std::memcpy(panel + j * kGroupS8, &v, sizeof(v));
        }
        if (j == kPanelCols) {
          j = 0;
          panel += panel_stride;
        }
      }
    }
  }
}

void detail::im2col_pack_s16_ref(const std::int16_t* in, const ConvShape& s,
                                 std::size_t first, std::size_t last, std::int16_t* bpack,
                                 std::size_t col0) {
  // Mirror of im2col_pack_s8_ref: a column's k-pair is one contiguous dword
  // ((k/2)*32 + j*2 + k%2), assembled with a single unaligned u32 load when
  // the pair sits in one kernel row (kx + 1 < kw).
  const std::size_t kh = s.kh, kw = s.kw, iw = s.iw, ow = s.ow;
  const std::size_t kk_total = s.k();
  const std::size_t kp = padded_k_s16(kk_total);
  const std::size_t panel_stride = kp * kPanelCols;
  for (std::size_t k0 = 0; k0 < kk_total; k0 += kGroupS16) {
    const std::size_t live = std::min(kGroupS16, kk_total - k0);
    const std::int16_t* src_k[kGroupS16] = {};
    for (std::size_t b = 0; b < live; ++b) {
      const std::size_t k = k0 + b;
      const std::size_t c = k / (kh * kw), rem = k % (kh * kw);
      src_k[b] = in + c * s.c_stride + (rem / kw) * iw + rem % kw;
    }
    const bool contiguous = live == kGroupS16 && src_k[1] == src_k[0] + 1;
    const std::size_t group_off = (k0 / kGroupS16) * (kPanelCols * kGroupS16);
    // One output row's run of columns at a time.
    for (std::size_t i = first; i < last;) {
      const std::size_t y = i / ow, x0 = i % ow;
      const std::size_t end = std::min(ow, x0 + (last - i));
      const std::size_t g = col0 + (i - first);
      i += end - x0;
      std::size_t j = g % kPanelCols;
      std::int16_t* panel = bpack + (g / kPanelCols) * panel_stride + group_off;
      const std::size_t yoff = y * iw;
      for (std::size_t x = x0; x < end; ++x) {
        if (contiguous) {
          std::uint32_t v;
          std::memcpy(&v, src_k[0] + yoff + x, sizeof(v));
          std::memcpy(panel + j * kGroupS16, &v, sizeof(v));
        } else {
          for (std::size_t b = 0; b < live; ++b) {
            panel[j * kGroupS16 + b] = src_k[b][yoff + x];
          }
        }
        if (++j == kPanelCols) {
          j = 0;
          panel += panel_stride;
        }
      }
    }
  }
}

void pack_b_s8(const void* const* rows, std::size_t n, std::size_t k,
               std::uint8_t* bpack) {
  const std::size_t kp = padded_k_s8(k);
  for (std::size_t q = 0; q < panel_count_cols(n); ++q) {
    std::uint8_t* panel = bpack + q * kp * kPanelCols;
    const std::size_t live = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t j = 0; j < live; ++j) {
      const auto* src = static_cast<const std::int8_t*>(rows[q * kPanelCols + j]);
      for (std::size_t kk = 0; kk < k; ++kk) {
        panel[(kk / kGroupS8) * (kPanelCols * kGroupS8) + j * kGroupS8 + kk % kGroupS8] =
            static_cast<std::uint8_t>(src[kk] + 128);
      }
    }
  }
}

void pack_b_s16(const void* const* rows, std::size_t n, std::size_t k,
                std::int16_t* bpack) {
  const std::size_t kp = padded_k_s16(k);
  for (std::size_t q = 0; q < panel_count_cols(n); ++q) {
    std::int16_t* panel = bpack + q * kp * kPanelCols;
    const std::size_t live = std::min(kPanelCols, n - q * kPanelCols);
    for (std::size_t j = 0; j < live; ++j) {
      const auto* src = static_cast<const std::int16_t*>(rows[q * kPanelCols + j]);
      for (std::size_t kk = 0; kk < k; ++kk) {
        panel[(kk / kGroupS16) * (kPanelCols * kGroupS16) + j * kGroupS16 + kk % kGroupS16] =
            src[kk];
      }
    }
  }
}

namespace {

/// Zero the padding of freshly packed B panels whose (column, k-group) cells
/// are dwords of 4 / elem_bytes values: the dead columns of the last panel,
/// and every value at k >= `k` in every panel. Each panel holds kp / group
/// rows of 16 dwords, so both are byte masks over whole 64-byte rows, applied
/// a word at a time.
void zero_panel_padding(std::uint8_t* bpack, std::size_t n, std::size_t k, std::size_t kp,
                        std::size_t elem_bytes) {
  constexpr std::size_t kRowBytes = kPanelCols * 4;
  constexpr std::size_t kWords = kRowBytes / sizeof(std::uint64_t);
  const std::size_t group = 4 / elem_bytes;
  const std::size_t rows = kp / group;
  const std::size_t panels = panel_count_cols(n);
  if (panels == 0) return;
  // AND every row with `keep` (word w covers bytes [8w, 8w + 8)).
  const auto mask_rows = [](std::uint8_t* row, std::size_t count, const std::uint64_t* keep) {
    for (std::size_t r = 0; r < count; ++r, row += kRowBytes) {
      for (std::size_t w = 0; w < kWords; ++w) {
        std::uint64_t v;
        std::memcpy(&v, row + 8 * w, sizeof(v));
        v &= keep[w];
        std::memcpy(row + 8 * w, &v, sizeof(v));
      }
    }
  };
  const std::size_t live = n - (panels - 1) * kPanelCols;
  if (live < kPanelCols) {
    std::uint8_t live_bytes[kRowBytes];  // the live columns' dwords
    for (std::size_t b = 0; b < kRowBytes; ++b) live_bytes[b] = b < live * 4 ? 0xFF : 0;
    std::uint64_t keep[kWords];
    std::memcpy(keep, live_bytes, sizeof(keep));
    mask_rows(bpack + (panels - 1) * rows * kRowBytes, rows, keep);
  }
  const std::size_t full_rows = k / group;
  const std::size_t tail_bytes = (k % group) * elem_bytes;  // live bytes of a partial group
  // Every word of a partial group's row keeps the same bytes: two dwords'
  // first tail_bytes.
  std::uint8_t keep_bytes[sizeof(std::uint64_t)];
  for (std::size_t b = 0; b < sizeof(keep_bytes); ++b) {
    keep_bytes[b] = b % 4 < tail_bytes ? 0xFF : 0;
  }
  std::uint64_t keep_word;
  std::memcpy(&keep_word, keep_bytes, sizeof(keep_word));
  std::uint64_t keep[kWords];
  for (std::uint64_t& w : keep) w = keep_word;
  for (std::size_t q = 0; q < panels; ++q) {
    std::uint8_t* pad = bpack + (q * rows + full_rows) * kRowBytes;
    std::size_t pad_rows = rows - full_rows;
    if (tail_bytes > 0) {
      mask_rows(pad, 1, keep);
      pad += kRowBytes;
      --pad_rows;
    }
    std::memset(pad, 0, pad_rows * kRowBytes);
  }
}

}  // namespace

void finish_pack_s8(std::uint8_t* bpack, std::size_t n, std::size_t k) {
  // k padding pairs with zero weight padding, so the byte value only has to
  // be deterministic; zero keeps the products inert.
  zero_panel_padding(bpack, n, k, padded_k_s8(k), sizeof(std::uint8_t));
}

void finish_pack_s16(std::int16_t* bpack, std::size_t n, std::size_t k) {
  zero_panel_padding(reinterpret_cast<std::uint8_t*>(bpack), n, k, padded_k_s16(k),
                     sizeof(std::int16_t));
}

namespace detail {

void gemm_s8_ref(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                 const FixedPointFormat& format, int act, std::int8_t* c, std::size_t ldc) {
  const int frac = format.frac_bits;
  const std::int32_t half = std::int32_t{1} << (frac - 1);
  const bool relu = act == static_cast<int>(ActKind::kReLU);
  const std::size_t kp = a.kp;
  for (std::size_t m = 0; m < a.rows; ++m) {
    const std::int8_t* apanel = a.panels.data() + (m / kPanelRows) * kp * kPanelRows;
    const std::size_t rr = m % kPanelRows;
    for (std::size_t col = 0; col < n; ++col) {
      const std::uint8_t* bpanel = bpack + (col / kPanelCols) * kp * kPanelCols;
      const std::size_t j = col % kPanelCols;
      std::uint32_t acc = static_cast<std::uint32_t>(a.seed[m]);
      for (std::size_t kk = 0; kk < a.cols; ++kk) {
        const std::size_t group = kk / kGroupS8, lane = kk % kGroupS8;
        const std::int32_t w =
            apanel[group * (kPanelRows * kGroupS8) + rr * kGroupS8 + lane];
        const std::int32_t x =
            bpanel[group * (kPanelCols * kGroupS8) + j * kGroupS8 + lane];
        acc += static_cast<std::uint32_t>(w * x);
      }
      std::int32_t v = renorm_clamp<-128, 127>(acc, half, frac);
      if (relu && v < 0) v = 0;
      c[m * ldc + col] = static_cast<std::int8_t>(v);
    }
  }
}

void gemm_s16_ref(const PackedWeightsS16& a, const std::int16_t* bpack, std::size_t n,
                  const FixedPointFormat& format, int act, std::int16_t* c,
                  std::size_t ldc) {
  const int frac = format.frac_bits;
  const std::int32_t half = std::int32_t{1} << (frac - 1);
  const bool relu = act == static_cast<int>(ActKind::kReLU);
  const std::size_t kp = a.kp;
  for (std::size_t m = 0; m < a.rows; ++m) {
    const std::int16_t* apanel = a.panels.data() + (m / kPanelRows) * kp * kPanelRows;
    const std::size_t rr = m % kPanelRows;
    for (std::size_t col = 0; col < n; ++col) {
      const std::int16_t* bpanel = bpack + (col / kPanelCols) * kp * kPanelCols;
      const std::size_t j = col % kPanelCols;
      std::uint32_t acc = static_cast<std::uint32_t>(a.seed[m]);
      for (std::size_t kk = 0; kk < a.cols; ++kk) {
        const std::size_t group = kk / kGroupS16, lane = kk % kGroupS16;
        const std::int32_t w =
            apanel[group * (kPanelRows * kGroupS16) + rr * kGroupS16 + lane];
        const std::int32_t x =
            bpanel[group * (kPanelCols * kGroupS16) + j * kGroupS16 + lane];
        acc += static_cast<std::uint32_t>(w * x);
      }
      std::int32_t v = renorm_clamp<-32768, 32767>(acc, half, frac);
      if (relu && v < 0) v = 0;
      c[m * ldc + col] = static_cast<std::int16_t>(v);
    }
  }
}

}  // namespace detail

namespace {

IntMicrokernel resolve_int_microkernel() {
  if (int_microkernel_available(IntMicrokernel::kAvx512Vnni)) {
    return IntMicrokernel::kAvx512Vnni;
  }
  if (int_microkernel_available(IntMicrokernel::kAvxVnni)) return IntMicrokernel::kAvxVnni;
  return IntMicrokernel::kAvx2;
}

IntMicrokernel& mutable_int_microkernel() {
  static IntMicrokernel mk = resolve_int_microkernel();
  return mk;
}

}  // namespace

const char* int_microkernel_name(IntMicrokernel mk) {
  switch (mk) {
    case IntMicrokernel::kAvx2: return "avx2";
    case IntMicrokernel::kAvxVnni: return "avxvnni";
    case IntMicrokernel::kAvx512Vnni: return "avx512vnni";
  }
  return "?";
}

bool detail::im2col_int_avx512_available() {
#ifdef CNN2FPGA_HAVE_AVX512VBMI
  static const bool available =
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vbmi");
  return available;
#else
  return false;
#endif
}

bool int_microkernel_available(IntMicrokernel mk) {
  if (!avx2_available()) return false;
  switch (mk) {
    case IntMicrokernel::kAvx2: return true;
    case IntMicrokernel::kAvxVnni:
#ifdef CNN2FPGA_HAVE_AVXVNNI
      return __builtin_cpu_supports("avxvnni");
#else
      return false;
#endif
    case IntMicrokernel::kAvx512Vnni:
#ifdef CNN2FPGA_HAVE_AVX512VNNI
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vnni");
#else
      return false;
#endif
  }
  return false;
}

IntMicrokernel int_microkernel() { return mutable_int_microkernel(); }

ScopedIntMicrokernel::ScopedIntMicrokernel(IntMicrokernel mk)
    : previous_(mutable_int_microkernel()) {
  if (!int_microkernel_available(mk)) {
    throw std::runtime_error(std::string("ScopedIntMicrokernel: ") + int_microkernel_name(mk) +
                             " is unavailable on this host");
  }
  mutable_int_microkernel() = mk;
}

ScopedIntMicrokernel::~ScopedIntMicrokernel() { mutable_int_microkernel() = previous_; }

void gemm_s8(Kind kind, const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
             const FixedPointFormat& format, int act, std::int8_t* c, std::size_t ldc) {
  if (kind == Kind::kScalar) {
    detail::gemm_s8_ref(a, bpack, n, format, act, c, ldc);
    return;
  }
  switch (int_microkernel()) {
    case IntMicrokernel::kAvx2: detail::gemm_s8_avx2(a, bpack, n, format, act, c, ldc); return;
    case IntMicrokernel::kAvxVnni:
      detail::gemm_s8_avxvnni(a, bpack, n, format, act, c, ldc);
      return;
    case IntMicrokernel::kAvx512Vnni:
      detail::gemm_s8_avx512vnni(a, bpack, n, format, act, c, ldc);
      return;
  }
}

void gemm_s16(Kind kind, const PackedWeightsS16& a, const std::int16_t* bpack,
              std::size_t n, const FixedPointFormat& format, int act, std::int16_t* c,
              std::size_t ldc) {
  if (kind == Kind::kScalar) {
    detail::gemm_s16_ref(a, bpack, n, format, act, c, ldc);
    return;
  }
  switch (int_microkernel()) {
    case IntMicrokernel::kAvx2:
      detail::gemm_s16_avx2(a, bpack, n, format, act, c, ldc);
      return;
    case IntMicrokernel::kAvxVnni:
      detail::gemm_s16_avxvnni(a, bpack, n, format, act, c, ldc);
      return;
    case IntMicrokernel::kAvx512Vnni:
      detail::gemm_s16_avx512vnni(a, bpack, n, format, act, c, ldc);
      return;
  }
}

std::size_t conv_block_size_s8(std::size_t k) { return packed_b_size_s8(kConvBlockCols, k); }

std::size_t conv_block_size_s16(std::size_t k) {
  return packed_b_size_s16(kConvBlockCols, k);
}

void conv_step_s8(Kind kind, const PackedWeightsS8& a, const FixedPointFormat& format, int act,
                  const std::int8_t* in, std::size_t image_stride, std::size_t count,
                  const ConvShape& s, std::uint8_t* block, std::int8_t* c) {
  const std::size_t n = count * s.cols();
  detail::for_each_conv_block(
      s.cols(), count,
      [&](std::size_t b, std::size_t first, std::size_t last, std::size_t col) {
        im2col_pack_s8(in + b * image_stride, s, first, last, block, col);
      },
      [&](std::size_t col0, std::size_t width) {
        finish_pack_s8(block, width, a.cols);
        gemm_s8(kind, a, block, width, format, act, c + col0, n);
      });
}

void conv_step_s16(Kind kind, const PackedWeightsS16& a, const FixedPointFormat& format,
                   int act, const std::int16_t* in, std::size_t image_stride,
                   std::size_t count, const ConvShape& s, std::int16_t* block,
                   std::int16_t* c) {
  const std::size_t n = count * s.cols();
  detail::for_each_conv_block(
      s.cols(), count,
      [&](std::size_t b, std::size_t first, std::size_t last, std::size_t col) {
        im2col_pack_s16(in + b * image_stride, s, first, last, block, col);
      },
      [&](std::size_t col0, std::size_t width) {
        finish_pack_s16(block, width, a.cols);
        gemm_s16(kind, a, block, width, format, act, c + col0, n);
      });
}

namespace {

/// Integer pooling shared by both engines: max is value-exact; mean uses the
/// symmetric round-half-away divide + saturate of fixed_inference's run_pool.
template <typename T>
void pool_plane_int(bool is_max, const T* in, std::size_t ih, std::size_t iw,
                    std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                    std::size_t ow, T* out, const FixedPointFormat& format) {
  (void)ih;
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      if (is_max) {
        T best = in[(i * step) * iw + j * step];
        for (std::size_t m = 0; m < kh; ++m) {
          for (std::size_t n2 = 0; n2 < kw; ++n2) {
            best = std::max(best, in[(i * step + m) * iw + (j * step + n2)]);
          }
        }
        out[i * ow + j] = best;
      } else {
        std::int64_t acc = 0;
        for (std::size_t m = 0; m < kh; ++m) {
          for (std::size_t n2 = 0; n2 < kw; ++n2) {
            acc += in[(i * step + m) * iw + (j * step + n2)];
          }
        }
        const std::int64_t window = static_cast<std::int64_t>(kh * kw);
        const std::int64_t mean =
            acc >= 0 ? (acc + window / 2) / window : -((-acc + window / 2) / window);
        out[i * ow + j] = static_cast<T>(fixed_saturate(mean, format));
      }
    }
  }
}

}  // namespace

void pool_plane_s8(bool is_max, const std::int8_t* in, std::size_t ih, std::size_t iw,
                   std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                   std::size_t ow, std::int8_t* out, const FixedPointFormat& format) {
  pool_plane_int(is_max, in, ih, iw, kh, kw, step, oh, ow, out, format);
}

void pool_plane_s16(bool is_max, const std::int16_t* in, std::size_t ih, std::size_t iw,
                    std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                    std::size_t ow, std::int16_t* out, const FixedPointFormat& format) {
  pool_plane_int(is_max, in, ih, iw, kh, kw, step, oh, ow, out, format);
}

namespace {

/// pool_layer_s8/_s16: the vector pass, or the plane loop without AVX2 or for
/// a window too large for its int32 sums.
template <typename T, typename Pass>
void pool_layer_int(bool is_max, const T* in, const PoolShape& s, T* out,
                    const FixedPointFormat& format, Pass avx2) {
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available() && s.kh * s.kw < 65536) {
    avx2(is_max, in, s, out, format);
    return;
  }
#else
  (void)avx2;
#endif
  for (std::size_t p = 0; p < s.planes; ++p) {
    pool_plane_int(is_max, in + p * s.ih * s.iw, s.ih, s.iw, s.kh, s.kw, s.step, s.oh, s.ow,
                   out + p * s.oh * s.ow, format);
  }
}

}  // namespace

void pool_layer_s8(bool is_max, const std::int8_t* in, const PoolShape& s, std::int8_t* out,
                   const FixedPointFormat& format) {
  pool_layer_int(is_max, in, s, out, format, detail::pool_layer_s8_avx2);
}

void pool_layer_s16(bool is_max, const std::int16_t* in, const PoolShape& s,
                    std::int16_t* out, const FixedPointFormat& format) {
  pool_layer_int(is_max, in, s, out, format, detail::pool_layer_s16_avx2);
}

void quantize_input_s8(const float* in, std::size_t n, const FixedPointFormat& format,
                       std::int8_t* out) {
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available()) {
    detail::quantize_s8_avx2(in, n, format, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int8_t>(fixed_quantize(in[i], format));
  }
}

void quantize_input_s16(const float* in, std::size_t n, const FixedPointFormat& format,
                        std::int16_t* out) {
#ifdef CNN2FPGA_HAVE_AVX2
  if (avx2_available()) {
    detail::quantize_s16_avx2(in, n, format, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int16_t>(fixed_quantize(in[i], format));
  }
}

void activation_lut_s8(ActKind act, const std::int8_t* lut, const std::int8_t* in,
                       std::int8_t* out, std::size_t n) {
  if (act == ActKind::kReLU) {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : std::int8_t{0};
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = lut[static_cast<int>(in[i]) + 128];
}

void activation_lut_s16(ActKind act, const std::int16_t* lut, const std::int16_t* in,
                        std::int16_t* out, std::size_t n) {
  if (act == ActKind::kReLU) {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : std::int16_t{0};
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lut[static_cast<std::uint16_t>(in[i])];
  }
}

QuantPackCache::QuantPackCache(std::size_t layer_count, ServePrecision precision)
    : precision_(precision), format_(serve_precision_format(precision)) {
  entries_.reserve(layer_count);
  for (std::size_t i = 0; i < layer_count; ++i) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

const PackedWeightsS8& QuantPackCache::get8(std::size_t layer, const float* w,
                                            const float* bias, std::size_t m,
                                            std::size_t k) {
  if (layer >= entries_.size()) throw std::out_of_range("QuantPackCache::get8: layer index");
  Entry& e = *entries_[layer];
  std::call_once(e.once, [&] { pack_weights_s8(w, bias, m, k, format_, e.p8); });
  return e.p8;
}

const PackedWeightsS16& QuantPackCache::get16(std::size_t layer, const float* w,
                                              const float* bias, std::size_t m,
                                              std::size_t k) {
  if (layer >= entries_.size()) throw std::out_of_range("QuantPackCache::get16: layer index");
  Entry& e = *entries_[layer];
  std::call_once(e.once, [&] { pack_weights_s16(w, bias, m, k, format_, e.p16); });
  return e.p16;
}

const std::int8_t* QuantPackCache::lut8(ActKind act) {
  Lut& lut = luts_.at(static_cast<std::size_t>(act));
  std::call_once(lut.once, [&] {
    lut.t8.resize(256);
    for (int raw = -128; raw <= 127; ++raw) {
      const float y = Activation::apply(act, fixed_dequantize(raw, format_));
      lut.t8[raw + 128] = static_cast<std::int8_t>(fixed_quantize(y, format_));
    }
  });
  return lut.t8.data();
}

const std::int16_t* QuantPackCache::lut16(ActKind act) {
  Lut& lut = luts_.at(static_cast<std::size_t>(act));
  std::call_once(lut.once, [&] {
    lut.t16.resize(65536);
    for (int raw = -32768; raw <= 32767; ++raw) {
      const float y = Activation::apply(act, fixed_dequantize(raw, format_));
      lut.t16[static_cast<std::uint16_t>(raw)] =
          static_cast<std::int16_t>(fixed_quantize(y, format_));
    }
  });
  return lut.t16.data();
}

#ifndef CNN2FPGA_HAVE_AVX2
namespace detail {
namespace {
[[noreturn]] void no_avx2_int() {
  throw std::runtime_error("cnn2fpga: AVX2 int kernel invoked but engine not compiled in");
}
}  // namespace

void gemm_s8_avx2(const PackedWeightsS8&, const std::uint8_t*, std::size_t,
                  const FixedPointFormat&, int, std::int8_t*, std::size_t) {
  no_avx2_int();
}
void gemm_s16_avx2(const PackedWeightsS16&, const std::int16_t*, std::size_t,
                   const FixedPointFormat&, int, std::int16_t*, std::size_t) {
  no_avx2_int();
}
void pool_layer_s8_avx2(bool, const std::int8_t*, const PoolShape&, std::int8_t*,
                        const FixedPointFormat&) {
  no_avx2_int();
}
void pool_layer_s16_avx2(bool, const std::int16_t*, const PoolShape&, std::int16_t*,
                         const FixedPointFormat&) {
  no_avx2_int();
}
}  // namespace detail
#endif  // !CNN2FPGA_HAVE_AVX2

#ifndef CNN2FPGA_HAVE_AVX512VBMI
// Decline every geometry, so im2col_pack_s8/_s16 run the AVX2 packers.
bool detail::im2col_pack_s8_avx512(const std::int8_t*, const ConvShape&, std::size_t,
                                   std::size_t, std::uint8_t*, std::size_t) {
  return false;
}
bool detail::im2col_pack_s16_avx512(const std::int16_t*, const ConvShape&, std::size_t,
                                    std::size_t, std::int16_t*, std::size_t) {
  return false;
}
#endif

// int_microkernel() never names a VNNI kernel that is not compiled in; these
// stubs only satisfy the linker.
namespace detail {
namespace {
[[noreturn, maybe_unused]] void no_vnni(const char* which) {
  throw std::runtime_error(std::string("cnn2fpga: ") + which +
                           " int kernel invoked but not compiled in");
}
}  // namespace
#ifndef CNN2FPGA_HAVE_AVXVNNI
void gemm_s8_avxvnni(const PackedWeightsS8&, const std::uint8_t*, std::size_t,
                     const FixedPointFormat&, int, std::int8_t*, std::size_t) {
  no_vnni("avxvnni");
}
void gemm_s16_avxvnni(const PackedWeightsS16&, const std::int16_t*, std::size_t,
                      const FixedPointFormat&, int, std::int16_t*, std::size_t) {
  no_vnni("avxvnni");
}
#endif
#ifndef CNN2FPGA_HAVE_AVX512VNNI
void gemm_s8_avx512vnni(const PackedWeightsS8&, const std::uint8_t*, std::size_t,
                        const FixedPointFormat&, int, std::int8_t*, std::size_t) {
  no_vnni("avx512vnni");
}
void gemm_s16_avx512vnni(const PackedWeightsS16&, const std::int16_t*, std::size_t,
                         const FixedPointFormat&, int, std::int16_t*, std::size_t) {
  no_vnni("avx512vnni");
}
#endif
}  // namespace detail

}  // namespace cnn2fpga::nn::kernels
