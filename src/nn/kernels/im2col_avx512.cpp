// The integer conv packers on AVX-512 (built with -mavx512bw -mavx512vbmi,
// see src/nn/CMakeLists.txt): int8 with vpermt2b (VBMI), int16 with
// vpermt2w. im2col_pack_s8/_s16 prefer them when
// im2col_int_avx512_available() and run the AVX2 packer for the geometries
// they decline. They write the panels the other packers write, for a range
// of one image's columns.
//
// Element t of column j's dword in a panel row (one of four bytes, or one
// of two words) is the input element at off_j + kb_t: the column's output
// pixel in input coordinates plus the kernel offset of the group's t-th k.
// A panel's live off_j lie within `spread` elements of the first (one per
// column, plus iw - ow per output row crossed), so when a group's kb_t lie
// within W - spread elements of one another (W = 64 bytes or 32 words, one
// 64-byte load) one load holds the whole row, and the index
// (off_j - off_0) + (kb_t - kb_0) puts every element in place. Later k that
// lie further off (past a channel plane) come from a second load, picked
// with the index bit W. A row costs two loads, one vpermt2b or vpermt2w, an
// add and, for int8, the +128 xor, where the AVX2 packer gathers and
// interleaves 16-element loads per k.
//
// Bounds: a panel whose loads could pass the end of the image's last plane
// masks each load there (masked-out elements are neither read nor faulted
// on). Loaded elements lie in the image's planes or between them, within
// the caller's buffer, and only the row's own elements are picked. Stores
// are masked to the image's own lanes, as the other packers write them.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"

namespace cnn2fpga::nn::kernels::detail {

namespace {

/// Bits [0, n) of a 64-bit mask, n clamped to [0, 64].
inline __mmask64 low_bits(std::ptrdiff_t n) {
  return n >= 64 ? ~__mmask64{0} : n <= 0 ? 0 : (__mmask64{1} << n) - 1;
}

/// What differs between the int8 and the int16 packer.
template <typename T>
struct Elems;

template <>
struct Elems<std::int8_t> {
  using Out = std::uint8_t;              ///< offset-u8 panels
  static constexpr std::ptrdiff_t kW = 64;  ///< elements per 64-byte load
  static std::size_t panel_rows(std::size_t k) { return padded_k_s8(k) / 4; }
  static __m512i load(const std::int8_t* p, std::ptrdiff_t n) {
    return _mm512_maskz_loadu_epi8(low_bits(n), p);
  }
  static __m512i permute(__m512i lo, __m512i idx, __m512i hi) {
    return _mm512_permutex2var_epi8(lo, idx, hi);
  }
  /// Byte 0 of each dword (a column's offset) into all four of its bytes.
  static __m512i per_element(__m512i cols) {
    const __m512i low_byte = _mm512_set4_epi32(0x0C0C0C0C, 0x08080808, 0x04040404, 0);
    // Full-mask maskz form: GCC 12 warns on the plain form's undefined operand.
    return _mm512_maskz_shuffle_epi8(~__mmask64{0}, cols, low_byte);
  }
  /// The +128 u8 offset: flipping each byte's sign bit.
  static __m512i finish(__m512i v) {
    return _mm512_xor_si512(v, _mm512_set1_epi8(static_cast<char>(0x80)));
  }
};

template <>
struct Elems<std::int16_t> {
  using Out = std::int16_t;
  static constexpr std::ptrdiff_t kW = 32;
  static std::size_t panel_rows(std::size_t k) { return padded_k_s16(k) / 2; }
  static __m512i load(const std::int16_t* p, std::ptrdiff_t n) {
    return _mm512_maskz_loadu_epi16(static_cast<__mmask32>(low_bits(n)), p);
  }
  static __m512i permute(__m512i lo, __m512i idx, __m512i hi) {
    return _mm512_permutex2var_epi16(lo, idx, hi);
  }
  /// Word 0 of each dword into both of its words.
  static __m512i per_element(__m512i cols) {
    return _mm512_or_si512(cols, _mm512_maskz_slli_epi32(0xFFFF, cols, 16));
  }
  static __m512i finish(__m512i v) { return v; }
};

/// One k-group: where its two loads start, relative to a panel's first
/// element, and the G elements (kb_t less its load's start, plus W for the
/// second load) each column's dword adds to the column's offset.
struct Group {
  std::ptrdiff_t first, second;
  std::uint32_t picks;
};

/// The group table of one geometry, and whether its rows fit two loads.
struct Plan {
  ConvShape shape{};
  bool fits = false;
  std::ptrdiff_t reach = 0;  ///< the furthest load start
  std::vector<Group> groups;

  bool for_shape(const ConvShape& s) const {
    return !groups.empty() && shape.c_stride == s.c_stride && shape.channels == s.channels &&
           shape.ih == s.ih && shape.iw == s.iw && shape.kh == s.kh && shape.kw == s.kw &&
           shape.oh == s.oh && shape.ow == s.ow;
  }
};

/// The table for `s`, walking k = (c*kh + ky)*kw + kx. The padding k of a
/// partial last group pick the group's first k, as the other packers repeat
/// it, and finish_pack_* zeroes them. A conv step packs its geometry once
/// per block of columns, so each thread keeps the table of the last geometry
/// it packed.
template <typename T>
const Plan& plan_for(const ConvShape& s, std::ptrdiff_t spread) {
  constexpr std::size_t G = 4 / sizeof(T);
  constexpr std::ptrdiff_t kW = Elems<T>::kW;
  thread_local Plan plan;
  if (plan.for_shape(s)) return plan;
  plan.shape = s;
  plan.fits = true;
  plan.reach = 0;
  const std::size_t k_total = s.k();
  plan.groups.assign((k_total + G - 1) / G, Group{});
  std::size_t c = 0, ky = 0, kx = 0;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    Group& group = plan.groups[g];
    bool in_second = false;
    for (std::size_t t = 0; t < G && G * g + t < k_total; ++t) {
      const auto kb = static_cast<std::ptrdiff_t>(c * s.c_stride + ky * s.iw + kx);
      if (t == 0) group = {kb, kb, 0};
      if (!in_second && kb - group.first + spread >= kW) {
        in_second = true;
        group.second = kb;
      }
      const std::ptrdiff_t pick = kb - (in_second ? group.second : group.first);
      plan.fits = plan.fits && pick + spread < kW;
      group.picks |= static_cast<std::uint32_t>(pick + (in_second ? kW : 0))
                     << (8 * sizeof(T) * t);
      if (++kx == s.kw) {
        kx = 0;
        if (++ky == s.kh) {
          ky = 0;
          ++c;
        }
      }
    }
    plan.reach = std::max(plan.reach, group.second);
  }
  return plan;
}

template <typename T>
bool pack(const T* in, const ConvShape& s, std::size_t first, std::size_t last,
          typename Elems<T>::Out* bpack, std::size_t col0) {
  using E = Elems<T>;
  const std::size_t iw = s.iw, ow = s.ow;
  const std::size_t k_total = s.k();
  const std::size_t n_img = last - first;
  if (n_img == 0 || k_total == 0) return true;
  // A panel's live columns are at most 16 consecutive ones of this image.
  const std::size_t live_max = std::min(kPanelCols, s.cols());
  const std::size_t skip = iw - ow;  // input elements between output rows
  const auto spread = static_cast<std::ptrdiff_t>(live_max - 1 + (live_max + ow - 2) / ow * skip);
  if (spread >= E::kW) return false;
  const Plan& table = plan_for<T>(s, spread);
  if (!table.fits) return false;
  const std::size_t groups = table.groups.size();
  const Group* plan = table.groups.data();
  const std::ptrdiff_t reach = table.reach;

  const std::size_t panel_groups = E::panel_rows(k_total);
  const auto end = static_cast<std::ptrdiff_t>((s.channels - 1) * s.c_stride + s.ih * iw);
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  auto* out = reinterpret_cast<std::uint8_t*>(bpack);
  std::size_t y = first / ow, x = first % ow;  // output pixel of the next column
  for (std::size_t q = col0 / kPanelCols; q * kPanelCols < col0 + n_img; ++q) {
    const std::size_t panel0 = q * kPanelCols;
    const auto l0 = static_cast<int>(std::max(col0, panel0) - panel0);
    const auto l1 = static_cast<int>(std::min(col0 + n_img, panel0 + kPanelCols) - panel0);
    const __mmask16 live_lanes =
        static_cast<__mmask16>(((1u << l1) - 1) & ~((1u << l0) - 1));
    // Column l0 + i is i input elements past the first live column, plus
    // `skip` for each output row it lies beyond that column's row; dead
    // columns read the first element and are not stored.
    const auto base = static_cast<std::ptrdiff_t>(y * iw + x);
    __m512i cols = _mm512_sub_epi32(lane, _mm512_set1_epi32(l0));
    for (int edge = l0 + static_cast<int>(ow - x); edge < l1; edge += static_cast<int>(ow)) {
      cols = _mm512_mask_add_epi32(cols, _mm512_cmpge_epi32_mask(lane, _mm512_set1_epi32(edge)),
                                   cols, _mm512_set1_epi32(static_cast<int>(skip)));
    }
    cols = E::per_element(_mm512_maskz_mov_epi32(live_lanes, cols));
    for (x += static_cast<std::size_t>(l1 - l0); x >= ow; x -= ow) ++y;

    const __mmask64 live = low_bits(4 * l1) & ~low_bits(4 * l0);
    std::uint8_t* row = out + q * panel_groups * 64;
    const auto pack_rows = [&](auto near_end) {
      const auto load = [&](std::ptrdiff_t at) {
        if constexpr (decltype(near_end)::value) {
          return E::load(in + at, end - at);
        } else {
          return _mm512_loadu_si512(in + at);
        }
      };
      for (std::size_t g = 0; g < groups; ++g, row += 64) {
        const __m512i lo = load(base + plan[g].first), hi = load(base + plan[g].second);
        const __m512i idx =
            _mm512_add_epi32(cols, _mm512_set1_epi32(static_cast<int>(plan[g].picks)));
        _mm512_mask_storeu_epi8(row, live, E::finish(E::permute(lo, idx, hi)));
      }
    };
    if (base + reach + E::kW <= end) {
      pack_rows(std::false_type{});
    } else {
      pack_rows(std::true_type{});
    }
  }
  return true;
}

}  // namespace

bool im2col_pack_s8_avx512(const std::int8_t* in, const ConvShape& s, std::size_t first,
                           std::size_t last, std::uint8_t* bpack, std::size_t col0) {
  return pack(in, s, first, last, bpack, col0);
}

bool im2col_pack_s16_avx512(const std::int16_t* in, const ConvShape& s, std::size_t first,
                            std::size_t last, std::int16_t* bpack, std::size_t col0) {
  return pack(in, s, first, last, bpack, col0);
}

}  // namespace cnn2fpga::nn::kernels::detail
