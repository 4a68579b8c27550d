// The int8 conv packer on AVX-512 VBMI (built with -mavx512bw -mavx512vbmi,
// see src/nn/CMakeLists.txt). im2col_pack_s8 prefers it when
// im2col_s8_avx512_available() and runs the AVX2 packer for the geometries
// it declines. It writes the panels the other packers write.
//
// Byte t of column j's dword in a panel row is the input element at
// off_j + kb_t: the column's output pixel in input coordinates plus the
// kernel offset of the group's t-th k. A panel's 16 off_j lie within
// `spread` bytes of the first (15, plus iw - ow per output row crossed), so
// when a group's kb_t lie within 64 - spread bytes of one another one 64-byte
// load holds the whole row, and the index (off_j - off_0) + (kb_t - kb_0)
// puts every byte in place. Later k that lie further off (past a channel
// plane) come from a second load, picked with index bit 6. A row costs two
// loads, one vpermt2b, an add and the +128 xor, where the AVX2 packer
// gathers and interleaves 16-element loads per k.
//
// Bounds: a panel whose loads could pass the end of the image's last plane
// masks each load there (masked-out bytes are neither read nor faulted on).
// Loaded bytes lie in the image's planes or between them, within the
// caller's buffer, and only the row's own elements are picked. Stores are
// masked to the image's own lanes, as the other packers write them.
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

/// One k-group: where its two loads start, relative to a panel's first
/// element, and the four bytes (kb_t less its load's start, plus 64 for the
/// second load) each column's dword adds to the column's offset.
struct Group {
  std::ptrdiff_t first, second;
  std::uint32_t picks;
};

/// Bits [0, n) of a 64-bit mask, n in [0, 64].
inline __mmask64 low_bits(std::ptrdiff_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

}  // namespace

bool im2col_pack_s8_avx512(const std::int8_t* in, std::size_t c_stride, std::size_t channels,
                           std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                           std::size_t oh, std::size_t ow, std::uint8_t* bpack,
                           std::size_t col0, std::size_t n_total) {
  (void)n_total;
  const std::size_t k_total = channels * kh * kw;
  const std::size_t n_img = oh * ow;
  if (n_img == 0 || k_total == 0) return true;
  const std::size_t skip = iw - ow;  // input bytes between output rows
  const auto spread = static_cast<std::ptrdiff_t>(15 + (15 + ow - 1) / ow * skip);
  if (spread >= 64) return false;

  // The group table, walking k = (c*kh + ky)*kw + kx. The padding k of a
  // partial last group pick the group's first k, as the other packers
  // repeat it, and finish_pack_s8 zeroes them.
  const std::size_t groups = (k_total + 3) / 4;
  constexpr std::size_t kStackGroups = 128;
  Group stack_plan[kStackGroups];
  std::vector<Group> heap_plan;
  Group* plan = stack_plan;
  if (groups > kStackGroups) {
    heap_plan.resize(groups);
    plan = heap_plan.data();
  }
  std::ptrdiff_t reach = 0;  // the furthest load start
  std::size_t c = 0, ky = 0, kx = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    Group& group = plan[g];
    bool in_second = false;
    for (std::size_t t = 0; t < 4 && 4 * g + t < k_total; ++t) {
      const auto kb = static_cast<std::ptrdiff_t>(c * c_stride + ky * iw + kx);
      if (t == 0) group = {kb, kb, 0};
      if (!in_second && kb - group.first + spread >= 64) {
        in_second = true;
        group.second = kb;
      }
      const std::ptrdiff_t pick = kb - (in_second ? group.second : group.first);
      if (pick + spread >= 64) return false;
      group.picks |= static_cast<std::uint32_t>(pick + (in_second ? 64 : 0)) << (8 * t);
      if (++kx == kw) {
        kx = 0;
        if (++ky == kh) {
          ky = 0;
          ++c;
        }
      }
    }
    reach = std::max(reach, group.second);
  }

  const std::size_t panel_groups = padded_k_s8(k_total) / 4;
  const auto end = static_cast<std::ptrdiff_t>((channels - 1) * c_stride + ih * iw);
  const __m512i offset = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  // Byte 0 of each dword into all four of its bytes.
  const __m512i low_byte = _mm512_set4_epi32(0x0C0C0C0C, 0x08080808, 0x04040404, 0);
  std::size_t y = 0, x = 0;  // output pixel of the next column
  for (std::size_t q = col0 / kPanelCols; q * kPanelCols < col0 + n_img; ++q) {
    const std::size_t first = q * kPanelCols;
    const auto l0 = static_cast<int>(std::max(col0, first) - first);
    const auto l1 = static_cast<int>(std::min(col0 + n_img, first + kPanelCols) - first);
    const __mmask16 live_lanes =
        static_cast<__mmask16>(((1u << l1) - 1) & ~((1u << l0) - 1));
    // Column l0 + i is i input bytes past the first live column, plus
    // `skip` for each output row it lies beyond that column's row; dead
    // columns read the first element and are not stored.
    const auto base = static_cast<std::ptrdiff_t>(y * iw + x);
    __m512i cols = _mm512_sub_epi32(lane, _mm512_set1_epi32(l0));
    for (int edge = l0 + static_cast<int>(ow - x); edge < l1; edge += static_cast<int>(ow)) {
      cols = _mm512_mask_add_epi32(cols, _mm512_cmpge_epi32_mask(lane, _mm512_set1_epi32(edge)),
                                   cols, _mm512_set1_epi32(static_cast<int>(skip)));
    }
    // Full-mask maskz form: GCC 12 warns on the plain form's undefined operand.
    cols = _mm512_maskz_shuffle_epi8(~__mmask64{0}, _mm512_maskz_mov_epi32(live_lanes, cols),
                                     low_byte);
    for (x += static_cast<std::size_t>(l1 - l0); x >= ow; x -= ow) ++y;

    const __mmask64 live = low_bits(4 * l1) & ~low_bits(4 * l0);
    std::uint8_t* row = bpack + q * panel_groups * 64;
    const auto pack_rows = [&](auto near_end) {
      const auto load = [&](std::ptrdiff_t at) {
        if constexpr (decltype(near_end)::value) {
          return _mm512_maskz_loadu_epi8(low_bits(end - at), in + at);
        } else {
          return _mm512_loadu_si512(in + at);
        }
      };
      for (std::size_t g = 0; g < groups; ++g, row += 64) {
        const __m512i lo = load(base + plan[g].first), hi = load(base + plan[g].second);
        const __m512i idx =
            _mm512_add_epi32(cols, _mm512_set1_epi32(static_cast<int>(plan[g].picks)));
        _mm512_mask_storeu_epi8(
            row, live, _mm512_xor_si512(_mm512_permutex2var_epi8(lo, idx, hi), offset));
      }
    };
    if (base + reach + 64 <= end) {
      pack_rows(std::false_type{});
    } else {
      pack_rows(std::true_type{});
    }
  }
  return true;
}

}  // namespace cnn2fpga::nn::kernels::detail
