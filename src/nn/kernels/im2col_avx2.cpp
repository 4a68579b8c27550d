// AVX2 im2col packers: one template writes the float, int16 and int8 conv
// panels. Compiled with -mavx2 -mfma (src/nn/CMakeLists.txt); the entry
// points in kernels.cpp / kernels_int.cpp call these only when
// avx2_available().
//
// In all three layouts a panel holds 16 columns, and each (column, k-group)
// is one dword: one float, two int16 (k, k+1) or four offset int8
// (k..k+3). So one k-group of a panel is a 64-byte row, and the packers
// build each row in registers and store it whole, walking the panels of an
// image in order and each panel's rows in k order: the writes are
// sequential, where the element loops (the _ref packers) scatter single
// elements 64 bytes apart. A call packs a range of one image's columns, as a
// conv step's block may hold part of an image.
//
// A row gathers, for each k of its group, the 16 input elements its columns
// read. A panel's columns split into runs that lie in one output row; a run's
// elements are contiguous in the input plane. So each k costs one 16-element
// load per run, blended by lane: one plain load for a panel inside one
// output row, two where a panel crosses a row. The G loads of a group are
// then interleaved into column dwords. The int16 and int8 loads keep
// columns 0-7 in the low 128-bit lane and 8-15 in the high one, so the
// interleave never crosses lanes: int16 rows take 2 unpacks, int8 rows 4
// (plus an xor for the u8 offset), and the row is stored as four 16-byte
// quarters. Shuffles run on one port here, so this is what bounds the
// integer packers; a 4-way byte transpose across lanes took 10. int8 panels
// that cross output rows replace the per-run loads and blends by one load
// and one pshufb per 8 columns (plan_shuffle).
//
// Bounds: a load of 16 elements reaches past its run. It is taken only when
// it lies inside the input channel plane; otherwise (near the start or end
// of a plane) that k's elements are copied one by one, so no element outside
// the image's ih*iw planes is ever read. Stores are masked to the image's own
// lanes in the first and last panel, as the element loops write exactly
// those, so the images of a batch can share a panel.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"

namespace cnn2fpga::nn::kernels::detail {

namespace {

/// The values of one k for a panel's 16 columns, in registers.
template <typename T>
struct Col;

template <>
struct Col<float> {
  __m256i lo, hi;  // float bits: packing copies, it never computes
  static Col load(const float* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8))};
  }
  /// All-ones in lanes [a, b).
  static Col lanes(int a, int b) {
    const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i idx_hi = _mm256_add_epi32(idx, _mm256_set1_epi32(8));
    const __m256i lo_bound = _mm256_set1_epi32(a - 1), hi_bound = _mm256_set1_epi32(b);
    return {_mm256_and_si256(_mm256_cmpgt_epi32(idx, lo_bound),
                             _mm256_cmpgt_epi32(hi_bound, idx)),
            _mm256_and_si256(_mm256_cmpgt_epi32(idx_hi, lo_bound),
                             _mm256_cmpgt_epi32(hi_bound, idx_hi))};
  }
  static Col select(Col x, Col y, Col mask) {
    return {_mm256_blendv_epi8(x.lo, y.lo, mask.lo), _mm256_blendv_epi8(x.hi, y.hi, mask.hi)};
  }
};

template <>
struct Col<std::int16_t> {
  __m256i v;  // columns 0-7 in the low lane, 8-15 in the high lane
  static Col load(const std::int16_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static Col lanes(int a, int b) {
    const __m256i idx =
        _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    return {_mm256_and_si256(
        _mm256_cmpgt_epi16(idx, _mm256_set1_epi16(static_cast<std::int16_t>(a - 1))),
        _mm256_cmpgt_epi16(_mm256_set1_epi16(static_cast<std::int16_t>(b)), idx))};
  }
  static Col select(Col x, Col y, Col mask) { return {_mm256_blendv_epi8(x.v, y.v, mask.v)}; }
};

template <>
struct Col<std::int8_t> {
  __m256i v;  // columns 0-7 in bytes 0-7 of the low lane, 8-15 of the high lane
  static Col load(const std::int8_t* p) {
    std::int64_t hi;
    std::memcpy(&hi, p + 8, sizeof(hi));
    return {_mm256_blend_epi32(
        _mm256_castsi128_si256(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))),
        _mm256_set1_epi64x(hi), 0x30)};
  }
  static Col lanes(int a, int b) {
    const __m256i idx = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0,  //
                                         8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 0, 0, 0, 0, 0, 0);
    return {_mm256_and_si256(_mm256_cmpgt_epi8(idx, _mm256_set1_epi8(static_cast<char>(a - 1))),
                             _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(b)), idx))};
  }
  static Col select(Col x, Col y, Col mask) { return {_mm256_blendv_epi8(x.v, y.v, mask.v)}; }
  /// Columns 0-7 from the 16 bytes at `lo`, 8-15 from those at `hi`, each
  /// picked by its lane of `ctrl`.
  static Col shuffle(const std::int8_t* lo, const std::int8_t* hi, __m256i ctrl) {
    return {_mm256_shuffle_epi8(
        _mm256_loadu2_m128i(reinterpret_cast<const __m128i*>(hi),
                            reinterpret_cast<const __m128i*>(lo)),
        ctrl)};
  }
};

/// A finished 64-byte panel row. Float rows are columns 0-7 | 8-15; integer
/// rows hold the quarters (columns 0-3, 4-7, 8-11, 12-15) as a = [q0 | q2]
/// and b = [q1 | q3], as their lane-split interleaves leave them.
struct Row {
  __m256i a, b;
};

/// Interleave the G values of each column into its dword.
inline Row interleave(const Col<float> (&c)[1]) { return {c[0].lo, c[0].hi}; }

inline Row interleave(const Col<std::int16_t> (&c)[2]) {
  return {_mm256_unpacklo_epi16(c[0].v, c[1].v), _mm256_unpackhi_epi16(c[0].v, c[1].v)};
}

/// int8 columns also get the +128 u8 offset: flipping each byte's sign bit.
inline Row interleave(const Col<std::int8_t> (&c)[4]) {
  const __m256i ab = _mm256_unpacklo_epi8(c[0].v, c[1].v);
  const __m256i cd = _mm256_unpacklo_epi8(c[2].v, c[3].v);
  const __m256i offset = _mm256_set1_epi8(static_cast<char>(0x80));
  return {_mm256_xor_si256(_mm256_unpacklo_epi16(ab, cd), offset),
          _mm256_xor_si256(_mm256_unpackhi_epi16(ab, cd), offset)};
}

/// Store a row; with `live` set (a partial panel), only the dwords of its
/// masks (columns 0-7, 8-15) are written.
template <typename T>
inline void store(const Row& r, std::uint8_t* dst, const __m256i* live) {
  if constexpr (sizeof(T) == 4) {
    if (live == nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), r.a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), r.b);
    } else {
      _mm256_maskstore_epi32(reinterpret_cast<int*>(dst), live[0], r.a);
      _mm256_maskstore_epi32(reinterpret_cast<int*>(dst + 32), live[1], r.b);
    }
  } else if (live == nullptr) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm256_castsi256_si128(r.a));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), _mm256_castsi256_si128(r.b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32), _mm256_extracti128_si256(r.a, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48), _mm256_extracti128_si256(r.b, 1));
  } else {
    // Put the quarters back in column order, then store as the float rows.
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dst), live[0],
                           _mm256_permute2x128_si256(r.a, r.b, 0x20));
    _mm256_maskstore_epi32(reinterpret_cast<int*>(dst + 32), live[1],
                           _mm256_permute2x128_si256(r.a, r.b, 0x31));
  }
}

/// Lanes [lane0, lane1) of a panel are output pixels of one output row; the
/// input element under lane l for kernel offset kb is plane[kb + window + l].
struct Run {
  int lane0, lane1;
  std::ptrdiff_t window;
};

/// One panel of one image: its runs, their lane masks, and the range of
/// windows, [lowest, highest + 16) elements around kernel offset 0.
template <typename T>
struct Panel {
  Run runs[kPanelCols];
  Col<T> masks[kPanelCols];
  int nruns = 0;
  std::ptrdiff_t lowest = 0, highest = 0;
  /// int8 panels of several runs (Gather::kShuffle): columns 0-7 and 8-15
  /// each read 16 bytes from their half's base, picked by `shuffle`.
  std::ptrdiff_t half_base[2] = {0, 0};
  __m256i shuffle;
};

/// For an int8 panel of several runs: the runs' elements are consecutive
/// output rows, so within 8 columns they usually lie in 16 input bytes (the
/// next row starts kw - 1 bytes after the previous one ends), and one load
/// and one pshufb per k gather them where the generic path loads and blends
/// once per run. Set the half bases and shuffle; false when a half's
/// columns do not fit 16 bytes.
inline bool plan_shuffle(Panel<std::int8_t>& p) {
  const int first = p.runs[0].lane0, last = p.runs[p.nruns - 1].lane1;
  // The element of lane `lane`, which lies in run r or a later one.
  const auto source = [&](int lane, int r) {
    while (lane >= p.runs[r].lane1) ++r;
    return p.runs[r].window + lane;
  };
  for (int half = 0; half < 2; ++half) {
    const int lo = std::max(first, 8 * half), hi = std::min(last, 8 * half + 8);
    if (lo >= hi) {
      p.half_base[half] = p.runs[0].window + first;  // no live lane: any element
      continue;
    }
    p.half_base[half] = source(lo, 0);
    // Sources grow along the lanes, so the half's last one reaches furthest.
    if (source(hi - 1, 0) - p.half_base[half] >= 16) return false;
  }
  // Byte i < 8 of 128-bit lane h selects lane 8h + i; bytes 8-15 of each
  // 128-bit lane are never in a run, so they stay -128 and read zero.
  const __m256i lane = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 99, 99, 99, 99, 99, 99, 99,
                                        99, 8, 9, 10, 11, 12, 13, 14, 15, 99, 99, 99, 99, 99,
                                        99, 99, 99);
  __m256i ctrl = _mm256_set1_epi8(-128);
  for (int r = 0; r < p.nruns; ++r) {
    // Lane l of run r reads byte window + l - half_base of its half's load.
    const auto offset = [&](int half) {
      return _mm_set1_epi8(static_cast<char>(p.runs[r].window - p.half_base[half]));
    };
    const __m256i pick = _mm256_add_epi8(lane, _mm256_set_m128i(offset(1), offset(0)));
    const __m256i in_run = _mm256_and_si256(
        _mm256_cmpgt_epi8(lane, _mm256_set1_epi8(static_cast<char>(p.runs[r].lane0 - 1))),
        _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(p.runs[r].lane1)), lane));
    ctrl = _mm256_blendv_epi8(ctrl, pick, in_run);
  }
  p.shuffle = ctrl;
  return true;
}

/// One k of the walk k = (c*kh + ky)*kw + kx: the offset from the image base
/// of the element under output pixel (0, 0), and its offset in its plane.
struct Tap {
  std::ptrdiff_t src, kb;
};

/// The taps of one geometry, G per k-group (see pack_panels).
struct TapTable {
  ConvShape shape{};
  std::size_t group = 0;
  std::vector<Tap> taps;

  bool for_shape(const ConvShape& s, std::size_t g) const {
    return !taps.empty() && group == g && shape.c_stride == s.c_stride &&
           shape.channels == s.channels && shape.iw == s.iw && shape.kh == s.kh &&
           shape.kw == s.kw;
  }
};

/// How a panel's rows are gathered: one plain load per k (one run, every k
/// in bounds), one shuffled load per k (int8, several runs, every k in
/// bounds), loads blended by run (every k in bounds), or with a bounds test
/// per k that copies element by element near a plane edge.
enum class Gather { kOneRun, kShuffle, kRuns, kChecked };

/// Write every k-group row of one panel from `taps` (G per row). `live` is
/// null for a full panel, else the dword masks of the image's lanes.
template <typename T, Gather kGather>
[[gnu::noinline]] void pack_panel(const T* in, const Tap* taps, std::size_t rows,
                                  std::ptrdiff_t pixels, const Panel<T>& p, std::uint8_t* row,
                                  const __m256i* live) {
  constexpr std::size_t G = 4 / sizeof(T);  // k values per column dword
  const int nruns = p.nruns;
  const std::ptrdiff_t window0 = p.runs[0].window;
  const std::ptrdiff_t lowest = p.lowest, highest = p.highest + 16;
  const auto column = [&](const Tap& tap) {
    const T* src = in + tap.src;
    if constexpr (kGather == Gather::kOneRun) return Col<T>::load(src + window0);
    if constexpr (kGather == Gather::kShuffle) {
      return Col<T>::shuffle(src + p.half_base[0], src + p.half_base[1], p.shuffle);
    }
    if (kGather == Gather::kRuns ||
        (tap.kb + lowest >= 0 && tap.kb + highest <= pixels)) {
      Col<T> col = Col<T>::load(src + window0);
      for (int r = 1; r < nruns; ++r) {
        col = Col<T>::select(col, Col<T>::load(src + p.runs[r].window), p.masks[r]);
      }
      return col;
    }
    alignas(32) T tmp[kPanelCols] = {};
    for (int r = 0; r < nruns; ++r) {
      for (int lane = p.runs[r].lane0; lane < p.runs[r].lane1; ++lane) {
        tmp[lane] = src[p.runs[r].window + lane];
      }
    }
    return Col<T>::load(tmp);
  };
  for (std::size_t g = 0; g < rows; ++g, row += 64, taps += G) {
    Col<T> cols[G];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < G; ++t) cols[t] = column(taps[t]);
    store<T>(interleave(cols), row, live);
  }
}

/// Pack one image's columns [first, last), column `first` landing at global
/// column col0, into panels of `panel_groups` 64-byte rows (k-groups,
/// padding included).
template <typename T>
void pack_panels(const T* in, const ConvShape& s, std::size_t first, std::size_t last,
                 void* bpack, std::size_t col0, std::size_t panel_groups) {
  constexpr std::size_t G = 4 / sizeof(T);
  const std::size_t c_stride = s.c_stride, channels = s.channels, iw = s.iw, kh = s.kh,
                    kw = s.kw, ow = s.ow;
  const std::size_t k_total = s.k();
  const std::size_t n_img = last - first;
  if (n_img == 0 || k_total == 0) return;
  const auto pixels = static_cast<std::ptrdiff_t>(s.ih * iw);
  // The largest in-plane offset ky*iw + kx of any k.
  const auto kb_max = static_cast<std::ptrdiff_t>((kh - 1) * iw + kw - 1);

  // Taps for every k, padded to whole groups: the padding k of a partial
  // last group repeat the group's first k, as the element loops do, and
  // finish_pack_* zeroes them. A conv step packs its geometry once per block
  // of columns, so each thread keeps the table of the last one it packed.
  const std::size_t rows = (k_total + G - 1) / G;
  thread_local TapTable table;
  if (!table.for_shape(s, G)) {
    table.shape = s;
    table.group = G;
    table.taps.resize(rows * G);
    std::size_t k = 0;
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx, ++k) {
          const auto kb = static_cast<std::ptrdiff_t>(ky * iw + kx);
          table.taps[k] = {static_cast<std::ptrdiff_t>(c * c_stride) + kb, kb};
        }
      }
    }
    for (; k < rows * G; ++k) table.taps[k] = table.taps[k - k % G];
  }
  const Tap* taps = table.taps.data();

  auto* out = static_cast<std::uint8_t*>(bpack);
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lane_idx_hi = _mm256_add_epi32(lane_idx, _mm256_set1_epi32(8));

  Panel<T> p;
  std::size_t y = first / ow, x = first % ow;  // output pixel of the next column
  for (std::size_t q = col0 / kPanelCols; q * kPanelCols < col0 + n_img; ++q) {
    const std::size_t panel0 = q * kPanelCols;
    const int l0 = static_cast<int>(std::max(col0, panel0) - panel0);
    const int l1 = static_cast<int>(std::min(col0 + n_img, panel0 + kPanelCols) - panel0);
    p.nruns = 0;
    for (int lane = l0; lane < l1; ++p.nruns) {
      const int len = std::min(l1 - lane, static_cast<int>(ow - x));
      const std::ptrdiff_t window = static_cast<std::ptrdiff_t>(y * iw + x) - lane;
      p.runs[p.nruns] = {lane, lane + len, window};
      p.lowest = p.nruns == 0 ? window : std::min(p.lowest, window);
      p.highest = p.nruns == 0 ? window : std::max(p.highest, window);
      lane += len;
      x += static_cast<std::size_t>(len);
      if (x == ow) {
        x = 0;
        ++y;
      }
    }

    const __m256i lo_bound = _mm256_set1_epi32(l0 - 1), hi_bound = _mm256_set1_epi32(l1);
    const __m256i live[2] = {_mm256_and_si256(_mm256_cmpgt_epi32(lane_idx, lo_bound),
                                              _mm256_cmpgt_epi32(hi_bound, lane_idx)),
                             _mm256_and_si256(_mm256_cmpgt_epi32(lane_idx_hi, lo_bound),
                                              _mm256_cmpgt_epi32(hi_bound, lane_idx_hi))};
    const __m256i* mask = l0 == 0 && l1 == static_cast<int>(kPanelCols) ? nullptr : live;
    std::uint8_t* row = out + q * panel_groups * 64;
    const bool in_bounds = p.lowest >= 0 && p.highest + 16 + kb_max <= pixels;
    if constexpr (std::is_same_v<T, std::int8_t>) {
      // The half bases are run elements, so no lower than `lowest`; each
      // half reads 16 bytes from its base.
      if (in_bounds && p.nruns > 1 && plan_shuffle(p) &&
          std::max(p.half_base[0], p.half_base[1]) + 16 + kb_max <= pixels) {
        pack_panel<T, Gather::kShuffle>(in, taps, rows, pixels, p, row, mask);
        continue;
      }
    }
    if (!in_bounds) {
      for (int r = 1; r < p.nruns; ++r) p.masks[r] = Col<T>::lanes(p.runs[r].lane0, p.runs[r].lane1);
      pack_panel<T, Gather::kChecked>(in, taps, rows, pixels, p, row, mask);
    } else if (p.nruns == 1) {
      pack_panel<T, Gather::kOneRun>(in, taps, rows, pixels, p, row, mask);
    } else {
      for (int r = 1; r < p.nruns; ++r) p.masks[r] = Col<T>::lanes(p.runs[r].lane0, p.runs[r].lane1);
      pack_panel<T, Gather::kRuns>(in, taps, rows, pixels, p, row, mask);
    }
  }
}

}  // namespace

void im2col_pack_avx2(const float* in, const ConvShape& s, std::size_t first,
                      std::size_t last, float* bpack, std::size_t col0) {
  pack_panels(in, s, first, last, bpack, col0, s.k());
}

void im2col_pack_s16_avx2(const std::int16_t* in, const ConvShape& s, std::size_t first,
                          std::size_t last, std::int16_t* bpack, std::size_t col0) {
  pack_panels(in, s, first, last, bpack, col0, padded_k_s16(s.k()) / 2);
}

void im2col_pack_s8_avx2(const std::int8_t* in, const ConvShape& s, std::size_t first,
                         std::size_t last, std::uint8_t* bpack, std::size_t col0) {
  pack_panels(in, s, first, last, bpack, col0, padded_k_s8(s.k()) / 4);
}

}  // namespace cnn2fpga::nn::kernels::detail
