// The GEMM loop of every SIMD microkernel, generic over register width and
// arithmetic: float FMA (kernels_avx2.cpp, kernels_avx512.cpp) and VNNI
// (kernels_int_vnni.cpp). Those sources have different ISA flags, so
// everything here has internal linkage: no inline copy may stand in for
// another at link time.
//
// Each k step advances every packed operand by 4 bytes per A row and 64
// bytes per B panel (a float, a 4-k int8 group or an int16 k pair). A tile is
// kPanelRows rows of kVecs registers, each lane one seeded, in-order chain
// over k at any width. Two 256-bit registers cover one 16-column panel; two
// 512-bit ones span two adjacent panels, and an odd last panel runs one.
//
// `Ops` supplies `Vec`, `seed(row, live)`, static `load(p)`, `broadcast(p)`
// and `madd(acc, b, a)`, and `store(row, col, acc, live_cols)`, the epilogue
// of one tile row.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/kernels.hpp"

namespace cnn2fpga::nn::kernels::detail {
namespace {

// The `#pragma GCC unroll 6` row loops spell out kPanelRows: fully unrolled,
// with the epilogue guarding dead rows, they never index the accumulators at
// run time, so the tile stays in registers at -O2 too.
static_assert(kPanelRows == 6);

constexpr std::size_t kStepBytes = 4;                       ///< an A row's k step
constexpr std::size_t kRowBytes = kPanelCols * kStepBytes;  ///< a B panel's k step

/// One tile; its second register starts `b_next` bytes after the first.
/// Always inlined into its panel loop: a call per tile cost the 256-bit int8
/// GEMM about 15% on Test-4 conv1. So `Ops` must keep no vector constant for
/// its epilogue: one that lives through the k loop takes one of the 16 YMM
/// registers the tile needs, and GCC then reloads a B vector on every row.
template <class Ops, std::size_t kVecs>
[[gnu::always_inline]] inline void gemm_tile(const Ops& ops, const std::uint8_t* ap,
                                             const std::uint8_t* bp, std::size_t b_next,
                                             std::size_t steps, std::size_t row0,
                                             std::size_t live_rows, std::size_t col0,
                                             std::size_t live_cols) {
  using Vec = typename Ops::Vec;
  Vec acc[kPanelRows][kVecs];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kPanelRows; ++r) {
#pragma GCC unroll 2
    for (std::size_t j = 0; j < kVecs; ++j) acc[r][j] = ops.seed(row0 + r, r < live_rows);
  }

  for (std::size_t s = 0; s < steps; ++s) {
    Vec bv[kVecs];
#pragma GCC unroll 2
    for (std::size_t j = 0; j < kVecs; ++j) bv[j] = Ops::load(bp + s * kRowBytes + j * b_next);
    const std::uint8_t* as = ap + s * kPanelRows * kStepBytes;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kPanelRows; ++r) {
      const Vec av = Ops::broadcast(as + r * kStepBytes);
#pragma GCC unroll 2
      for (std::size_t j = 0; j < kVecs; ++j) acc[r][j] = Ops::madd(acc[r][j], bv[j], av);
    }
  }

#pragma GCC unroll 6
  for (std::size_t r = 0; r < kPanelRows; ++r) {
    if (r < live_rows) ops.store(row0 + r, col0, acc[r], live_cols);
  }
}

/// C = A x B over packed panels: `rows` rows of A against `n` columns of B,
/// `steps` k steps each, panels `panel_steps` k steps apart. B tiles are the
/// outer loop, so each stays in cache while the A panels stream past. `ops`
/// is a local copy, so the epilogue's stores (which may alias anything) do
/// not make GCC reload its members on every row.
template <class Ops>
inline void gemm_tiles(const Ops ops, const void* a, const void* b, std::size_t rows,
                       std::size_t n, std::size_t steps, std::size_t panel_steps) {
  constexpr std::size_t kVecBytes = sizeof(typename Ops::Vec);
  constexpr std::size_t kTileCols = 2 * kVecBytes / kStepBytes;
  const std::size_t a_panel_bytes = panel_steps * kPanelRows * kStepBytes;
  const std::size_t b_panel_bytes = panel_steps * kRowBytes;
  // The second register: the row's other half (256-bit) or the next panel's.
  const std::size_t b_next = kVecBytes < kRowBytes ? kVecBytes : b_panel_bytes;
  const auto* bp = static_cast<const std::uint8_t*>(b);
  for (std::size_t col0 = 0; col0 < n;
       col0 += kTileCols, bp += kTileCols / kPanelCols * b_panel_bytes) {
    const std::size_t live_cols = std::min(kTileCols, n - col0);
    const auto* ap = static_cast<const std::uint8_t*>(a);
    for (std::size_t row0 = 0; row0 < rows; row0 += kPanelRows, ap += a_panel_bytes) {
      const std::size_t live_rows = std::min(kPanelRows, rows - row0);
      if constexpr (kTileCols > kPanelCols) {
        if (live_cols <= kPanelCols) {  // the odd last panel
          gemm_tile<Ops, 1>(ops, ap, bp, b_next, steps, row0, live_rows, col0, live_cols);
          continue;
        }
      }
      gemm_tile<Ops, 2>(ops, ap, bp, b_next, steps, row0, live_rows, col0, live_cols);
    }
  }
}

}  // namespace
}  // namespace cnn2fpga::nn::kernels::detail
