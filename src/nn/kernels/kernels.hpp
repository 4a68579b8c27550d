// Runtime-dispatched CPU microkernel engine.
//
// Both engines run over the same packed operand panels, so the plan executor
// (nn/execution_plan.cpp) issues identical im2col / pack / GEMM calls and only
// the compute entry points differ by Kind:
//
//   - Kind::kScalar runs portable kernels compiled like Network::forward
//     (no FP contraction): every GEMM output element is one accumulator seeded
//     with its bias, walking k in (c, m, n) order over the packed panels, one
//     element after another (never interleaved across a register tile);
//     pooling and log-softmax are the seed loops and activations call
//     Activation::apply. The result is bit-identical to Network::forward and
//     the generated HLS C++, so the hardware model (axi::CnnIpCore), trainer
//     evaluation and the fixed-point error signal pin this engine.
//   - Kind::kAvx2 runs a register-blocked FMA GEMM microkernel with a fused
//     bias + activation epilogue, plus vectorized pooling, tanh/sigmoid and
//     log-softmax. The GEMM is one tile loop (gemm_tile.hpp) at the register
//     width cpuid picks (float_microkernel()); both widths give the same
//     bits. Outputs stay within 1e-4 relative error of the scalar
//     engine (FMA contraction + polynomial transcendentals; see
//     tests/test_kernels.cpp), and the engine is *chunk-invariant*: every
//     element goes through an identical per-lane instruction sequence
//     regardless of how the surrounding buffer is traversed, so fused-batch
//     execution is bit-identical to per-image execution.
//
// The process-wide default is resolved once at startup: CNN2FPGA_KERNEL=
// scalar|avx2 overrides, otherwise cpuid picks AVX2 when available. Every
// ExecutionContext captures a Kind at construction, so subsystems that demand
// seed bit-exactness pin kScalar while serving contexts run the fast engine
// concurrently in the same process.
//
// Weight panels (PackedA) are packed once per layer and cached in a PackCache
// shared across an ExecutionContextPool, so pooled serving contexts never
// re-pack. Packing assumes frozen weights — mutate weights, rebuild contexts.
//
// A conv step (conv_step, and conv_step_s8 / _s16 in kernels_int.hpp) packs
// and multiplies one kConvBlockCols-column block of the batch's im2col matrix
// at a time: the block's columns are packed into a block-sized arena, which
// the GEMM reads while it is still in cache, writing its columns of the
// step's output.
// Packing only copies, so both engines share one packer per precision: the
// AVX-512 one where the CPU has it and the geometry fits, else the AVX2 one
// (kernels/im2col_avx2.cpp) wherever the CPU has AVX2, else the element
// loops (detail::im2col_pack_ref), which write the same bytes. Packers read
// nothing outside the image's channel planes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/activation.hpp"
#include "util/aligned.hpp"

namespace cnn2fpga::nn::kernels {

enum class Kind { kScalar, kAvx2 };

/// Process-wide default kernel, resolved once on first call: the
/// CNN2FPGA_KERNEL environment variable (scalar|avx2) wins, otherwise the
/// best engine the CPU supports. Requesting avx2 on a CPU without AVX2+FMA
/// falls back to scalar with a warning on stderr.
Kind active();

/// True when the AVX2 engine is both compiled in and supported by this CPU.
bool avx2_available();

const char* kind_name(Kind kind);

/// Test hook: replaces the process-wide default until destruction. Not
/// thread-safe against concurrent active() callers — construct contexts, not
/// overrides, inside worker threads.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(Kind kind);
  ~ScopedKernelOverride();
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  Kind previous_;
};

/// The register width of gemm on the AVX2 engine: 6x16 tiles of 256-bit
/// registers, or 6x32 tiles of 512-bit ones over two adjacent B panels (6x16
/// on an odd last panel); both give bitwise-equal outputs. float_microkernel()
/// is the width gemm runs, resolved once by cpuid: kAvx512 where available.
enum class FloatMicrokernel { kAvx2, kAvx512 };
FloatMicrokernel float_microkernel();
const char* float_microkernel_name(FloatMicrokernel mk);  ///< "avx2" | "avx512"
/// True when `mk` is compiled in and this CPU can run it.
bool float_microkernel_available(FloatMicrokernel mk);

/// Test and bench hook: makes gemm run `mk` until destruction. Throws
/// std::runtime_error when !float_microkernel_available(mk). Not thread-safe
/// against concurrent gemm callers, like ScopedKernelOverride.
class ScopedFloatMicrokernel {
 public:
  explicit ScopedFloatMicrokernel(FloatMicrokernel mk);
  ~ScopedFloatMicrokernel();
  ScopedFloatMicrokernel(const ScopedFloatMicrokernel&) = delete;
  ScopedFloatMicrokernel& operator=(const ScopedFloatMicrokernel&) = delete;

 private:
  FloatMicrokernel previous_;
};

/// Packed-panel geometry: A in 6-row panels, B in 16-column panels.
inline constexpr std::size_t kPanelRows = 6;
inline constexpr std::size_t kPanelCols = 16;

/// Weight matrix (M x K, row-major) repacked into kPanelRows-row panels,
/// k-major within a panel: data[p*(K*6) + k*6 + r] = W[p*6+r][k], rows past M
/// zero-padded. The microkernel streams one panel while broadcasting down the
/// k axis.
struct PackedA {
  std::size_t rows = 0;  ///< M
  std::size_t cols = 0;  ///< K
  util::aligned_vector<float> data;
};

void pack_a(const float* w, std::size_t m, std::size_t k, PackedA& out);

/// Floats of packed-B storage for an N-column, K-deep operand:
/// ceil(N/16) panels of K*16.
std::size_t packed_b_size(std::size_t n, std::size_t k);

/// Pack row-major B rows (each `rows[i]` pointing at K contiguous floats)
/// into kPanelCols-column panels: bpack[q*(K*16) + k*16 + j] = rows[q*16+j][k].
/// Padding lanes of the last panel are zeroed.
void pack_b(const float* const* rows, std::size_t n, std::size_t k, float* bpack);

/// One image's im2col geometry: `channels` input planes of ih x iw,
/// `c_stride` elements apart (ih*iw for a contiguous CHW image; batch*ih*iw
/// for a channel-interleaved batch buffer), under a kh x kw kernel at
/// stride 1. Its oh*ow output pixels are the packed operand's columns, in
/// y*ow + x order, and K = channels*kh*kw is its depth.
struct ConvShape {
  std::size_t c_stride, channels, ih, iw, kh, kw, oh, ow;
  std::size_t k() const { return channels * kh * kw; }
  std::size_t cols() const { return oh * ow; }
};

/// im2col straight into packed-B panels: the oh*ow patch columns of one image
/// land at global columns [col0, col0 + oh*ow) of an n_total-column packed
/// matrix whose depth is K = c*kh*kw. `c_stride` is as in ConvShape.
///
/// Packers (this one, im2col_pack_s16 and im2col_pack_s8) write exactly the
/// lanes of their own columns, so the images of a batch may share panels, and
/// they read only elements inside the image's ih*iw channel planes: callers
/// may pass buffers that end where the last plane ends. Where the CPU has
/// AVX-512 the entry points run detail::im2col_pack_avx512 for the geometries
/// it takes; otherwise, with AVX2, a vector packer (detail::im2col_pack_avx2)
/// that assembles each 16-column panel row in registers and stores it whole;
/// otherwise the element loops (detail::im2col_pack_ref). All write identical
/// bytes, so both engines share whichever the CPU has.
void im2col_pack(const float* in, std::size_t c_stride, std::size_t channels,
                 std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                 std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                 std::size_t n_total);

/// The same over the image's columns [first, last) only: column i lands at
/// packed column col0 + i - first.
void im2col_pack(const float* in, const ConvShape& s, std::size_t first, std::size_t last,
                 float* bpack, std::size_t col0);

namespace detail {
/// The packers behind im2col_pack, each over the image's columns [first,
/// last): the element loop, the AVX2 packer (kernels/im2col_avx2.cpp,
/// requires avx2_available()) and the AVX-512 one (kernels_avx512.cpp,
/// requires float_microkernel_available(kAvx512)). The AVX-512 packer
/// gathers each panel row with two 16-float loads and one vpermt2ps; it
/// returns false, having written nothing, when a panel's columns can span 32
/// floats or more of the input, and the AVX2 packer then runs.
void im2col_pack_ref(const float* in, const ConvShape& s, std::size_t first,
                     std::size_t last, float* bpack, std::size_t col0);
void im2col_pack_avx2(const float* in, const ConvShape& s, std::size_t first,
                      std::size_t last, float* bpack, std::size_t col0);
bool im2col_pack_avx512(const float* in, const ConvShape& s, std::size_t first,
                        std::size_t last, float* bpack, std::size_t col0);
}  // namespace detail

/// Zero the padding lanes of the last panel (columns n..ceil(n/16)*16).
void zero_pack_tail(float* bpack, std::size_t n, std::size_t k);

/// Output columns a conv step packs and multiplies at a time: four panels.
/// Blocks of 64, 128 and 256 columns and whole images timed alike on Test-4
/// (DESIGN.md, "Blocked conv steps"); 64 keeps the arena smallest, 19 KB for
/// Test-4 conv1 where a whole image packs 235 KB.
inline constexpr std::size_t kConvBlockCols = 64;

/// Floats of packed-B arena conv_step needs for a K-deep operand.
std::size_t conv_block_size(std::size_t k);

/// The plan executor's conv step over `count` images, image b's planes
/// starting at in + b*image_stride: C = act(bias + W x im2col(images)), one
/// output column per (image, pixel) in image-major order, C row stride
/// count*s.cols(). Packs and multiplies one kConvBlockCols-column block at a
/// time (a block may hold the end of one image and the start of the next)
/// through `block` (>= conv_block_size(K) floats), with gemm on kAvx2 and
/// gemm_scalar on kScalar. Every output element gets the same bias-seeded
/// chain over k whichever block it lies in, so C is bitwise equal to packing
/// every image whole and running one GEMM.
void conv_step(Kind kind, const PackedA& a, const float* bias, int act, const float* in,
               std::size_t image_stride, std::size_t count, const ConvShape& s,
               float* block, float* c);

namespace detail {
/// conv_step's walk: for each block of the count*s.cols() columns, calls
/// pack(b, first, last, col) for each image b the block holds (its columns
/// [first, last) land at block column col), then multiply(col0, width).
template <class Pack, class Multiply>
void for_each_conv_block(std::size_t cols, std::size_t count, Pack&& pack,
                         Multiply&& multiply) {
  const std::size_t n = cols * count;
  for (std::size_t col0 = 0; col0 < n; col0 += kConvBlockCols) {
    const std::size_t end = std::min(n, col0 + kConvBlockCols);
    for (std::size_t b = col0 / cols; b * cols < end; ++b) {
      const std::size_t first = std::max(col0, b * cols) - b * cols;
      const std::size_t last = std::min(end, (b + 1) * cols) - b * cols;
      pack(b, first, last, b * cols + first - col0);
    }
    multiply(col0, end - col0);
  }
}
}  // namespace detail

/// Fused GEMM + bias + activation epilogue on the AVX2 engine (at the width
/// float_microkernel() names):
///   C[m][n] = act(bias[m] + sum_k A[m][k] * B[n][k]),  C row stride ldc.
/// `act` < 0 applies no activation; otherwise it is a nn::ActKind. Requires
/// avx2_available(); throws std::runtime_error otherwise.
void gemm(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
          int act, float* c, std::size_t ldc);

namespace detail {
/// gemm's 512-bit instance (kernels_avx512.cpp, built with CNN2FPGA_HAVE_AVX512).
void gemm_avx512(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
                 int act, float* c, std::size_t ldc);
}  // namespace detail

/// The same GEMM on the scalar engine, over the same packed panels: each
/// C[m][n] is one accumulator seeded with bias[m] that adds A[m][k] * B[n][k]
/// for k = 0..K-1 in order, then applies Activation::apply — forward()'s
/// operation sequence per output element.
void gemm_scalar(const PackedA& a, const float* bpack, std::size_t n, const float* bias,
                 int act, float* c, std::size_t ldc);

/// Fully-connected step on the AVX2 engine, without packing the activations:
///   out[b*M + m] = act(bias[m] + sum_k A[m][k] * x[b*K + k]),  b < batch.
/// Streams the weight panels against `batch` image-major input rows in place
/// and writes image-major output; `out` must not alias `x`. Every element
/// gets the bias-seeded, in-order FMA chain and epilogue gemm computes for
/// C[m][b] over pack_b of the same rows, so the two are bitwise equal.
/// Requires avx2_available(); throws std::runtime_error otherwise.
void linear(const PackedA& a, const float* x, std::size_t batch, const float* bias,
            int act, float* out);

/// The same step on the scalar engine, bitwise equal to gemm_scalar over
/// pack_b of the same rows.
void linear_scalar(const PackedA& a, const float* x, std::size_t batch, const float* bias,
                   int act, float* out);

/// One pool step's geometry: `planes` consecutive ih x iw input planes, each
/// reduced by a kh x kw window every `step` pixels to an oh x ow plane, the
/// output planes consecutive in the same order.
struct PoolShape {
  std::size_t planes, ih, iw, kh, kw, step, oh, ow;
};

/// A whole pool step in one vector pass over its planes (AVX2 engine), eight
/// outputs of a row at a time on 256-bit registers, whatever
/// float_microkernel() names: each window column's kh rows reduce
/// element-wise, then the kw columns left to right. Max pooling is
/// value-exact with the seed loop; mean pooling sums rows first, then
/// columns, and multiplies by 1/(kh*kw), which reorders the seed's window sum
/// within float tolerance. Requires avx2_available().
void pool_layer(bool is_max, const float* in, const PoolShape& s, float* out);

/// Seed-order pooling over one channel plane (scalar engine): each window is
/// reduced row by row exactly as Pool2D::forward does, so both kinds are
/// bit-identical to it.
void pool_plane_scalar(bool is_max, const float* in, std::size_t ih, std::size_t iw,
                       std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                       std::size_t ow, float* out);

/// Vectorized elementwise activation (AVX2 engine): polynomial exp-based
/// tanh/sigmoid, branch-free ReLU. Chunk-invariant (identical per-lane ops on
/// masked tails), in == out allowed. Requires avx2_available().
void activation_apply(ActKind act, const float* in, float* out, std::size_t n);

/// Vectorized log-softmax over one row (AVX2 engine); in == out allowed.
/// Requires avx2_available().
void logsoftmax(const float* in, float* out, std::size_t n);

/// LogSoftMax::forward's loop over one row (scalar engine, and the float tail
/// of every fixed-point path); in == out allowed.
void logsoftmax_scalar(const float* in, float* out, std::size_t n);

/// Per-network cache of packed weight panels, keyed by layer index. Built
/// lazily on first use and shared (via shared_ptr) across every context an
/// ExecutionContextPool hands out, so a deployed design packs each layer
/// exactly once no matter how many serving threads run it. Assumes the
/// layer's weights are frozen after the first get().
class PackCache {
 public:
  explicit PackCache(std::size_t layer_count);

  const PackedA& get(std::size_t layer, const float* w, std::size_t m, std::size_t k);

 private:
  struct Entry {
    std::once_flag once;
    PackedA pack;
  };
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace cnn2fpga::nn::kernels
