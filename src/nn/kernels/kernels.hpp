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
// Conv activations are packed per image by im2col_pack (and its int16/int8
// siblings in kernels_int.hpp). Packing only copies, so both engines share
// one packer: the AVX2 one (kernels/im2col_avx2.cpp) wherever the CPU has
// AVX2, else the element loops (detail::im2col_pack_ref), which write the
// same bytes. Packers read nothing outside the image's channel planes.
#pragma once

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

/// im2col straight into packed-B panels: the oh*ow patch columns of one image
/// land at global columns [col0, col0 + oh*ow) of an n_total-column packed
/// matrix whose depth is K = c*kh*kw. `c_stride` is the float stride between
/// input channel planes (ih*iw for a contiguous CHW image; batch*ih*iw for a
/// channel-interleaved batch buffer).
///
/// Packers (this one, im2col_pack_s16 and im2col_pack_s8) write exactly the
/// lanes of their own columns, so the images of a batch may share panels, and
/// they read only elements inside the image's ih*iw channel planes: callers
/// may pass buffers that end where the last plane ends. With AVX2 the entry
/// points run a vector packer (detail::im2col_pack_avx2) that assembles each
/// 16-column panel row in registers and stores it whole; otherwise they run
/// the element loops (detail::im2col_pack_ref). The two write identical
/// bytes, so both engines share whichever the CPU has.
void im2col_pack(const float* in, std::size_t c_stride, std::size_t channels,
                 std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                 std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                 std::size_t n_total);

namespace detail {
/// The packers behind im2col_pack: the element loop, and the AVX2 packer
/// (kernels/im2col_avx2.cpp, requires avx2_available()).
void im2col_pack_ref(const float* in, std::size_t c_stride, std::size_t channels,
                     std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                     std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                     std::size_t n_total);
void im2col_pack_avx2(const float* in, std::size_t c_stride, std::size_t channels,
                      std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                      std::size_t oh, std::size_t ow, float* bpack, std::size_t col0,
                      std::size_t n_total);
}  // namespace detail

/// Zero the padding lanes of the last panel (columns n..ceil(n/16)*16).
void zero_pack_tail(float* bpack, std::size_t n, std::size_t k);

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

/// Vectorized 2-D pooling over one channel plane (AVX2 engine). Reduces the
/// kh window rows element-wise into `row_scratch` (>= iw floats), then the kw
/// window columns per output pixel. Max pooling is value-exact with the seed
/// loop; mean pooling reorders the window sum (rows first) within float
/// tolerance. Requires avx2_available().
void pool_plane(bool is_max, const float* in, std::size_t ih, std::size_t iw,
                std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                std::size_t ow, float* out, float* row_scratch);

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
