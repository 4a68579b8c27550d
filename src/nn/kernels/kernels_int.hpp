// Quantized (int8 / int16) GEMM microkernels and packing.
//
// The serving engine's quantized path computes in the exact Q(m,n) arithmetic
// of nn::forward_fixed (frac-scaled two's-complement raw values, int32
// accumulation at 2*frac scale, round-half-up renormalize, saturate), but on
// packed panels the AVX2 engine can stream:
//
//   int8  (Q4.4)  — VPMADDUBSW over unsigned-offset activation panels.
//     Activations are stored as raw s8 between layers and offset by +128 into
//     u8 *at pack time* (maddubs multiplies u8 x s8); the compensation term
//     -128 * sum_k(w) plus the frac-aligned bias is folded into each row's
//     int32 accumulator seed. Weights are clamped to +/-kInt8WeightClamp so
//     one maddubs pair-sum is bounded by 2*255*31 = 15810 and TWO maddubs
//     results combine with a saturation-free adds_epi16 (<= 31620 < 32767)
//     before a single pmaddwd widens 8 k-steps to int32 — ~2.5 ALU ops per
//     32 MACs where the float kernel needs 1 FMA per 8.
//   int16 (Q8.8)  — VPMADDWD over pair-interleaved s16 panels, int32
//     accumulation. ALU-neutral vs float FMA but half the operand traffic.
//
// Those are the AVX2 microkernels. Where cpuid reports AVX512-VNNI or
// AVX-VNNI, gemm_s8 / gemm_s16 run VNNI microkernels on the same panels
// instead (kernels_int_vnni.cpp, int_microkernel()): one vpdpbusd adds a
// column's four u8 x s8 products per int32 lane, one vpdpwssd its two s16
// products, in 6x32 tiles on 512-bit registers or 6x16 on 256-bit ones.
//
// Conv activations reach the panels through im2col_pack_s8 / _s16, which
// like the float packer run an AVX-512 packer where the CPU has it
// (kernels/im2col_avx512.cpp), else an AVX2 vector packer where the CPU has
// AVX2 (kernels/im2col_avx2.cpp) and the element loops (detail::*_ref) otherwise,
// reading only inside the image's channel planes; a conv step
// (conv_step_s8 / _s16) packs and multiplies one block of columns at a time,
// as the float one does.
//
// Every product and (modular int32) add is exact, so accumulation order
// cannot change the result: the scalar reference kernels here are
// bit-identical to the AVX2 and VNNI kernels on every input, and — whenever the true
// accumulator fits int32, always in practice for these formats — identical to
// forward_fixed's int64 math. The int8 path additionally differs from
// forward_fixed only when a weight exceeds the +/-31-raw clamp (|w| > 1.9375
// at Q4.4), which deploy-time validation measures rather than assumes.
//
// Non-ReLU activations go through shared per-raw-value lookup tables built
// from the identical dequantize -> Activation::apply -> quantize sequence
// forward_fixed uses, so both engines and the fixed model agree bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/activation.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/quantize.hpp"
#include "util/aligned.hpp"

namespace cnn2fpga::nn::kernels {

/// Raw-value clamp applied to int8 weights so the maddubs/adds_epi16 pipeline
/// cannot saturate (see header comment). At Q4.4 this bounds |w| <= 1.9375.
inline constexpr std::int32_t kInt8WeightClamp = 31;

/// Whether the int8 engine clamps weight `w`: its raw `format` value lies
/// past +/-kInt8WeightClamp. pack_weights_s8 clamps exactly these, and
/// serving refuses a Q4.4 descriptor that has one.
inline bool int8_weight_clamped(float w, const FixedPointFormat& format) {
  const std::int32_t q = fixed_quantize(w, format);
  return q > kInt8WeightClamp || q < -kInt8WeightClamp;
}

/// k-depth padding of the packed operands: the int8 microkernel consumes k in
/// groups of 8 (two 4-k dwords per adds_epi16), the int16 kernel in pairs.
inline std::size_t padded_k_s8(std::size_t k) { return (k + 7) & ~std::size_t{7}; }
inline std::size_t padded_k_s16(std::size_t k) { return (k + 1) & ~std::size_t{1}; }

/// Quantized weight matrix (M x K) in kPanelRows-row panels. Within a panel,
/// k runs in dword groups so the microkernel broadcasts one 32-bit lane per
/// row: panels[p*kp*6 + (k/4)*24 + r*4 + (k%4)] = wq[p*6+r][k] (int8, groups
/// of 4) and panels[p*kp*6 + (k/2)*12 + r*2 + (k%2)] (int16, pairs). Padding
/// rows/k are zero. `seed[m]` is the row's int32 accumulator seed.
struct PackedWeightsS8 {
  std::size_t rows = 0;  ///< M
  std::size_t cols = 0;  ///< K (logical; panels hold kp = padded_k_s8(K))
  std::size_t kp = 0;
  util::aligned_vector<std::int8_t> panels;
  util::aligned_vector<std::int32_t> seed;  ///< (bias<<frac) - 128 * sum_k(wq)
  bool clamped = false;  ///< any weight hit +/-kInt8WeightClamp
};

struct PackedWeightsS16 {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t kp = 0;
  util::aligned_vector<std::int16_t> panels;
  util::aligned_vector<std::int32_t> seed;  ///< bias<<frac
};

void pack_weights_s8(const float* w, const float* bias, std::size_t m, std::size_t k,
                     const FixedPointFormat& format, PackedWeightsS8& out);
void pack_weights_s16(const float* w, const float* bias, std::size_t m, std::size_t k,
                      const FixedPointFormat& format, PackedWeightsS16& out);

/// Elements of packed-B storage for an N-column, K-deep quantized operand:
/// ceil(N/16) panels of padded_k * 16.
std::size_t packed_b_size_s8(std::size_t n, std::size_t k);
std::size_t packed_b_size_s16(std::size_t n, std::size_t k);

/// im2col of raw s8 activations straight into offset-u8 packed-B panels
/// (each byte stores raw + 128): bpack[q*kp*16 + (k/4)*64 + j*4 + (k%4)] for
/// global column q*16+j. Mirrors kernels::im2col_pack's geometry contract,
/// its dispatch (detail::im2col_pack_s8_avx2 with AVX2, else _ref; first
/// detail::im2col_pack_s8_avx512 with AVX-512BW and VBMI) and its read and write
/// bounds. A partial last k-group repeats the group's first k in its padding
/// bytes; finish_pack_s8 zeroes them.
void im2col_pack_s8(const std::int8_t* in, std::size_t c_stride, std::size_t channels,
                    std::size_t ih, std::size_t iw, std::size_t kh, std::size_t kw,
                    std::size_t oh, std::size_t ow, std::uint8_t* bpack, std::size_t col0,
                    std::size_t n_total);

/// The same over the image's columns [first, last) only: column i lands at
/// packed column col0 + i - first; and its int16 twin, pair-interleaved
/// (bpack[q*kp*16 + (k/2)*32 + j*2 + (k%2)]), with the same dispatch.
void im2col_pack_s8(const std::int8_t* in, const ConvShape& s, std::size_t first,
                    std::size_t last, std::uint8_t* bpack, std::size_t col0);
void im2col_pack_s16(const std::int16_t* in, const ConvShape& s, std::size_t first,
                     std::size_t last, std::int16_t* bpack, std::size_t col0);

namespace detail {
/// The packers behind im2col_pack_s8/_s16, each over the image's columns
/// [first, last): the element loops (the only path without AVX2, and the
/// oracle of the vector packers), and the AVX2 packers in
/// kernels/im2col_avx2.cpp (require avx2_available()). After finish_pack_*
/// the two leave identical panels.
void im2col_pack_s8_ref(const std::int8_t* in, const ConvShape& s, std::size_t first,
                        std::size_t last, std::uint8_t* bpack, std::size_t col0);
void im2col_pack_s16_ref(const std::int16_t* in, const ConvShape& s, std::size_t first,
                         std::size_t last, std::int16_t* bpack, std::size_t col0);
void im2col_pack_s8_avx2(const std::int8_t* in, const ConvShape& s, std::size_t first,
                         std::size_t last, std::uint8_t* bpack, std::size_t col0);
void im2col_pack_s16_avx2(const std::int16_t* in, const ConvShape& s, std::size_t first,
                          std::size_t last, std::int16_t* bpack, std::size_t col0);
/// The AVX-512 packers (kernels/im2col_avx512.cpp: vpermt2b for int8,
/// vpermt2w for int16), which im2col_pack_s8/_s16 prefer when
/// im2col_int_avx512_available(). Each returns false, having written
/// nothing, for a geometry whose panel rows do not fit two 64-byte loads;
/// the AVX2 packer then runs.
bool im2col_pack_s8_avx512(const std::int8_t* in, const ConvShape& s, std::size_t first,
                           std::size_t last, std::uint8_t* bpack, std::size_t col0);
bool im2col_pack_s16_avx512(const std::int16_t* in, const ConvShape& s, std::size_t first,
                            std::size_t last, std::int16_t* bpack, std::size_t col0);
/// Whether this build and CPU have those packers (AVX-512BW and VBMI).
bool im2col_int_avx512_available();
}  // namespace detail

/// Pack row-major B rows (rows[i] -> K contiguous raw values of the matching
/// width) into panels; int8 rows are offset to u8 while packing. `rows` is
/// type-erased so one caller-side pointer array serves both widths.
void pack_b_s8(const void* const* rows, std::size_t n, std::size_t k,
               std::uint8_t* bpack);
void pack_b_s16(const void* const* rows, std::size_t n, std::size_t k,
                std::int16_t* bpack);

/// Zero the padding of a freshly packed B: the dead columns of the last panel
/// and the k-padding rows of every panel. Must run after the pack calls and
/// before gemm (the buffers are reused across layers of different sizes).
void finish_pack_s8(std::uint8_t* bpack, std::size_t n, std::size_t k);
void finish_pack_s16(std::int16_t* bpack, std::size_t n, std::size_t k);

/// Quantized GEMM with fused renormalize (+ optional ReLU) epilogue:
///   C[m][n] = sat(renorm(seed[m] + sum_k wq[m][k] * xq[n][k]))
/// with C row stride ldc; `act` < 0 applies no activation, ActKind::kReLU is
/// fused after the saturate (exact in fixed point). Other activations must be
/// applied by the caller via activation_lut_* (table built per format).
/// `kind` selects the engine: kScalar runs the bit-identical portable
/// reference, kAvx2 the SIMD microkernel int_microkernel() names (requires
/// avx2_available()).
void gemm_s8(Kind kind, const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
             const FixedPointFormat& format, int act, std::int8_t* c, std::size_t ldc);
void gemm_s16(Kind kind, const PackedWeightsS16& a, const std::int16_t* bpack,
              std::size_t n, const FixedPointFormat& format, int act, std::int16_t* c,
              std::size_t ldc);

/// Elements of packed-B arena conv_step_s8 / _s16 need for a K-deep operand.
std::size_t conv_block_size_s8(std::size_t k);
std::size_t conv_block_size_s16(std::size_t k);

/// kernels::conv_step on raw fixed values: packs and multiplies one
/// kConvBlockCols-column block at a time through `block`, with gemm_s8 /
/// gemm_s16's epilogue (`act` as theirs). Bitwise equal to packing every
/// image whole and running one gemm_s8 / gemm_s16.
void conv_step_s8(Kind kind, const PackedWeightsS8& a, const FixedPointFormat& format, int act,
                  const std::int8_t* in, std::size_t image_stride, std::size_t count,
                  const ConvShape& s, std::uint8_t* block, std::int8_t* c);
void conv_step_s16(Kind kind, const PackedWeightsS16& a, const FixedPointFormat& format,
                   int act, const std::int16_t* in, std::size_t image_stride,
                   std::size_t count, const ConvShape& s, std::int16_t* block,
                   std::int16_t* c);

/// Integer pooling over one channel plane, exact forward_fixed semantics
/// (max: value-exact; mean: symmetric round-half-away integer divide, then
/// saturate). Portable scalar code: the oracle of pool_layer_s8/_s16.
void pool_plane_s8(bool is_max, const std::int8_t* in, std::size_t ih, std::size_t iw,
                   std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                   std::size_t ow, std::int8_t* out, const FixedPointFormat& format);
void pool_plane_s16(bool is_max, const std::int16_t* in, std::size_t ih, std::size_t iw,
                    std::size_t kh, std::size_t kw, std::size_t step, std::size_t oh,
                    std::size_t ow, std::int16_t* out, const FixedPointFormat& format);

/// A whole integer pool step in one pass over its planes, shared by both
/// engines: the vector pass of kernels::pool_layer on int32 lanes where the
/// CPU has AVX2 (detail::pool_layer_*_avx2), else pool_plane_* per plane.
/// Bitwise equal to pool_plane_* on every plane.
void pool_layer_s8(bool is_max, const std::int8_t* in, const PoolShape& s, std::int8_t* out,
                   const FixedPointFormat& format);
void pool_layer_s16(bool is_max, const std::int16_t* in, const PoolShape& s,
                    std::int16_t* out, const FixedPointFormat& format);

/// Quantize a float input image into raw fixed values, each element exactly
/// fixed_quantize's (identical to forward_fixed's input quantization): eight
/// at a time where the CPU has AVX2 (detail::quantize_*_avx2), else
/// fixed_quantize per element.
void quantize_input_s8(const float* in, std::size_t n, const FixedPointFormat& format,
                       std::int8_t* out);
void quantize_input_s16(const float* in, std::size_t n, const FixedPointFormat& format,
                        std::int16_t* out);

namespace detail {
/// The AVX2 passes behind pool_layer_* (kernels_avx2.cpp; the window must
/// hold fewer than 65536 elements, so int16 sums fit int32) and
/// quantize_input_* (kernels_int_avx2.cpp). Require avx2_available().
void pool_layer_s8_avx2(bool is_max, const std::int8_t* in, const PoolShape& s,
                        std::int8_t* out, const FixedPointFormat& format);
void pool_layer_s16_avx2(bool is_max, const std::int16_t* in, const PoolShape& s,
                         std::int16_t* out, const FixedPointFormat& format);
void quantize_s8_avx2(const float* in, std::size_t n, const FixedPointFormat& format,
                      std::int8_t* out);
void quantize_s16_avx2(const float* in, std::size_t n, const FixedPointFormat& format,
                       std::int16_t* out);
}  // namespace detail

/// Elementwise activation on raw values. ReLU is computed directly; tanh /
/// sigmoid go through `lut` (256 entries indexed by raw+128 for s8, 65536
/// indexed by uint16(raw) for s16). in == out allowed.
void activation_lut_s8(ActKind act, const std::int8_t* lut, const std::int8_t* in,
                       std::int8_t* out, std::size_t n);
void activation_lut_s16(ActKind act, const std::int16_t* lut, const std::int16_t* in,
                        std::int16_t* out, std::size_t n);

/// The SIMD microkernels behind gemm_s8/gemm_s16 with Kind::kAvx2. kAvx2 is
/// the vpmaddubsw/vpmaddwd kernel every AVX2 CPU runs; the VNNI kernels issue
/// vpdpbusd / vpdpwssd, as AVX-VNNI on 256-bit registers or as AVX512-VNNI on
/// 512-bit ones. All three are bit-identical.
enum class IntMicrokernel { kAvx2, kAvxVnni, kAvx512Vnni };

/// "avx2", "avxvnni" or "avx512vnni".
const char* int_microkernel_name(IntMicrokernel mk);

/// True when `mk` is compiled in and this CPU can run it.
bool int_microkernel_available(IntMicrokernel mk);

/// The microkernel gemm_s8/gemm_s16(Kind::kAvx2, ...) run, resolved once by
/// cpuid: AVX512-VNNI when the CPU reports avx512f and avx512vnni, else
/// AVX-VNNI when it reports avxvnni, else kAvx2.
IntMicrokernel int_microkernel();

/// Test and bench hook: makes gemm_s8/gemm_s16(Kind::kAvx2, ...) run `mk`
/// until destruction, so a VNNI host checks and times every microkernel it
/// has. Throws std::runtime_error when !int_microkernel_available(mk). Not
/// thread-safe against concurrent GEMM callers, like ScopedKernelOverride.
class ScopedIntMicrokernel {
 public:
  explicit ScopedIntMicrokernel(IntMicrokernel mk);
  ~ScopedIntMicrokernel();
  ScopedIntMicrokernel(const ScopedIntMicrokernel&) = delete;
  ScopedIntMicrokernel& operator=(const ScopedIntMicrokernel&) = delete;

 private:
  IntMicrokernel previous_;
};

namespace detail {
/// Engine implementations behind gemm_s8/gemm_s16. The _avx2 symbols live in
/// kernels_int_avx2.cpp (throwing stubs without CNN2FPGA_HAVE_AVX2), the
/// _avxvnni/_avx512vnni ones in kernels_int_vnni.cpp (built once per
/// encoding, and only when the compiler has its flags); the _ref scalar
/// kernels read the same packed bytes and are bit-identical.
void gemm_s8_ref(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                 const FixedPointFormat& format, int act, std::int8_t* c, std::size_t ldc);
void gemm_s16_ref(const PackedWeightsS16& a, const std::int16_t* bpack, std::size_t n,
                  const FixedPointFormat& format, int act, std::int16_t* c, std::size_t ldc);
void gemm_s8_avx2(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                  const FixedPointFormat& format, int act, std::int8_t* c, std::size_t ldc);
void gemm_s16_avx2(const PackedWeightsS16& a, const std::int16_t* bpack, std::size_t n,
                   const FixedPointFormat& format, int act, std::int16_t* c,
                   std::size_t ldc);
void gemm_s8_avxvnni(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                     const FixedPointFormat& format, int act, std::int8_t* c,
                     std::size_t ldc);
void gemm_s16_avxvnni(const PackedWeightsS16& a, const std::int16_t* bpack, std::size_t n,
                      const FixedPointFormat& format, int act, std::int16_t* c,
                      std::size_t ldc);
void gemm_s8_avx512vnni(const PackedWeightsS8& a, const std::uint8_t* bpack, std::size_t n,
                        const FixedPointFormat& format, int act, std::int8_t* c,
                        std::size_t ldc);
void gemm_s16_avx512vnni(const PackedWeightsS16& a, const std::int16_t* bpack,
                         std::size_t n, const FixedPointFormat& format, int act,
                         std::int16_t* c, std::size_t ldc);
}  // namespace detail

/// Per-network cache of quantized weight panels + activation tables for ONE
/// serving precision, shared across an ExecutionContextPool exactly like
/// PackCache: each layer quantizes/packs once per deployed design, lazily
/// under a once_flag. Assumes frozen weights.
class QuantPackCache {
 public:
  QuantPackCache(std::size_t layer_count, ServePrecision precision);

  ServePrecision precision() const { return precision_; }
  const FixedPointFormat& format() const { return format_; }

  const PackedWeightsS8& get8(std::size_t layer, const float* w, const float* bias,
                              std::size_t m, std::size_t k);
  const PackedWeightsS16& get16(std::size_t layer, const float* w, const float* bias,
                                std::size_t m, std::size_t k);

  /// Lazily built activation tables (nullptr is never returned; ReLU needs no
  /// table and must not ask for one).
  const std::int8_t* lut8(ActKind act);
  const std::int16_t* lut16(ActKind act);

 private:
  struct Entry {
    std::once_flag once;
    PackedWeightsS8 p8;
    PackedWeightsS16 p16;
  };
  struct Lut {
    std::once_flag once;
    util::aligned_vector<std::int8_t> t8;
    util::aligned_vector<std::int16_t> t16;
  };

  ServePrecision precision_;
  FixedPointFormat format_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::array<Lut, 3> luts_;  ///< indexed by ActKind
};

}  // namespace cnn2fpga::nn::kernels
