// SIMD kernel-engine benchmark: what the runtime-dispatched AVX2 microkernels
// (src/nn/kernels) buy over the seed blocked-GEMM inference path, measured on
// one thread so the numbers isolate the kernels from the serving runtime.
//
//   1. Conv GEMM, per case-study conv layer. The seed path is a frozen copy
//      of the conv fast path the kernel engine replaced (seed_blocked_conv
//      in seed_conv.cpp: im2col + the pixel-blocked scalar GEMM), so the
//      gate's baseline never moves. The SIMD path is exactly what the plan
//      executor runs: weights packed once (the PackCache amortizes packing
//      across calls), then the conv step kernels::conv_step, which packs one
//      kConvBlockCols-column block at a time into an L1-sized arena and runs
//      the fused SIMD GEMM epilogue over it. Parity (<= 1e-4 relative) is
//      checked on the outputs being timed. The scalar engine's conv step
//      (same blocks, per-element gemm_scalar) is reported beside them, and
//      so is the SIMD GEMM alone on the whole image's packed panels, as
//      GFLOP/s and as a
//      share of the host's single-thread FMA peak (12 independent FMA
//      chains on the float microkernel's register width, the roof a
//      register-resident tile can reach). A GEMM whose accumulators spill
//      to the stack shows up as a low share. The float microkernel is the
//      width kernels::gemm picks by cpuid ("float_microkernel": avx2 or
//      avx512); on an AVX-512 host the 256-bit microkernel's GEMM alone is
//      reported beside it ("gemm_avx2_us") and not gated. The
//      int8 and int16 GEMMs alone on their packed panels are reported beside
//      the float GEMM alone, with their ratios to it: what an integer
//      pipeline could reach over float once both im2cols cost nothing.
//   2. Whole-network inference on the paper's Test-4 CIFAR network: seed
//      forward(), scalar-pinned infer(), avx2 infer() at float, int8 and
//      int16, and fused infer_batch(8) per-image cost, plus argmax
//      agreement; the network's 900->36 linear step alone (the unpacked
//      linear kernel of the active engine) at batch 1 and 8; and its two
//      pool steps alone (the pool pass of each precision), none gated.
//
//   The int8 and int16 conv steps (conv_step_s8 / _s16) are timed on
//   the integer microkernel gemm_s8/gemm_s16 pick by cpuid ("microkernel":
//   avx2, avxvnni or avx512vnni), and on a VNNI host again on the AVX2
//   microkernel, reported beside them ("*_avx2_*", "avx2_microkernel") and
//   not gated. Where cpuid picks AVX512-VNNI over an AVX-VNNI the host also
//   has, the 256-bit VNNI GEMMs alone are reported too ("*_avxvnni_gemm_us",
//   0 without AVX-VNNI), so both widths of every GEMM stay measured. Every integer output timed is compared bit for bit with the
//   scalar engine (gemm_s8/gemm_s16 with Kind::kScalar) on panels the
//   reference packers built ("bit_exact").
//
// Gate (AVX2 hosts): geometric-mean conv-GEMM speedup >= 3x over the
// GEMM-dominated layers (N >= 64 output pixels) and parity holds; the
// quantized pipelines must additionally beat the float SIMD path by >= 2x
// (int8) and >= 1x (int16) on the same layers, on the gated microkernel,
// with bit-exact outputs. Flags: --quick (fewer samples) and --out <path>;
// any other flag is refused before anything is measured.
// On hosts without AVX2+FMA the measurements that need the engine are skipped
// and the gate passes vacuously (there is no SIMD path to compare).
//
// Emits a human-readable table plus BENCH_kernels.json (see --out). Schema:
//   {
//     "bench": "kernels", "avx2_available": bool, "engine": "scalar"|"avx2",
//     "float_microkernel": "avx2"|"avx512",
//     "conv": [{"name": str, "m": int, "k": int, "n": int,
//               "seed_us": float, "scalar_us": float, "simd_us": float,
//               "speedup": float, "gemm_us": float, "gemm_avx2_us": float,
//               "gemm_gflops": float,
//               "peak_share": float, "max_rel_err": float, "int8_us": float,
//               "int8_speedup_vs_float": float, "int16_us": float,
//               "int16_speedup_vs_float": float, "int8_gemm_us": float,
//               "int8_gemm_speedup_vs_float": float, "int16_gemm_us": float,
//               "int16_gemm_speedup_vs_float": float, "int8_avx2_us": float,
//               "int8_avx2_gemm_us": float, "int16_avx2_us": float,
//               "int16_avx2_gemm_us": float, "int8_avxvnni_gemm_us": float,
//               "int16_avxvnni_gemm_us": float}, ...],
//     "int8":  {"conv_speedup_vs_float_geomean": float,
//               "gemm_speedup_vs_float_geomean": float,
//               "gate_min_speedup": 2.0,
//               "microkernel": "avx2"|"avxvnni"|"avx512vnni",
//               "bit_exact": bool, "pass": bool,
//               "avx2_microkernel": {"conv_speedup_vs_float_geomean": float,
//                                    "gemm_speedup_vs_float_geomean": float}},
//     "int16": {... the same fields, "gate_min_speedup": 1.0 ...},
//     "conv_gemm_speedup_geomean": float, "host_peak_gflops": float,
//     "test4_linear": {"m": int, "k": int, "b1_us": float, "b8_us": float},
//     "test4_pool": [{"name": str, "planes": int, "in": int, "float_us": float,
//                     "int8_us": float, "int16_us": float}, ...],
//     "net_forward_us": float, "net_infer_scalar_us": float,
//     "net_infer_simd_us": float, "net_infer_int8_us": float,
//     "net_infer_int16_us": float, "net_batch8_us_per_image": float,
//     "net_speedup": float, "batch_fusion_speedup": float,
//     "argmax_match": bool, "gate_min_speedup": 3.0, "pass": bool
//   }
#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"

using namespace cnn2fpga;

/// The gate's fixed baseline (bench/seed_conv.cpp).
void seed_blocked_conv(const nn::Conv2D& conv, const tensor::Tensor& x, tensor::Tensor& out,
                       float* col);

namespace {

using Clock = std::chrono::steady_clock;

/// Best-of-`samples` average microseconds per call of `fn`. Each sample runs
/// enough iterations (calibrated once) to amortize timer noise; min-of-means
/// is robust against scheduler preemption without needing a long run.
template <typename Fn>
double time_us(Fn&& fn, int samples) {
  fn();  // warm caches, fault pages
  auto start = Clock::now();
  fn();
  double once = std::chrono::duration<double>(Clock::now() - start).count();
  const int iters = std::max(1, static_cast<int>(5e-3 / std::max(once, 1e-9)));
  double best = 1e300;
  for (int s = 0; s < samples; ++s) {
    start = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    best = std::min(best, elapsed / iters);
  }
  return best * 1e6;
}

struct ConvCase {
  const char* name;
  std::size_t in_c, ih, iw, maps, kernel;
};

struct ConvResult {
  std::string name;
  std::size_t m = 0, k = 0, n = 0;
  double seed_us = 0.0;
  double scalar_us = 0.0;  ///< scalar engine: conv_step with gemm_scalar
  double simd_us = 0.0;
  double speedup = 0.0;
  double gemm_us = 0.0;      ///< the SIMD GEMM alone on packed panels
  /// The same on the 256-bit microkernel (equal to gemm_us when that is the
  /// one cpuid picks).
  double gemm_avx2_us = 0.0;
  double gemm_gflops = 0.0;
  double peak_share = 0.0;   ///< gemm_gflops / host FMA peak
  double max_rel_err = 0.0;
  double int8_us = 0.0;   ///< quantized conv step per call (blocked pack + gemm)
  double int16_us = 0.0;
  double int8_speedup = 0.0;   ///< vs the float SIMD pipeline (simd_us)
  double int16_speedup = 0.0;
  double int8_gemm_us = 0.0;   ///< the int8 GEMM alone on packed panels
  double int16_gemm_us = 0.0;
  double int8_gemm_speedup = 0.0;   ///< vs the float GEMM alone (gemm_us)
  double int16_gemm_speedup = 0.0;
  /// The same four timings on the AVX2 integer microkernel (equal to the
  /// above when that is the one the gates measure).
  double int8_avx2_us = 0.0, int16_avx2_us = 0.0;
  double int8_avx2_gemm_us = 0.0, int16_avx2_gemm_us = 0.0;
  /// The GEMMs alone on the AVX-VNNI microkernel (0 without AVX-VNNI).
  double int8_avxvnni_gemm_us = 0.0, int16_avxvnni_gemm_us = 0.0;
  /// Every timed integer output equals gemm_s8/gemm_s16(Kind::kScalar) on
  /// panels the reference packers built.
  bool int8_bit_exact = true, int16_bit_exact = true;
};

/// One integer precision's timings on one microkernel: the conv step and the
/// GEMM alone on the whole image's packed panels.
struct QuantTimes {
  double pipeline_us = 0.0, gemm_us = 0.0;
};

/// Seed blocked GEMM vs the scalar and AVX2 kernel pipelines on one conv
/// layer.
ConvResult measure_conv(const ConvCase& c, int samples) {
  namespace ker = nn::kernels;
  nn::Conv2D conv(c.in_c, c.maps, c.kernel, c.kernel);
  util::Rng rng(1);
  conv.init_weights(rng);
  const tensor::Tensor x = bench::random_tensor(nn::Shape{c.in_c, c.ih, c.iw}, 2);
  const nn::Shape out_shape = conv.output_shape(x.shape());
  const std::size_t oh = out_shape.height(), ow = out_shape.width();

  ConvResult r;
  r.name = c.name;
  r.m = c.maps;
  r.k = c.in_c * c.kernel * c.kernel;
  r.n = oh * ow;

  tensor::Tensor seed_out(out_shape);
  std::vector<float> col(r.n * r.k);
  r.seed_us = time_us([&] { seed_blocked_conv(conv, x, seed_out, col.data()); }, samples);

  // Pack weights once — the engine's PackCache does this once per deploy.
  ker::PackedA wp;
  ker::pack_a(conv.weights().data(), r.m, r.k, wp);
  const ker::ConvShape shape{c.ih * c.iw, c.in_c, c.ih, c.iw, c.kernel, c.kernel, oh, ow};
  util::aligned_vector<float> block(ker::conv_block_size(r.k));
  tensor::Tensor scalar_out(out_shape);
  r.scalar_us = time_us(
      [&] {
        ker::conv_step(ker::Kind::kScalar, wp, conv.bias().data(), /*act=*/-1, x.data(),
                       x.size(), 1, shape, block.data(), scalar_out.data());
      },
      samples);

  if (!ker::avx2_available()) return r;

  tensor::Tensor simd_out(out_shape);
  r.simd_us = time_us(
      [&] {
        ker::conv_step(ker::Kind::kAvx2, wp, conv.bias().data(), /*act=*/-1, x.data(),
                       x.size(), 1, shape, block.data(), simd_out.data());
      },
      samples);
  r.speedup = r.seed_us / r.simd_us;
  // The GEMM alone over the whole image's packed panels.
  util::aligned_vector<float> bpack(ker::packed_b_size(r.n, r.k));
  ker::im2col_pack(x.data(), shape, 0, r.n, bpack.data(), 0);
  ker::zero_pack_tail(bpack.data(), r.n, r.k);
  tensor::Tensor gemm_out(out_shape);
  r.gemm_us = time_us(
      [&] {
        ker::gemm(wp, bpack.data(), r.n, conv.bias().data(), /*act=*/-1, gemm_out.data(),
                  r.n);
      },
      samples);
  r.gemm_gflops = 2.0 * static_cast<double>(r.m * r.k * r.n) / (r.gemm_us * 1e3);
  r.gemm_avx2_us = r.gemm_us;
  if (ker::float_microkernel() != ker::FloatMicrokernel::kAvx2) {
    const ker::ScopedFloatMicrokernel narrow(ker::FloatMicrokernel::kAvx2);
    r.gemm_avx2_us = time_us(
        [&] {
          ker::gemm(wp, bpack.data(), r.n, conv.bias().data(), /*act=*/-1, gemm_out.data(),
                    r.n);
        },
        samples);
  }

  // Quantized conv steps on the same layer: activations arrive as raw fixed
  // values (as they do between layers of the quantized runner), so the timed
  // path is the serving path — the blocked integer conv step with the fused
  // requantizing GEMM. Weight packing is deploy-time (QuantPackCache) and is
  // excluded, matching the float measurement above. Each precision is timed
  // on the microkernel gemm_s8/gemm_s16 pick (the gated one) and, on a VNNI
  // host, again on the AVX2 microkernel; every output it timed is then
  // checked bit for bit against the scalar engine on panels the reference
  // packers built.
  {
    // `gated` is the timing on the microkernel cpuid picks; another one the
    // host has is forced, and one it lacks reads zero.
    const auto on_microkernel = [](ker::IntMicrokernel mk, auto&& measure,
                                   const QuantTimes& gated) {
      if (ker::int_microkernel() == mk) return gated;
      if (!ker::int_microkernel_available(mk)) return QuantTimes{};
      const ker::ScopedIntMicrokernel force(mk);
      return measure();
    };

    const nn::FixedPointFormat f8 = nn::serve_precision_format(nn::ServePrecision::kInt8);
    util::aligned_vector<std::int8_t> x8(x.size());
    ker::quantize_input_s8(x.data(), x.size(), f8, x8.data());
    ker::PackedWeightsS8 w8;
    ker::pack_weights_s8(conv.weights().data(), conv.bias().data(), r.m, r.k, f8, w8);
    util::aligned_vector<std::uint8_t> b8(ker::packed_b_size_s8(r.n, r.k));
    util::aligned_vector<std::uint8_t> block8(ker::conv_block_size_s8(r.k));
    util::aligned_vector<std::int8_t> c8(r.m * r.n), ref8(r.m * r.n);
    ker::detail::im2col_pack_s8_ref(x8.data(), shape, 0, r.n, b8.data(), 0);
    ker::finish_pack_s8(b8.data(), r.n, r.k);
    ker::gemm_s8(ker::Kind::kScalar, w8, b8.data(), r.n, f8, /*act=*/-1, ref8.data(), r.n);
    const auto measure8 = [&] {
      QuantTimes t;
      t.pipeline_us = time_us(
          [&] {
            ker::conv_step_s8(ker::Kind::kAvx2, w8, f8, /*act=*/-1, x8.data(), x8.size(), 1,
                              shape, block8.data(), c8.data());
          },
          samples);
      r.int8_bit_exact = r.int8_bit_exact && c8 == ref8;
      // b8 holds the reference packer's panels, which every packer writes.
      t.gemm_us = time_us(
          [&] {
            ker::gemm_s8(ker::Kind::kAvx2, w8, b8.data(), r.n, f8, /*act=*/-1, c8.data(),
                         r.n);
          },
          samples);
      r.int8_bit_exact = r.int8_bit_exact && c8 == ref8;
      return t;
    };
    const QuantTimes t8 = measure8();
    const QuantTimes t8_avx2 = on_microkernel(ker::IntMicrokernel::kAvx2, measure8, t8);
    r.int8_avxvnni_gemm_us = on_microkernel(ker::IntMicrokernel::kAvxVnni, measure8, t8).gemm_us;
    r.int8_us = t8.pipeline_us;
    r.int8_gemm_us = t8.gemm_us;
    r.int8_avx2_us = t8_avx2.pipeline_us;
    r.int8_avx2_gemm_us = t8_avx2.gemm_us;
    r.int8_speedup = r.simd_us / r.int8_us;
    r.int8_gemm_speedup = r.gemm_us / r.int8_gemm_us;

    const nn::FixedPointFormat f16 = nn::serve_precision_format(nn::ServePrecision::kInt16);
    util::aligned_vector<std::int16_t> x16(x.size());
    ker::quantize_input_s16(x.data(), x.size(), f16, x16.data());
    ker::PackedWeightsS16 w16;
    ker::pack_weights_s16(conv.weights().data(), conv.bias().data(), r.m, r.k, f16, w16);
    util::aligned_vector<std::int16_t> b16(ker::packed_b_size_s16(r.n, r.k));
    util::aligned_vector<std::int16_t> block16(ker::conv_block_size_s16(r.k));
    util::aligned_vector<std::int16_t> c16(r.m * r.n), ref16(r.m * r.n);
    ker::detail::im2col_pack_s16_ref(x16.data(), shape, 0, r.n, b16.data(), 0);
    ker::finish_pack_s16(b16.data(), r.n, r.k);
    ker::gemm_s16(ker::Kind::kScalar, w16, b16.data(), r.n, f16, /*act=*/-1, ref16.data(),
                  r.n);
    const auto measure16 = [&] {
      QuantTimes t;
      t.pipeline_us = time_us(
          [&] {
            ker::conv_step_s16(ker::Kind::kAvx2, w16, f16, /*act=*/-1, x16.data(), x16.size(),
                               1, shape, block16.data(), c16.data());
          },
          samples);
      r.int16_bit_exact = r.int16_bit_exact && c16 == ref16;
      t.gemm_us = time_us(
          [&] {
            ker::gemm_s16(ker::Kind::kAvx2, w16, b16.data(), r.n, f16, /*act=*/-1,
                          c16.data(), r.n);
          },
          samples);
      r.int16_bit_exact = r.int16_bit_exact && c16 == ref16;
      return t;
    };
    const QuantTimes t16 = measure16();
    const QuantTimes t16_avx2 = on_microkernel(ker::IntMicrokernel::kAvx2, measure16, t16);
    r.int16_avxvnni_gemm_us =
        on_microkernel(ker::IntMicrokernel::kAvxVnni, measure16, t16).gemm_us;
    r.int16_us = t16.pipeline_us;
    r.int16_gemm_us = t16.gemm_us;
    r.int16_avx2_us = t16_avx2.pipeline_us;
    r.int16_avx2_gemm_us = t16_avx2.gemm_us;
    r.int16_speedup = r.simd_us / r.int16_us;
    r.int16_gemm_speedup = r.gemm_us / r.int16_gemm_us;
  }

  for (std::size_t i = 0; i < seed_out.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(seed_out[i]));
    r.max_rel_err =
        std::max(r.max_rel_err, static_cast<double>(std::fabs(simd_out[i] - seed_out[i]) / scale));
  }
  return r;
}

volatile float g_sink = 0.0f;

/// One timing of 12 independent 256-bit FMA chains in registers: the
/// single-thread floating-point roof of the 256-bit float microkernel. This
/// mirrors the host peak probe of perfbench's load generator
/// (perfbench/loadgen/layers.cpp), which has no 512-bit probe yet.
__attribute__((target("avx2,fma"))) double fma256_peak_gflops_once() {
  constexpr int kChains = 12;
  constexpr long kIterations = 400000;
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(static_cast<float>(c) * 1e-3f);
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  const auto start = Clock::now();
  for (long i = 0; i < kIterations; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  g_sink = lanes[0];
  return 2.0 * 8.0 * kChains * static_cast<double>(kIterations) / seconds * 1e-9;
}

/// The same on 512-bit registers: the roof of the 512-bit float microkernel.
__attribute__((target("avx512f"))) double fma512_peak_gflops_once() {
  constexpr int kChains = 12;
  constexpr long kIterations = 400000;
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(static_cast<float>(c) * 1e-3f);
  const __m512 a = _mm512_set1_ps(0.999999f);
  const __m512 b = _mm512_set1_ps(1e-7f);
  const auto start = Clock::now();
  for (long i = 0; i < kIterations; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], a, b);
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  __m512 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  float lanes[16];
  _mm512_storeu_ps(lanes, sum);
  g_sink = lanes[0];
  return 2.0 * 16.0 * kChains * static_cast<double>(kIterations) / seconds * 1e-9;
}

/// Best of 7 peak timings on the widest FMA the float engine uses, matching
/// the best-of-samples GEMM times it is set against.
double fma_peak_gflops() {
  const bool wide = nn::kernels::float_microkernel() == nn::kernels::FloatMicrokernel::kAvx512;
  double best = 0.0;
  for (int r = 0; r < 7; ++r) {
    best = std::max(best, wide ? fma512_peak_gflops_once() : fma256_peak_gflops_once());
  }
  return best;
}

struct LinearResult {
  std::size_t m = 0, k = 0;
  double b1_us = 0.0, b8_us = 0.0;
};

/// The network's first linear step as the plan executor runs it on `kind`:
/// the linear kernel over image-major rows, fused activation included, at
/// batch 1 and 8.
LinearResult measure_linear(const nn::Network& net, nn::kernels::Kind kind, int samples) {
  namespace ker = nn::kernels;
  const nn::ExecutionContext plan(net, kind, nullptr);
  LinearResult r;
  for (const nn::ExecutionContext::Step& step : plan.steps()) {
    if (step.kind != nn::ExecutionContext::Step::Kind::kLinear) continue;
    const auto* lin = static_cast<const nn::Linear*>(step.layer);
    const int act = step.fused != nullptr ? static_cast<int>(step.fused->act()) : -1;
    r.m = lin->out_features();
    r.k = lin->in_features();
    ker::PackedA wp;
    ker::pack_a(lin->weights().data(), r.m, r.k, wp);
    const tensor::Tensor x = bench::random_tensor(nn::Shape{8, 1, r.k}, 30);
    std::vector<float> out(8 * r.m);
    const auto run = [&](std::size_t batch) {
      if (kind == ker::Kind::kAvx2) {
        ker::linear(wp, x.data(), batch, lin->bias().data(), act, out.data());
      } else {
        ker::linear_scalar(wp, x.data(), batch, lin->bias().data(), act, out.data());
      }
    };
    r.b1_us = time_us([&] { run(1); }, samples);
    r.b8_us = time_us([&] { run(8); }, samples);
    break;
  }
  return r;
}

struct PoolResult {
  std::string name;
  std::size_t planes = 0, in = 0;
  double float_us = 0.0, int8_us = 0.0, int16_us = 0.0;
};

/// The network's pool steps as the plan executor runs them on one image: the
/// pool pass of each precision over all the step's planes.
std::vector<PoolResult> measure_pools(const nn::Network& net, int samples) {
  namespace ker = nn::kernels;
  const nn::ExecutionContext plan(net, ker::Kind::kScalar, nullptr);
  const nn::FixedPointFormat f8 = nn::serve_precision_format(nn::ServePrecision::kInt8);
  const nn::FixedPointFormat f16 = nn::serve_precision_format(nn::ServePrecision::kInt16);
  std::vector<PoolResult> results;
  for (const nn::ExecutionContext::Step& step : plan.steps()) {
    if (step.kind != nn::ExecutionContext::Step::Kind::kPool) continue;
    const auto* pool = static_cast<const nn::Pool2D*>(step.layer);
    const bool is_max = pool->pool_kind() == nn::PoolKind::kMax;
    const ker::PoolShape s{step.in_shape.channels(), step.in_shape.height(),
                           step.in_shape.width(),    pool->kernel_h(),
                           pool->kernel_w(),         pool->step(),
                           step.out_shape.height(),  step.out_shape.width()};
    PoolResult r;
    r.name = "pool" + std::to_string(results.size() + 1);
    r.planes = s.planes;
    r.in = s.ih;
    const tensor::Tensor x = bench::random_tensor(step.in_shape, 40 + results.size());
    std::vector<float> out(step.out_shape.elements());
    r.float_us = time_us([&] { ker::pool_layer(is_max, x.data(), s, out.data()); }, samples);
    std::vector<std::int8_t> x8(x.size()), out8(out.size());
    ker::quantize_input_s8(x.data(), x.size(), f8, x8.data());
    r.int8_us = time_us(
        [&] { ker::pool_layer_s8(is_max, x8.data(), s, out8.data(), f8); }, samples);
    std::vector<std::int16_t> x16(x.size()), out16(out.size());
    ker::quantize_input_s16(x.data(), x.size(), f16, x16.data());
    r.int16_us = time_us(
        [&] { ker::pool_layer_s16(is_max, x16.data(), s, out16.data(), f16); }, samples);
    results.push_back(r);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  namespace ker = nn::kernels;
  const util::CliArgs args(argc, argv);
  if (!bench::only_flags(args, {"quick", "out"})) return 1;
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const bool quick = args.has("quick");
  const int samples = quick ? 3 : 7;
  const bool avx2 = ker::avx2_available();
  const char* microkernel = ker::int_microkernel_name(ker::int_microkernel());
  const char* float_microkernel = ker::float_microkernel_name(ker::float_microkernel());

  std::printf("SIMD kernel engine benchmark (single thread, engine: %s%s)\n",
              ker::kind_name(ker::active()), quick ? ", --quick" : "");
  std::puts("---------------------------------------------------------------------");
  if (avx2) {
    std::printf("float microkernel: %s; integer microkernel gated: %s\n", float_microkernel,
                microkernel);
  }
  const double peak_gflops = avx2 ? fma_peak_gflops() : 0.0;
  if (avx2) {
    std::printf("host FMA peak (12 chains, one thread, %s): %.1f GFLOP/s\n", float_microkernel,
                peak_gflops);
  }

  // The conv layers of the paper's case studies (Sec. V): Test-1/2 USPS conv,
  // Test-3 second conv, Test-4 CIFAR convs (post-pool input sizes).
  const ConvCase cases[] = {
      {"test1_conv6_5x5_16x16", 1, 16, 16, 6, 5},
      {"test3_conv16_5x5_6x6x6", 6, 6, 6, 16, 5},
      {"test4_conv12_5x5_3x32x32", 3, 32, 32, 12, 5},
      {"test4_conv36_5x5_12x14x14", 12, 14, 14, 36, 5},
  };
  std::vector<ConvResult> conv_results;
  double log_speedup_sum = 0.0;
  double log_int8_sum = 0.0, log_int16_sum = 0.0;
  double log_int8_gemm_sum = 0.0, log_int16_gemm_sum = 0.0;
  // The same on the AVX2 integer microkernel: reported, not gated.
  double log_int8_avx2_sum = 0.0, log_int16_avx2_sum = 0.0;
  double log_int8_avx2_gemm_sum = 0.0, log_int16_avx2_gemm_sum = 0.0;
  bool int8_bit_exact = true, int16_bit_exact = true;
  std::size_t gated = 0;
  double worst_rel_err = 0.0;
  std::puts("conv GEMM, seed blocked path vs packed scalar and AVX2 kernels:");
  for (const ConvCase& c : cases) {
    ConvResult r = measure_conv(c, samples);
    if (avx2) r.peak_share = r.gemm_gflops / peak_gflops;
    conv_results.push_back(r);
    if (avx2) {
      // The >= 3x gate averages the GEMM-dominated layers (N >= 64 output
      // pixels). Degenerate layers like Test-3's 2x2-output conv are reported
      // but not gated: at N=4 only 4 of 16 panel lanes are live and the call
      // is timer-overhead-bound, so the ratio measures neither engine.
      if (r.n >= 64) {
        log_speedup_sum += std::log(r.speedup);
        log_int8_sum += std::log(r.int8_speedup);
        log_int16_sum += std::log(r.int16_speedup);
        log_int8_gemm_sum += std::log(r.int8_gemm_speedup);
        log_int16_gemm_sum += std::log(r.int16_gemm_speedup);
        log_int8_avx2_sum += std::log(r.simd_us / r.int8_avx2_us);
        log_int16_avx2_sum += std::log(r.simd_us / r.int16_avx2_us);
        log_int8_avx2_gemm_sum += std::log(r.gemm_us / r.int8_avx2_gemm_us);
        log_int16_avx2_gemm_sum += std::log(r.gemm_us / r.int16_avx2_gemm_us);
        ++gated;
      }
      int8_bit_exact = int8_bit_exact && r.int8_bit_exact;
      int16_bit_exact = int16_bit_exact && r.int16_bit_exact;
      worst_rel_err = std::max(worst_rel_err, r.max_rel_err);
      std::printf("  %-26s M=%-3zu K=%-4zu N=%-5zu %8.2f us -> %7.2f us  (%.2fx, err %.2e)\n",
                  r.name.c_str(), r.m, r.k, r.n, r.seed_us, r.simd_us, r.speedup,
                  r.max_rel_err);
      std::printf("  %-26s scalar engine %7.2f us (%.2fx vs seed)\n", "", r.scalar_us,
                  r.seed_us / r.scalar_us);
      std::printf("  %-26s GEMM alone %7.2f us, %6.1f GFLOP/s (%.0f%% of peak);"
                  " avx2 microkernel (not gated) %7.2f us\n",
                  "", r.gemm_us, r.gemm_gflops, 100.0 * r.peak_share, r.gemm_avx2_us);
      std::printf("  %-26s int16 %7.2f us (%.2fx vs float)  int8 %7.2f us (%.2fx vs float)\n",
                  "", r.int16_us, r.int16_speedup, r.int8_us, r.int8_speedup);
      std::printf("  %-26s GEMM alone: int16 %7.2f us (%.2fx vs float)  int8 %7.2f us"
                  " (%.2fx vs float)\n",
                  "", r.int16_gemm_us, r.int16_gemm_speedup, r.int8_gemm_us,
                  r.int8_gemm_speedup);
      std::printf("  %-26s GEMM alone on avxvnni (not gated): int16 %7.2f us  int8 %7.2f us\n",
                  "", r.int16_avxvnni_gemm_us, r.int8_avxvnni_gemm_us);
    } else {
      std::printf("  %-26s M=%-3zu K=%-4zu N=%-5zu %8.2f us, scalar engine %7.2f us"
                  "  (no AVX2 engine)\n",
                  r.name.c_str(), r.m, r.k, r.n, r.seed_us, r.scalar_us);
    }
  }
  const double geomean =
      avx2 && gated > 0 ? std::exp(log_speedup_sum / static_cast<double>(gated)) : 0.0;
  const double int8_geomean =
      avx2 && gated > 0 ? std::exp(log_int8_sum / static_cast<double>(gated)) : 0.0;
  const double int16_geomean =
      avx2 && gated > 0 ? std::exp(log_int16_sum / static_cast<double>(gated)) : 0.0;
  const double int8_gemm_geomean =
      avx2 && gated > 0 ? std::exp(log_int8_gemm_sum / static_cast<double>(gated)) : 0.0;
  const double int16_gemm_geomean =
      avx2 && gated > 0 ? std::exp(log_int16_gemm_sum / static_cast<double>(gated)) : 0.0;
  const auto geomean_of = [&](double log_sum) {
    return avx2 && gated > 0 ? std::exp(log_sum / static_cast<double>(gated)) : 0.0;
  };
  const double int8_avx2_geomean = geomean_of(log_int8_avx2_sum);
  const double int16_avx2_geomean = geomean_of(log_int16_avx2_sum);
  const double int8_avx2_gemm_geomean = geomean_of(log_int8_avx2_gemm_sum);
  const double int16_avx2_gemm_geomean = geomean_of(log_int16_avx2_gemm_sum);
  if (avx2) {
    std::printf("  geometric-mean conv GEMM speedup (N >= 64 layers): %.2fx\n", geomean);
    std::printf("  quantized vs float SIMD geomean (N >= 64 layers, %s): int8 %.2fx,"
                " int16 %.2fx\n",
                microkernel, int8_geomean, int16_geomean);
    std::printf("  GEMM alone, quantized vs float geomean (N >= 64 layers, %s): int8 %.2fx,"
                " int16 %.2fx\n",
                microkernel, int8_gemm_geomean, int16_gemm_geomean);
    std::printf("  avx2 integer microkernel (not gated): int8 %.2fx, int16 %.2fx;"
                " GEMM alone int8 %.2fx, int16 %.2fx\n",
                int8_avx2_geomean, int16_avx2_geomean, int8_avx2_gemm_geomean,
                int16_avx2_gemm_geomean);
    std::printf("  integer outputs bitwise equal to the scalar engine on reference-packed"
                " panels: int8 %s, int16 %s\n",
                int8_bit_exact ? "yes" : "NO", int16_bit_exact ? "yes" : "NO");
  }

  // Whole-network cost on the Test-4 CIFAR network.
  nn::Network net = nn::make_test4_network();
  util::Rng rng(9);
  net.init_weights(rng);
  const tensor::Tensor x = bench::random_tensor(nn::Shape{3, 32, 32}, 10);
  nn::ExecutionContext scalar_ctx(net, ker::Kind::kScalar, nullptr);

  const double forward_us = time_us([&] { (void)net.forward(x, false); }, samples);
  const double infer_scalar_us =
      time_us([&] { (void)net.infer(x, scalar_ctx); }, samples);
  std::puts("Test-4 CIFAR network, one image:");
  std::printf("  forward() (seed, allocating): %9.2f us\n", forward_us);
  std::printf("  infer()   scalar engine:      %9.2f us\n", infer_scalar_us);

  double infer_simd_us = 0.0, infer_int8_us = 0.0, infer_int16_us = 0.0;
  double batch_us_per_image = 0.0;
  double net_speedup = 0.0, fusion_speedup = 0.0;
  bool argmax_match = true;
  if (avx2) {
    nn::ExecutionContext simd_ctx(net, ker::Kind::kAvx2, nullptr);
    infer_simd_us = time_us([&] { (void)net.infer(x, simd_ctx); }, samples);
    constexpr std::size_t kBatch = 8;
    std::vector<tensor::Tensor> images;
    for (std::size_t i = 0; i < kBatch; ++i) {
      images.push_back(bench::random_tensor(net.input_shape(), 20 + i));
    }
    batch_us_per_image = time_us([&] { (void)net.infer_batch(images, simd_ctx); }, samples) /
                         static_cast<double>(kBatch);
    net_speedup = infer_scalar_us / infer_simd_us;
    fusion_speedup = infer_simd_us / batch_us_per_image;
    std::printf("  infer()   avx2 engine:        %9.2f us  (%.2fx vs scalar)\n",
                infer_simd_us, net_speedup);
    const auto infer_at = [&](nn::ServePrecision precision) {
      nn::ExecutionContext ctx(net, ker::Kind::kAvx2, nullptr, precision, nullptr);
      return time_us([&] { (void)net.infer(x, ctx); }, samples);
    };
    infer_int8_us = infer_at(nn::ServePrecision::kInt8);
    infer_int16_us = infer_at(nn::ServePrecision::kInt16);
    std::printf("  infer()   avx2 engine, int8:  %9.2f us  (%.2fx vs float, not gated)\n",
                infer_int8_us, infer_simd_us / infer_int8_us);
    std::printf("  infer()   avx2 engine, int16: %9.2f us  (%.2fx vs float, not gated)\n",
                infer_int16_us, infer_simd_us / infer_int16_us);
    std::printf("  infer_batch(8) per image:     %9.2f us  (%.2fx vs per-image avx2)\n",
                batch_us_per_image, fusion_speedup);
    for (const tensor::Tensor& image : images) {
      argmax_match = argmax_match &&
                     net.infer(image, simd_ctx).argmax() == net.infer(image, scalar_ctx).argmax();
    }
    std::printf("  argmax agreement (8 images):  %s\n", argmax_match ? "yes" : "NO");
  } else {
    std::puts("  avx2 engine unavailable on this host; SIMD sections skipped.");
  }
  const ker::Kind linear_kind = avx2 ? ker::Kind::kAvx2 : ker::Kind::kScalar;
  const LinearResult linear = measure_linear(net, linear_kind, samples);
  std::printf("  linear %zu->%zu step (%s):  %9.2f us at batch 1, %.2f us at batch 8\n",
              linear.k, linear.m, ker::kind_name(linear_kind), linear.b1_us, linear.b8_us);
  const std::vector<PoolResult> pools = avx2 ? measure_pools(net, samples)
                                             : std::vector<PoolResult>{};
  for (const PoolResult& p : pools) {
    std::printf("  %s step, %zu planes of %zux%zu:  float %.2f us, int8 %.2f us, int16 %.2f us"
                " (not gated)\n",
                p.name.c_str(), p.planes, p.in, p.in, p.float_us, p.int8_us, p.int16_us);
  }

  constexpr double kGate = 3.0;
  constexpr double kInt8Gate = 2.0;   ///< int8 must at least halve float SIMD time
  constexpr double kInt16Gate = 1.0;  ///< int16 must not lose to float SIMD
  const bool parity_ok = worst_rel_err <= 1e-4;
  // An integer speed gate also needs the outputs it timed to be right.
  const bool int8_pass = !avx2 || (int8_geomean >= kInt8Gate && int8_bit_exact);
  const bool int16_pass = !avx2 || (int16_geomean >= kInt16Gate && int16_bit_exact);
  const bool pass =
      !avx2 || (geomean >= kGate && parity_ok && argmax_match && int8_pass && int16_pass);
  std::printf("gate: conv GEMM geomean >= %.1fx and parity <= 1e-4 -> %s\n", kGate,
              !avx2 || (geomean >= kGate && parity_ok && argmax_match) ? "PASS" : "FAIL");
  std::printf("gate: int8 >= %.1fx and int16 >= %.1fx vs float SIMD, bit-exact, on the %s"
              " integer microkernel -> %s\n",
              kInt8Gate, kInt16Gate, microkernel, int8_pass && int16_pass ? "PASS" : "FAIL");

  std::string json = "{\"bench\": \"kernels\", \"avx2_available\": ";
  json += avx2 ? "true" : "false";
  json += util::format(", \"engine\": \"%s\", \"float_microkernel\": \"%s\", \"conv\": [",
                       ker::kind_name(ker::active()), float_microkernel);
  for (std::size_t i = 0; i < conv_results.size(); ++i) {
    const ConvResult& r = conv_results[i];
    json += util::format(
        "%s{\"name\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, \"seed_us\": %.3f, "
        "\"scalar_us\": %.3f, \"simd_us\": %.3f, \"speedup\": %.3f, \"gemm_us\": %.3f, "
        "\"gemm_avx2_us\": %.3f, \"gemm_gflops\": %.3f, \"peak_share\": %.3f, "
        "\"max_rel_err\": %.3e, "
        "\"int8_us\": %.3f, \"int8_speedup_vs_float\": %.3f, "
        "\"int16_us\": %.3f, \"int16_speedup_vs_float\": %.3f, "
        "\"int8_gemm_us\": %.3f, \"int8_gemm_speedup_vs_float\": %.3f, "
        "\"int16_gemm_us\": %.3f, \"int16_gemm_speedup_vs_float\": %.3f, "
        "\"int8_avx2_us\": %.3f, \"int8_avx2_gemm_us\": %.3f, "
        "\"int16_avx2_us\": %.3f, \"int16_avx2_gemm_us\": %.3f, "
        "\"int8_avxvnni_gemm_us\": %.3f, \"int16_avxvnni_gemm_us\": %.3f}",
        i == 0 ? "" : ", ", r.name.c_str(), r.m, r.k, r.n, r.seed_us, r.scalar_us, r.simd_us,
        r.speedup, r.gemm_us, r.gemm_avx2_us, r.gemm_gflops, r.peak_share, r.max_rel_err, r.int8_us,
        r.int8_speedup, r.int16_us, r.int16_speedup, r.int8_gemm_us, r.int8_gemm_speedup,
        r.int16_gemm_us, r.int16_gemm_speedup, r.int8_avx2_us, r.int8_avx2_gemm_us,
        r.int16_avx2_us, r.int16_avx2_gemm_us, r.int8_avxvnni_gemm_us,
        r.int16_avxvnni_gemm_us);
  }
  const auto quant_block = [&](double conv_geomean, double gemm_geomean, double gate,
                               bool bit_exact, bool block_pass, double avx2_conv,
                               double avx2_gemm) {
    return util::format(
        "{\"conv_speedup_vs_float_geomean\": %.3f, \"gemm_speedup_vs_float_geomean\": %.3f, "
        "\"gate_min_speedup\": %.1f, \"microkernel\": \"%s\", \"bit_exact\": %s, "
        "\"pass\": %s, \"avx2_microkernel\": {\"conv_speedup_vs_float_geomean\": %.3f, "
        "\"gemm_speedup_vs_float_geomean\": %.3f}}",
        conv_geomean, gemm_geomean, gate, microkernel, bit_exact ? "true" : "false",
        block_pass ? "true" : "false", avx2_conv, avx2_gemm);
  };
  json += "], \"int8\": " +
          quant_block(int8_geomean, int8_gemm_geomean, kInt8Gate, int8_bit_exact, int8_pass,
                      int8_avx2_geomean, int8_avx2_gemm_geomean) +
          ", \"int16\": " +
          quant_block(int16_geomean, int16_gemm_geomean, kInt16Gate, int16_bit_exact,
                      int16_pass, int16_avx2_geomean, int16_avx2_gemm_geomean);
  json += util::format(
      ", \"host_peak_gflops\": %.3f, \"test4_linear\": {\"m\": %zu, \"k\": %zu, "
      "\"b1_us\": %.3f, \"b8_us\": %.3f}",
      peak_gflops, linear.m, linear.k, linear.b1_us, linear.b8_us);
  json += ", \"test4_pool\": [";
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const PoolResult& p = pools[i];
    json += util::format(
        "%s{\"name\": \"%s\", \"planes\": %zu, \"in\": %zu, \"float_us\": %.3f, "
        "\"int8_us\": %.3f, \"int16_us\": %.3f}",
        i == 0 ? "" : ", ", p.name.c_str(), p.planes, p.in, p.float_us, p.int8_us, p.int16_us);
  }
  json += util::format(
      "], \"conv_gemm_speedup_geomean\": %.3f, \"net_forward_us\": %.3f, "
      "\"net_infer_scalar_us\": %.3f, \"net_infer_simd_us\": %.3f, "
      "\"net_infer_int8_us\": %.3f, \"net_infer_int16_us\": %.3f, "
      "\"net_batch8_us_per_image\": %.3f, \"net_speedup\": %.3f, "
      "\"batch_fusion_speedup\": %.3f, \"argmax_match\": %s, "
      "\"gate_min_speedup\": %.1f, \"pass\": %s}",
      geomean, forward_us, infer_scalar_us, infer_simd_us, infer_int8_us, infer_int16_us,
      batch_us_per_image, net_speedup, fusion_speedup, argmax_match ? "true" : "false", kGate,
      pass ? "true" : "false");

  std::ofstream out(out_path);
  out << json << "\n";
  out.close();
  std::printf("KERNELS_JSON %s\n", json.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
