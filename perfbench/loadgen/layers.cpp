// Isolated timed calls into each layer's public functions, on the inputs the
// workload generated. These give the per-layer numbers a client cannot see:
// wire decoding, inference and its GEMMs against a measured host peak, and
// the deploy pipeline's code generation and HLS estimation.
#include <immintrin.h>

#include <cstring>
#include <functional>
#include <span>

#include "core/codegen_cpp.hpp"
#include "core/codegen_tcl.hpp"
#include "hls/device.hpp"
#include "hls/estimator.hpp"
#include "json/json.hpp"
#include "loadgen.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/execution.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"
#include "nn/linear.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ker = nn::kernels;

namespace {

/// Keeps a computed value observable so the timed work is not optimized out.
volatile float g_sink = 0.0f;

struct GemmShape {
  bool conv = false;
  std::size_t channels = 0, ih = 0, iw = 0, kh = 0, kw = 0, oh = 0, ow = 0;
  std::size_t m = 0, k = 0, n = 0;  ///< C is m x n, depth k
  int act = -1;  ///< activation the executor fuses into the step, or -1
  const float* weights = nullptr;
  const float* bias = nullptr;
};

/// Batch-1 GEMM steps of a network, in plan order: one per conv or linear
/// layer, with the activation that directly follows it fused, as the
/// executors plan it.
std::vector<GemmShape> gemm_shapes(const nn::Network& net) {
  std::vector<GemmShape> shapes;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const tensor::Shape& in = i == 0 ? net.input_shape() : net.shape_after(i - 1);
    const tensor::Shape& out = net.shape_after(i);
    GemmShape g;
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&net.layer(i))) {
      g.conv = true;
      g.channels = conv->in_channels();
      g.ih = in.height();
      g.iw = in.width();
      g.kh = conv->kernel_h();
      g.kw = conv->kernel_w();
      g.oh = out.height();
      g.ow = out.width();
      g.m = conv->out_channels();
      g.k = g.channels * g.kh * g.kw;
      g.n = g.oh * g.ow;
      g.weights = conv->weights().data();
      g.bias = conv->bias().data();
    } else if (const auto* linear = dynamic_cast<const nn::Linear*>(&net.layer(i))) {
      g.m = linear->out_features();
      g.k = linear->in_features();
      g.n = 1;
      g.weights = linear->weights().data();
      g.bias = linear->bias().data();
    } else {
      continue;
    }
    if (i + 1 < net.layer_count()) {
      if (const auto* act = dynamic_cast<const nn::Activation*>(&net.layer(i + 1))) {
        g.act = static_cast<int>(act->act());
      }
    }
    shapes.push_back(g);
  }
  return shapes;
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> values(n);
  for (float& v : values) v = rng.next_float() * 2.0f - 1.0f;
  return values;
}

using GemmStep = std::function<void()>;

/// Float engine: im2col_pack (or pack_b) into packed panels, then the fused
/// GEMM, exactly the calls the batch executor makes per step. Weights are
/// packed once, outside any clock, as the deployed design's PackCache does.
GemmStep float_gemm_step(const GemmShape& g, util::Rng& rng) {
  struct Buffers {
    ker::PackedA a;
    std::vector<float> input;
    util::aligned_vector<float> bpack;
    std::vector<float> out;
  };
  auto b = std::make_shared<Buffers>();
  ker::pack_a(g.weights, g.m, g.k, b->a);
  b->input = random_floats(g.conv ? g.channels * g.ih * g.iw : g.k, rng);
  b->bpack.resize(ker::packed_b_size(g.n, g.k));
  b->out.resize(g.m * g.n);
  return [g, b] {
    if (g.conv) {
      ker::im2col_pack(b->input.data(), g.ih * g.iw, g.channels, g.ih, g.iw, g.kh, g.kw, g.oh,
                       g.ow, b->bpack.data(), 0, g.n);
      ker::zero_pack_tail(b->bpack.data(), g.n, g.k);
    } else {
      const float* row = b->input.data();
      ker::pack_b(&row, 1, g.k, b->bpack.data());
    }
    ker::gemm(b->a, b->bpack.data(), g.n, g.bias, g.act, b->out.data(), g.n);
    g_sink = b->out[0];
  };
}

/// int8 engine: the quantized executor's per-step pack + GEMM calls. Only a
/// ReLU is fused into the integer GEMM; other activations run as a separate
/// LUT pass, which is not GEMM time.
GemmStep int8_gemm_step(const GemmShape& g, ker::Kind kind, util::Rng& rng) {
  struct Buffers {
    ker::PackedWeightsS8 a;
    std::vector<std::int8_t> input;
    util::aligned_vector<std::uint8_t> bpack;
    std::vector<std::int8_t> out;
  };
  const nn::FixedPointFormat format = nn::serve_precision_format(nn::ServePrecision::kInt8);
  auto b = std::make_shared<Buffers>();
  ker::pack_weights_s8(g.weights, g.bias, g.m, g.k, format, b->a);
  b->input.resize(g.conv ? g.channels * g.ih * g.iw : g.k);
  for (std::int8_t& v : b->input) v = static_cast<std::int8_t>(rng.next_below(256));
  b->bpack.resize(ker::packed_b_size_s8(g.n, g.k));
  b->out.resize(g.m * g.n);
  const int act = g.act == static_cast<int>(nn::ActKind::kReLU) ? g.act : -1;
  return [g, b, kind, format, act] {
    if (g.conv) {
      ker::im2col_pack_s8(b->input.data(), g.ih * g.iw, g.channels, g.ih, g.iw, g.kh, g.kw,
                          g.oh, g.ow, b->bpack.data(), 0, g.n);
    } else {
      const void* row = b->input.data();
      ker::pack_b_s8(&row, 1, g.k, b->bpack.data());
    }
    ker::finish_pack_s8(b->bpack.data(), g.n, g.k);
    ker::gemm_s8(kind, b->a, b->bpack.data(), g.n, format, act, b->out.data(), g.n);
    g_sink = b->out[0];
  };
}

__attribute__((target("avx2,fma"))) double fma_peak_gflops_once() {
  constexpr int kChains = 12;  // enough independent FMAs to cover the latency
  constexpr long kIterations = 400000;
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(static_cast<float>(c) * 1e-3f);
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  const auto start = Clock::now();
  for (long i = 0; i < kIterations; ++i) {
    // Fully unrolled so the chains live in registers, not on the stack.
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  const double seconds = micros_since(start) * 1e-6;
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  g_sink = lanes[0];
  return 2.0 * 8.0 * kChains * static_cast<double>(kIterations) / seconds * 1e-9;
}

/// Single-thread host peak of the kernel engine the server runs: the AVX2
/// FMA throughput when that engine is active, else a scalar multiply-add
/// stream with the same chain count.
double host_peak_gflops() {
  std::vector<double> runs;
  if (ker::active() == ker::Kind::kAvx2) {
    for (int r = 0; r < 7; ++r) runs.push_back(fma_peak_gflops_once());
    return quantile(runs, 0.5);
  }
  for (int r = 0; r < 7; ++r) {
    float acc[12];
    for (int c = 0; c < 12; ++c) acc[c] = static_cast<float>(c);
    constexpr long kIterations = 2000000;
    const auto start = Clock::now();
    for (long i = 0; i < kIterations; ++i) {
#pragma GCC unroll 12
      for (int c = 0; c < 12; ++c) acc[c] = acc[c] * 0.999999f + 1e-7f;
    }
    const double seconds = micros_since(start) * 1e-6;
    g_sink = acc[0] + acc[11];
    runs.push_back(2.0 * 12.0 * static_cast<double>(kIterations) / seconds * 1e-9);
  }
  return quantile(runs, 0.5);
}

}  // namespace

Metrics wire_layer_metrics(const Plan& plan, const std::string& sample_response) {
  std::vector<double> parse_us;
  std::vector<double> decode_us;
  for (std::size_t i = 0; i < plan.predicts.size() && i < 8; ++i) {
    const std::string& body = plan.predicts[i].body;
    parse_us.push_back(time_call_us([&] { g_sink = json::parse(body).is_object(); }));
    const std::string image = json::parse(body).at("image_base64").as_string();
    decode_us.push_back(
        time_call_us([&] { g_sink = static_cast<float>(util::base64_decode(image)->size()); }));
  }
  const json::Value response = json::parse(sample_response);
  Metrics out;
  out["json.parse_us.predict"] = quantile(parse_us, 0.5);
  out["base64.decode_us.image"] = quantile(decode_us, 0.5);
  out["json.dump_us.response"] =
      time_call_us([&] { g_sink = static_cast<float>(response.dump().size()); });
  return out;
}

Metrics nn_layer_metrics(const DesignSpec& spec) {
  const nn::Network net = build_reference(spec);
  const ker::Kind kind = ker::active();
  nn::ExecutionContext ctx(net, kind, nullptr, spec.precision, nullptr);
  util::Rng rng(spec.weight_seed ^ 0x5eedu);
  tensor::Tensor image(net.input_shape());
  image.fill_uniform(rng, -1.0f, 1.0f);
  const tensor::Tensor* inputs[1] = {&image};
  tensor::Tensor outputs[1];
  const double infer_us = time_call_us([&] {
    net.infer_batch(std::span<const tensor::Tensor* const>(inputs, 1),
                    std::span<tensor::Tensor>(outputs, 1), ctx);
    g_sink = outputs[0][0];
  });

  // All of the network's GEMM steps in one timed loop, as one infer runs
  // them back to back, so both figures are medians of the same kind.
  double gemm_us = 0.0;
  const bool quantized = spec.precision == nn::ServePrecision::kInt8;
  if (quantized || kind == ker::Kind::kAvx2) {
    std::vector<GemmStep> steps;
    for (const GemmShape& g : gemm_shapes(net)) {
      steps.push_back(quantized ? int8_gemm_step(g, kind, rng) : float_gemm_step(g, rng));
    }
    gemm_us = time_call_us([&] {
      for (const GemmStep& step : steps) step();
    });
  }
  Metrics out;
  out["nn.infer_us.b1"] = infer_us;
  out["nn.gflops.b1"] = 2.0 * static_cast<double>(net.total_macs()) / (infer_us * 1e3);
  out["nn.non_gemm_us.b1"] = infer_us - gemm_us;
  return out;
}

Metrics kernel_layer_metrics() {
  Metrics out;
  const double peak = host_peak_gflops();
  out["kernels.host_peak_gflops"] = peak;
  double conv_gflops[2] = {0.0, 0.0};
  if (ker::active() == ker::Kind::kAvx2) {
    // The Test-4 network's two conv steps (3->12 at 32x32, 12->36 at 14x14).
    DesignSpec spec;
    spec.descriptor.input_channels = 3;
    spec.descriptor.input_height = spec.descriptor.input_width = 32;
    for (const std::size_t maps : {12u, 36u}) {
      core::LayerSpec conv;
      conv.type = core::LayerSpec::Type::kConv;
      conv.conv.feature_maps_out = maps;
      conv.conv.kernel_h = conv.conv.kernel_w = 5;
      conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
      spec.descriptor.layers.push_back(conv);
    }
    core::LayerSpec linear;
    linear.type = core::LayerSpec::Type::kLinear;
    linear.linear.neurons = 10;
    spec.descriptor.layers.push_back(linear);
    const nn::Network net = build_reference(spec);
    util::Rng rng(7);
    const std::vector<GemmShape> shapes = gemm_shapes(net);
    for (std::size_t c = 0; c < 2; ++c) {
      const GemmShape& g = shapes[c];
      const double us = time_call_us(float_gemm_step(g, rng));
      conv_gflops[c] = 2.0 * static_cast<double>(g.m * g.n * g.k) / (us * 1e3);
    }
  }
  out["kernels.conv1_gflops"] = conv_gflops[0];
  out["kernels.conv2_gflops"] = conv_gflops[1];
  out["kernels.roof_share"] = std::max(conv_gflops[0], conv_gflops[1]) / peak;
  return out;
}

CodegenCost codegen_cost(const DesignSpec& spec) {
  json::Value doc = json::parse(spec.body);
  // The server hands the descriptor parser a float32 spelling after taking
  // the serve-level precision string (ServingRuntime::handle_deploy).
  doc.as_object()["precision"] = "float32";
  const nn::Network net = build_reference(spec);
  const core::NetworkDescriptor& d = spec.descriptor;
  hls::FpgaDevice device = *hls::find_device(d.board);
  if (d.clock_mhz > 0.0) device.clock_mhz = d.clock_mhz;
  const hls::DirectiveSet directives =
      d.optimize ? hls::DirectiveSet::optimized() : hls::DirectiveSet::naive();

  CodegenCost cost;
  cost.parse_validate_us = time_call_us(
      [&] { g_sink = static_cast<float>(core::NetworkDescriptor::from_json(doc).layers.size()); },
      5);
  std::size_t bytes = 0;
  cost.emit_cpp_us = time_call_us(
      [&] {
        bytes = core::generate_cpp(d, net).size();
        g_sink = static_cast<float>(bytes);
      },
      3);
  cost.cpp_bytes = static_cast<double>(bytes);
  cost.emit_tcl_us = time_call_us(
      [&] { g_sink = static_cast<float>(core::generate_tcl_files(d, net).size()); }, 5);
  cost.estimate_us = time_call_us(
      [&] {
        g_sink = static_cast<float>(
            hls::estimate(net, directives, device, d.precision, d.streamed_weights)
                .latency_cycles);
      },
      5);
  return cost;
}

}  // namespace perfbench
