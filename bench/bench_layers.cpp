// Layer-primitive microbenchmarks (google-benchmark): host-side throughput of
// the reference library kernels that both the software baseline and the
// functional model of the generated hardware execute. The paper's Table I
// software column is modeled analytically; these benches pin down the real
// arithmetic the model abstracts.
#include <benchmark/benchmark.h>

#include "cnn2fpga.hpp"

using namespace cnn2fpga;

namespace {
nn::Tensor random_tensor(nn::Shape shape, std::uint64_t seed) {
  nn::Tensor t(shape);
  util::Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}
}  // namespace

static void BM_Conv2D(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::size_t maps = static_cast<std::size_t>(state.range(1));
  nn::Conv2D conv(1, maps, 5, 5);
  util::Rng rng(1);
  conv.init_weights(rng);
  const nn::Tensor x = random_tensor(nn::Shape{1, size, size}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(conv.mac_count(x.shape())));
}
BENCHMARK(BM_Conv2D)->Args({16, 6})->Args({32, 12})->Args({32, 36});

static void BM_Conv2DInfer(benchmark::State& state) {
  // Same workload as BM_Conv2D through the scalar engine's conv step: im2col
  // into packed panels, then the per-element GEMM over weights packed once.
  // Its output is bit-identical to BM_Conv2D's (tests/test_kernels.cpp).
  namespace ker = nn::kernels;
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::size_t maps = static_cast<std::size_t>(state.range(1));
  nn::Conv2D conv(1, maps, 5, 5);
  util::Rng rng(1);
  conv.init_weights(rng);
  const nn::Tensor x = random_tensor(nn::Shape{1, size, size}, 2);
  nn::Tensor out{conv.output_shape(x.shape())};
  const std::size_t oh = out.shape().height(), ow = out.shape().width();
  const std::size_t n = oh * ow, k = 25;
  ker::PackedA weights;
  ker::pack_a(conv.weights().data(), maps, k, weights);
  util::aligned_vector<float> bpack(ker::packed_b_size(n, k));
  for (auto _ : state) {
    ker::im2col_pack(x.data(), size * size, 1, size, size, 5, 5, oh, ow, bpack.data(), 0, n);
    ker::zero_pack_tail(bpack.data(), n, k);
    ker::gemm_scalar(weights, bpack.data(), n, conv.bias().data(), /*act=*/-1, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(conv.mac_count(x.shape())));
}
BENCHMARK(BM_Conv2DInfer)->Args({16, 6})->Args({32, 12})->Args({32, 36});

static void BM_MaxPool(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  nn::Pool2D pool = nn::Pool2D::max_pool(2);
  const nn::Tensor x = random_tensor(nn::Shape{6, size, size}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_MaxPool)->Arg(12)->Arg(28)->Arg(64);

static void BM_Linear(benchmark::State& state) {
  const std::size_t in = static_cast<std::size_t>(state.range(0));
  const std::size_t out = static_cast<std::size_t>(state.range(1));
  nn::Linear lin(in, out);
  util::Rng rng(4);
  lin.init_weights(rng);
  const nn::Tensor x = random_tensor(nn::Shape{in}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in * out));
}
BENCHMARK(BM_Linear)->Args({216, 10})->Args({900, 36})->Args({4096, 128});

static void BM_LogSoftMax(benchmark::State& state) {
  nn::LogSoftMax lsm;
  const nn::Tensor x = random_tensor(nn::Shape{static_cast<std::size_t>(state.range(0))}, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsm.forward(x, false));
  }
}
BENCHMARK(BM_LogSoftMax)->Arg(10)->Arg(1000);

static void BM_FullForwardTest1(benchmark::State& state) {
  nn::Network net = nn::make_test1_network();
  util::Rng rng(7);
  net.init_weights(rng);
  const nn::Tensor x = random_tensor(nn::Shape{1, 16, 16}, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullForwardTest1);

static void BM_FullForwardTest4(benchmark::State& state) {
  nn::Network net = nn::make_test4_network();
  util::Rng rng(9);
  net.init_weights(rng);
  const nn::Tensor x = random_tensor(nn::Shape{3, 32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullForwardTest4);

static void BM_FullInferTest1(benchmark::State& state) {
  // BM_FullForwardTest1 through the reentrant ExecutionContext engine: the
  // plan is compiled once, weights are packed once, scratch is reused.
  nn::Network net = nn::make_test1_network();
  util::Rng rng(7);
  net.init_weights(rng);
  nn::ExecutionContext ctx(net);
  const nn::Tensor x = random_tensor(nn::Shape{1, 16, 16}, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer(x, ctx).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullInferTest1);

static void BM_FullInferTest4(benchmark::State& state) {
  nn::Network net = nn::make_test4_network();
  util::Rng rng(9);
  net.init_weights(rng);
  nn::ExecutionContext ctx(net);
  const nn::Tensor x = random_tensor(nn::Shape{3, 32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer(x, ctx).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullInferTest4);

static void BM_FullInferTest4Scalar(benchmark::State& state) {
  // BM_FullInferTest4 with the context pinned to the scalar kernel engine:
  // the pre-SIMD baseline. The ratio of the two is the kernel engine's win on
  // this network; bench_kernels gates it.
  nn::Network net = nn::make_test4_network();
  util::Rng rng(9);
  net.init_weights(rng);
  nn::ExecutionContext ctx(net, nn::kernels::Kind::kScalar, nullptr);
  const nn::Tensor x = random_tensor(nn::Shape{3, 32, 32}, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer(x, ctx).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullInferTest4Scalar);

static void BM_FullInferBatch8Test4(benchmark::State& state) {
  // Fused batch inference: one im2col + GEMM per layer for the whole batch.
  // Items processed counts per-image MACs so images/s compares directly with
  // the single-image benches above.
  nn::Network net = nn::make_test4_network();
  util::Rng rng(9);
  net.init_weights(rng);
  nn::ExecutionContext ctx(net);
  constexpr std::size_t kBatch = 8;
  std::vector<nn::Tensor> images;
  for (std::size_t i = 0; i < kBatch; ++i) {
    images.push_back(random_tensor(nn::Shape{3, 32, 32}, 10 + i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer_batch(images, ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch) *
                          static_cast<std::int64_t>(net.total_macs()));
}
BENCHMARK(BM_FullInferBatch8Test4);

static void BM_HlsEstimate(benchmark::State& state) {
  nn::Network net = nn::make_test4_network();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hls::estimate(net, hls::DirectiveSet::optimized(), hls::zedboard()));
  }
}
BENCHMARK(BM_HlsEstimate);

static void BM_CodegenTest1(benchmark::State& state) {
  core::NetworkDescriptor d;
  d.name = "bench";
  d.input_channels = 1;
  d.input_height = 16;
  d.input_width = 16;
  d.optimize = true;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 6;
  conv.conv.kernel_h = conv.conv.kernel_w = 5;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 10;
  d.layers = {conv, lin};
  nn::Network net = d.build_network();
  util::Rng rng(11);
  net.init_weights(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_cpp(d, net));
  }
}
BENCHMARK(BM_CodegenTest1);
