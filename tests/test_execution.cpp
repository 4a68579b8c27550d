// Bit-exactness and reentrancy tests for the ExecutionContext inference path.
//
// The redesign's contract is strict: `Network::infer(input, ctx)` through a
// *scalar-pinned* context must equal the seed
// `Network::forward(input, /*train=*/false)` bit-for-bit — the scalar engine's
// packed GEMM (fused bias/activation) replays the identical IEEE operation
// sequence per output element, it only reorders independent elements. These tests assert exact equality (EXPECT_EQ on floats, no
// tolerance) across every layer kind, in float and fixed-point, single and
// batched, and from many threads hammering one const network. Contexts that
// must be exact are pinned to kernels::Kind::kScalar so the assertions hold
// regardless of the host's SIMD dispatch; the AVX2 engine's tolerance and
// batch-fusion contracts are covered by tests/test_kernels.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/execution.hpp"
#include "nn/fixed_inference.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::nn;

namespace {

/// Architectures covering every layer kind and fusion shape: conv with and
/// without a directly following activation, both pool kinds, linear with and
/// without activation, with and without the trailing LogSoftMax.
Network make_network(int arch, std::uint64_t seed) {
  Network net(arch < 2 ? Shape{1, 16, 16} : (arch == 4 ? Shape{1, 2, 2} : Shape{2, 10, 10}),
              "exec_test");
  switch (arch) {
    case 0:  // the paper's CNN shape: conv+tanh+pool twice, then linear head
      net.add_conv(2, 3, 3);
      net.add_activation(ActKind::kTanh);
      net.add_max_pool(2, 2);
      net.add_conv(3, 3, 3);
      net.add_activation(ActKind::kReLU);
      net.add_mean_pool(2, 2);
      net.add_linear(10);
      net.add_activation(ActKind::kSigmoid);
      net.add_linear(6);
      net.add_logsoftmax();
      break;
    case 1:  // conv with no fusable activation (pool directly after)
      net.add_conv(3, 5, 5);
      net.add_max_pool(3, 2);
      net.add_linear(5);
      net.add_logsoftmax();
      break;
    case 2:  // multi-channel input, rectangular kernel, no LogSoftMax
      net.add_conv(4, 3, 2);
      net.add_activation(ActKind::kTanh);
      net.add_linear(8);
      break;
    case 3:  // back-to-back convs (fused + unfused), activation-only tail
      net.add_conv(3, 3, 3);
      net.add_conv(2, 3, 3);
      net.add_activation(ActKind::kReLU);
      net.add_linear(4);
      net.add_activation(ActKind::kTanh);
      break;
    default:  // pure MLP: no conv at all
      net.add_linear(9);
      net.add_activation(ActKind::kTanh);
      net.add_linear(3);
      net.add_logsoftmax();
      break;
  }
  util::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

constexpr int kArchCount = 5;

/// Context pinned to the scalar engine: the bit-exact reference mode.
ExecutionContext scalar_ctx(const Network& net) {
  return ExecutionContext(net, kernels::Kind::kScalar, nullptr);
}

tensor::Tensor random_input(const Shape& shape, std::uint64_t seed) {
  tensor::Tensor input{shape};
  util::Rng rng(seed);
  input.fill_uniform(rng, -1.0f, 1.0f);
  return input;
}

void expect_bit_identical(const tensor::Tensor& expected, const tensor::Tensor& actual,
                          const std::string& context) {
  ASSERT_EQ(expected.shape(), actual.shape()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Exact float equality on purpose: the contract is bit-for-bit.
    ASSERT_EQ(expected[i], actual[i]) << context << " element " << i;
  }
}

}  // namespace

TEST(ExecutionContext, InferMatchesForwardBitExactAcrossArchitectures) {
  for (int arch = 0; arch < kArchCount; ++arch) {
    Network net = make_network(arch, 11u + static_cast<std::uint64_t>(arch));
    ExecutionContext ctx = scalar_ctx(net);
    for (std::uint64_t i = 0; i < 8; ++i) {
      const tensor::Tensor input = random_input(net.input_shape(), 100 * i + 7);
      const tensor::Tensor expected = net.forward(input, /*train=*/false);
      const tensor::Tensor& actual = net.infer(input, ctx);  // reused context
      expect_bit_identical(expected, actual,
                           "arch " + std::to_string(arch) + " input " + std::to_string(i));
    }
  }
}

TEST(ExecutionContext, PlanFusesActivationsAndCoversAllLayers) {
  const Network net = make_network(0, 3);
  const ExecutionContext ctx(net);
  // conv+tanh, pool, conv+relu, pool, linear+sigmoid, linear, logsoftmax:
  // 10 layers compile into 7 steps, 3 of them with a fused activation.
  ASSERT_EQ(ctx.steps().size(), 7u);
  std::size_t fused = 0;
  for (const auto& step : ctx.steps()) fused += step.fused != nullptr ? 1 : 0;
  EXPECT_EQ(fused, 3u);
  EXPECT_EQ(ctx.steps().front().kind, ExecutionContext::Step::Kind::kConv);
  EXPECT_EQ(ctx.steps().back().kind, ExecutionContext::Step::Kind::kLogSoftMax);
}

namespace {

/// infer_batch through a scalar context equals forward() per image, and
/// through an AVX2 context (where the host has one) equals that context's
/// per-image infer, bit for bit.
void check_infer_batch_matches_per_image() {
  Network net = make_network(0, 21);
  std::vector<tensor::Tensor> images;
  for (std::uint64_t i = 0; i < 6; ++i) {
    images.push_back(random_input(net.input_shape(), 500 + i));
  }
  ExecutionContext ctx = scalar_ctx(net);
  const std::vector<tensor::Tensor> batched = net.infer_batch(images, ctx);
  ASSERT_EQ(batched.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_bit_identical(net.forward(images[i], /*train=*/false), batched[i],
                         "batch element " + std::to_string(i));
  }
  if (!kernels::avx2_available()) return;
  ExecutionContext simd(net, kernels::Kind::kAvx2, nullptr);
  const std::vector<tensor::Tensor> fused = net.infer_batch(images, simd);
  ASSERT_EQ(fused.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_bit_identical(net.infer(images[i], simd), fused[i],
                         "avx2 batch element " + std::to_string(i));
  }
}

/// Forces kernels::gemm onto one float width for a test; a width the CPU
/// (or the compiler) lacks is skipped by name.
class ExecutionContextWidth : public ::testing::TestWithParam<kernels::FloatMicrokernel> {
 protected:
  void SetUp() override {
    if (!kernels::float_microkernel_available(GetParam())) {
      GTEST_SKIP() << "float microkernel " << kernels::float_microkernel_name(GetParam())
                   << " is unavailable on this host";
    }
    force_.emplace(GetParam());
  }

 private:
  std::optional<kernels::ScopedFloatMicrokernel> force_;
};

}  // namespace

TEST(ExecutionContext, InferBatchMatchesPerImageForward) {
  check_infer_batch_matches_per_image();
}

TEST_P(ExecutionContextWidth, InferBatchMatchesPerImageForward) {
  check_infer_batch_matches_per_image();
}

INSTANTIATE_TEST_SUITE_P(
    FloatWidths, ExecutionContextWidth,
    ::testing::Values(kernels::FloatMicrokernel::kAvx2, kernels::FloatMicrokernel::kAvx512),
    [](const ::testing::TestParamInfo<kernels::FloatMicrokernel>& width) {
      return std::string(kernels::float_microkernel_name(width.param));
    });

TEST(ExecutionContext, RejectsContextBuiltForAnotherNetwork) {
  Network a = make_network(0, 1);
  Network b = make_network(0, 2);
  ExecutionContext ctx_b(b);
  EXPECT_THROW((void)a.infer(random_input(a.input_shape(), 3), ctx_b), std::invalid_argument);
  ExecutionContext ctx_a(a);
  EXPECT_THROW((void)a.infer(random_input(Shape{1, 4, 4}, 3), ctx_a), std::invalid_argument);
}

TEST(ExecutionContext, ConstPredictMatchesForwardArgmax) {
  const Network net = make_network(0, 31);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const tensor::Tensor input = random_input(net.input_shape(), 900 + i);
    // predict() is const: it must work on a network the caller cannot mutate.
    EXPECT_EQ(net.predict(input),
              const_cast<Network&>(net).forward(input, /*train=*/false).argmax());
  }
}

TEST(ExecutionContext, EmptyNetworkInferCopiesInput) {
  Network net(Shape{1, 1, 3}, "identity");
  ExecutionContext ctx(net);
  const tensor::Tensor input = random_input(net.input_shape(), 5);
  expect_bit_identical(input, net.infer(input, ctx), "empty network");
}

// ----------------------------------------------------------- fixed-point path

TEST(ExecutionContext, FixedInferenceMatchesFreshContextWrapper) {
  // One call over N images (parameters quantized once) equals N single calls.
  for (int arch = 0; arch < kArchCount; ++arch) {
    const Network net = make_network(arch, 41u + static_cast<std::uint64_t>(arch));
    const FixedPointFormat format{16, 8};
    std::vector<tensor::Tensor> images;
    for (std::uint64_t i = 0; i < 4; ++i) {
      images.push_back(random_input(net.input_shape(), 700 + i));
    }
    std::vector<const tensor::Tensor*> inputs;
    for (const tensor::Tensor& image : images) inputs.push_back(&image);
    const std::vector<FixedForwardResult> batched = forward_fixed(net, inputs, format);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      const FixedForwardResult single = forward_fixed(net, images[i], format);
      EXPECT_EQ(single.predicted, batched[i].predicted);
      expect_bit_identical(single.scores, batched[i].scores,
                           "arch " + std::to_string(arch) + " fixed input " +
                               std::to_string(i));
      EXPECT_EQ(single.output_error, batched[i].output_error);
      EXPECT_EQ(single.reference_predicted, batched[i].reference_predicted);
    }
  }
}

TEST(ExecutionContext, FixedCacheRebuildsWhenFormatChanges) {
  // Each call quantizes at its own format: a call at another format in
  // between leaves a repeat call bit-identical and changes the scores.
  const Network net = make_network(0, 51);
  const tensor::Tensor a = random_input(net.input_shape(), 1);
  const tensor::Tensor b = random_input(net.input_shape(), 2);
  const std::vector<const tensor::Tensor*> inputs = {&a, &b};
  const auto q88 = forward_fixed(net, inputs, FixedPointFormat{16, 8});
  const auto q412 = forward_fixed(net, inputs, FixedPointFormat{16, 12});
  const auto q88_again = forward_fixed(net, inputs, FixedPointFormat{16, 8});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bit_identical(q88[i].scores, q88_again[i].scores, "format switch round trip");
    // Differently-scaled arithmetic virtually never lands on identical
    // scores; equality here would mean the format was not applied.
    bool any_difference = false;
    for (std::size_t k = 0; k < q88[i].scores.size(); ++k) {
      any_difference = any_difference || q88[i].scores[k] != q412[i].scores[k];
    }
    EXPECT_TRUE(any_difference) << "input " << i;
  }
}

// ------------------------------------------------------------- context pool

TEST(ExecutionContextPool, ReusesReleasedContexts) {
  const Network net = make_network(4, 61);
  ExecutionContextPool pool(net);
  for (int i = 0; i < 5; ++i) {
    auto lease = pool.acquire();
    (void)net.infer(random_input(net.input_shape(), static_cast<std::uint64_t>(i)), *lease);
  }
  EXPECT_EQ(pool.created(), 1u);  // sequential use never needs a second context
  {
    auto a = pool.acquire();
    auto b = pool.acquire();  // held concurrently: must materialize a second
    (void)a;
    (void)b;
  }
  EXPECT_EQ(pool.created(), 2u);
  auto again = pool.acquire();
  EXPECT_EQ(pool.created(), 2u);  // both returned to the free list
}

// ------------------------------------------------------- many-thread hammer

TEST(ExecutionContext, ConcurrentInferenceIsBitExact) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kImages = 16;
  constexpr std::size_t kRounds = 6;

  const Network net = make_network(0, 71);
  std::vector<tensor::Tensor> images;
  std::vector<tensor::Tensor> expected;
  {
    // Reference outputs via the seed mutable path, before any concurrency.
    Network& mutable_net = const_cast<Network&>(net);
    for (std::uint64_t i = 0; i < kImages; ++i) {
      images.push_back(random_input(net.input_shape(), 4000 + i));
      expected.push_back(mutable_net.forward(images.back(), /*train=*/false));
    }
  }

  ExecutionContextPool pool(net, kernels::Kind::kScalar);
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t index = (t * kRounds + round) % kImages;
        auto lease = pool.acquire();
        const tensor::Tensor& scores = net.infer(images[index], *lease);
        const tensor::Tensor& want = expected[index];
        if (scores.shape() != want.shape()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t k = 0; k < want.size(); ++k) {
          const float got = scores[k];
          const float ref = want[k];
          if (std::memcmp(&got, &ref, sizeof(float)) != 0) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(pool.created(), kThreads);
}

TEST(ExecutionContext, ConcurrentFixedInferenceIsDeterministic) {
  constexpr std::size_t kThreads = 6;
  const Network net = make_network(1, 81);
  const FixedPointFormat format{16, 8};
  std::vector<tensor::Tensor> images;
  for (std::uint64_t i = 0; i < 3; ++i) {
    images.push_back(random_input(net.input_shape(), 9 + i));
  }
  std::vector<const tensor::Tensor*> inputs;
  for (const tensor::Tensor& image : images) inputs.push_back(&image);
  const std::vector<FixedForwardResult> reference = forward_fixed(net, inputs, format);

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        const std::vector<FixedForwardResult> results =
            forward_fixed(net, inputs, format, /*track_output_error=*/false);
        for (std::size_t i = 0; i < reference.size(); ++i) {
          if (results[i].predicted != reference[i].predicted) mismatches.fetch_add(1);
          for (std::size_t k = 0; k < reference[i].scores.size(); ++k) {
            if (results[i].scores[k] != reference[i].scores[k]) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------------------------------------------------------------- training

TEST(TrainContext, ForwardBackwardDelegatesToTheMutablePath) {
  Network net = make_network(4, 91);
  TrainContext train(net);
  const tensor::Tensor input = random_input(net.input_shape(), 2);
  const tensor::Tensor out = train.forward(input);
  EXPECT_EQ(out.size(), 3u);
  tensor::Tensor grad{out.shape()};
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = 0.1f;
  train.backward(grad);  // must not throw: forward(train=true) cached state

  // After training-path use, const inference still matches the seed forward.
  ExecutionContext ctx = scalar_ctx(net);
  expect_bit_identical(net.forward(input, /*train=*/false), net.infer(input, ctx),
                       "post-backward inference");
}
