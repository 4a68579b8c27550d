// Tests for the two serving engines: engine names, dispatch queue gauges,
// cross-backend bit-exactness, and the accelerator's serial-invocation
// contract (one physical IP core) with its virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/backend/accel_backend.hpp"
#include "serve/backend/cpu_backend.hpp"
#include "serve/executor.hpp"
#include "serve/registry.hpp"
#include "util/rng.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::serve;

namespace {

core::NetworkDescriptor small_descriptor(const std::string& name) {
  core::NetworkDescriptor d;
  d.name = name;
  d.board = "zedboard";
  d.optimize = true;
  d.input_channels = 1;
  d.input_height = 8;
  d.input_width = 8;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 2;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 4;
  d.layers = {conv, lin};
  return d;
}

tensor::Tensor test_image(std::uint64_t seed, const nn::Shape& shape) {
  tensor::Tensor image{shape};
  util::Rng rng(seed);
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

std::shared_ptr<DeployedDesign> deploy(DesignRegistry& registry, const std::string& name) {
  return registry.deploy_random(small_descriptor(name), 1).design;
}

}  // namespace

// ------------------------------------------------------------------ backends

TEST(Backends, EngineNamesRoundTripAndRejectGarbage) {
  for (const BackendId id : {BackendId::kCpu, BackendId::kAccelerator}) {
    EXPECT_EQ(parse_backend_name(backend_name(id)), id);
  }
  EXPECT_EQ(parse_backend_name("accel"), BackendId::kAccelerator);
  // The retired completion-cost placer is not an engine.
  EXPECT_EQ(parse_backend_name("cost"), std::nullopt);
  EXPECT_EQ(parse_backend_name("gpu"), std::nullopt);
  EXPECT_EQ(parse_backend_name(""), std::nullopt);
}

TEST(Backends, CapabilitiesDescribeTheEngines) {
  Executor executor(3);
  CpuBackend cpu(executor);
  EXPECT_EQ(cpu.id(), BackendId::kCpu);
  EXPECT_STREQ(cpu.name(), "cpu");
  EXPECT_EQ(cpu.capabilities().concurrency, 3u);

  AcceleratorBackend accel({.sleep_for_model = false});
  EXPECT_EQ(accel.id(), BackendId::kAccelerator);
  EXPECT_STREQ(accel.name(), "accelerator");
  EXPECT_EQ(accel.capabilities().concurrency, 1u);  // one physical IP core
}

TEST(Backends, CpuAndAcceleratorProduceIdenticalLogits) {
  // The generated IP is bit-exact with the reference network (the paper's
  // central claim), so the engine must never change a prediction: both
  // backends return identical logits for identical inputs.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_bitexact");
  Executor executor(2);
  CpuBackend cpu(executor);
  AcceleratorBackend accel({.sleep_for_model = false});

  std::vector<tensor::Tensor> images;
  for (int i = 0; i < 5; ++i) images.push_back(test_image(i, design->net.input_shape()));
  std::vector<const tensor::Tensor*> inputs;
  for (const tensor::Tensor& image : images) inputs.push_back(&image);

  std::vector<tensor::Tensor> via_cpu(images.size());
  std::vector<tensor::Tensor> via_accel(images.size());
  cpu.run_batch(*design, inputs, via_cpu);
  accel.run_batch(*design, inputs, via_accel);
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_EQ(via_cpu[i].size(), via_accel[i].size());
    for (std::size_t j = 0; j < via_cpu[i].size(); ++j) {
      EXPECT_EQ(via_cpu[i].data()[j], via_accel[i].data()[j])
          << "image " << i << " logit " << j;
    }
  }
}

TEST(Backends, AcceleratorVirtualClockAdvancesByTheModel) {
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_clock");
  AcceleratorBackend accel({.sleep_for_model = false});

  std::vector<tensor::Tensor> images;
  for (int i = 0; i < 4; ++i) images.push_back(test_image(i, design->net.input_shape()));
  std::vector<const tensor::Tensor*> inputs;
  for (const tensor::Tensor& image : images) inputs.push_back(&image);
  std::vector<tensor::Tensor> outputs(4);
  accel.run_batch(*design, inputs, outputs);
  EXPECT_EQ(accel.invocations(), 1u);
  std::uint64_t expected =
      static_cast<std::uint64_t>(design->invocation_seconds(4) * 1e6);
  EXPECT_EQ(accel.virtual_clock_us(), expected);

  std::vector<const tensor::Tensor*> one{inputs[0]};
  std::vector<tensor::Tensor> out_one(1);
  accel.run_batch(*design, one, out_one);
  expected += static_cast<std::uint64_t>(design->invocation_seconds(1) * 1e6);
  EXPECT_EQ(accel.invocations(), 2u);
  EXPECT_EQ(accel.virtual_clock_us(), expected);
  EXPECT_EQ(accel.max_observed_concurrency(), 1u);
}

TEST(Backends, AcceleratorSerializesConcurrentDispatches) {
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_serial");
  AcceleratorBackend accel({.sleep_for_model = false});
  const nn::Shape shape = design->net.input_shape();

  // Flood the driver queue; every invocation must run alone on the modeled
  // core even though dispatches arrive faster than they execute.
  constexpr std::size_t kBatches = 16;
  std::vector<tensor::Tensor> images;
  std::vector<tensor::Tensor> outputs(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) images.push_back(test_image(i, shape));
  std::vector<std::promise<void>> done(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    accel.dispatch([&, i] {
      const tensor::Tensor* input = &images[i];
      accel.run_batch(*design, std::span<const tensor::Tensor* const>(&input, 1),
                      std::span<tensor::Tensor>(&outputs[i], 1));
      done[i].set_value();
    });
  }
  for (std::promise<void>& batch : done) batch.get_future().wait();
  EXPECT_EQ(accel.invocations(), kBatches);
  EXPECT_EQ(accel.max_observed_concurrency(), 1u);
  // The inflight gauge drops after the task body (which fulfilled the last
  // promise above) returns to the dispatch wrapper — spin briefly for it.
  for (int spin = 0; spin < 10000 && accel.pending() != 0; ++spin) {
    std::this_thread::yield();
  }
  EXPECT_EQ(accel.pending(), 0u);
}

TEST(Backends, OverlappingInvocationsViolateThePhysicalCoreContract) {
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_overlap");
  // sleep_for_model keeps the first invocation inside run_batch() for the
  // whole modeled duration, and invocations() ticks *before* that sleep: once
  // it reads 1 the core is still busy, so a second call that bypasses
  // dispatch() overlaps deterministically and must throw.
  AcceleratorBackend accel({.sleep_for_model = true});
  const nn::Shape shape = design->net.input_shape();

  std::size_t batch = 16;
  while (design->invocation_seconds(batch) < 0.005 && batch < 4096) batch *= 2;
  ASSERT_GE(design->invocation_seconds(batch), 0.005)
      << "modeled invocation too fast to hold the core busy for the test";

  std::vector<tensor::Tensor> images;
  for (std::size_t i = 0; i < batch; ++i) images.push_back(test_image(i, shape));
  std::vector<const tensor::Tensor*> inputs;
  for (const tensor::Tensor& image : images) inputs.push_back(&image);
  std::vector<tensor::Tensor> outputs(batch);
  std::thread first([&] { accel.run_batch(*design, inputs, outputs); });
  while (accel.invocations() == 0) std::this_thread::yield();

  tensor::Tensor image = test_image(99, shape);
  const tensor::Tensor* input = &image;
  tensor::Tensor out;
  EXPECT_THROW(accel.run_batch(*design, std::span<const tensor::Tensor* const>(&input, 1),
                               std::span<tensor::Tensor>(&out, 1)),
               std::logic_error);
  first.join();
  EXPECT_GE(accel.max_observed_concurrency(), 2u);  // the overlap was observed
  EXPECT_EQ(accel.invocations(), 1u);               // and the violator never completed
}

TEST(Backends, DispatchMaintainsQueueGauges) {
  AcceleratorBackend accel({.sleep_for_model = false});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  accel.dispatch([&, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();
  accel.dispatch([open] { open.wait(); });
  accel.dispatch([open] { open.wait(); });
  EXPECT_EQ(accel.inflight(), 1u);  // one on the driver thread
  EXPECT_EQ(accel.queued(), 2u);    // two behind it
  EXPECT_EQ(accel.pending(), 3u);
  gate.set_value();
  accel.shutdown();  // graceful: drains the two queued tasks before joining
  EXPECT_EQ(accel.pending(), 0u);
  EXPECT_THROW(accel.dispatch([] {}), std::runtime_error);
  EXPECT_EQ(accel.queued(), 0u);  // a refused dispatch is never counted queued
}
