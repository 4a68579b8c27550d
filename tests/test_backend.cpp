// Tests for the two serving engines: engine names, what a runtime reports of
// its engine, the Executor's gauges, cross-engine bit-exactness through the
// Batcher, and the fabric's one physical IP core (one executor thread, no
// second invocation while it is busy, modeled invocation time).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "nn/kernels/kernels_int.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
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

/// A fabric Batcher's config. A partial lane flushes only at its deadline
/// there; an hour keeps the deadline out of every test below, so batches
/// are exactly the full lanes and the lanes shutdown() flushes.
BatcherConfig fabric_config(std::size_t max_batch, bool sleep_for_model) {
  BatcherConfig config;
  config.max_batch = max_batch;
  config.max_wait_us = 3'600'000'000ull;
  config.engine = BackendId::kAccelerator;
  config.accel_sleep_for_model = sleep_for_model;
  return config;
}

std::uint64_t modeled_us(const DeployedDesign& design, std::size_t images) {
  return static_cast<std::uint64_t>(design.invocation_seconds(images) * 1e6);
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
  // A runtime's engine slots are its executor's threads: worker_threads on
  // the CPU, one on the fabric (one physical IP core), and the runtime
  // starts no other. Metrics and readyz report them, and the microkernels
  // the process computes with (hosts of one fleet can differ in register
  // width; a scalar engine computes with neither).
  namespace ker = nn::kernels;
  const bool simd = ker::active() == ker::Kind::kAvx2;
  const std::string want_float =
      simd ? ker::float_microkernel_name(ker::float_microkernel()) : "scalar";
  const std::string want_int = simd ? ker::int_microkernel_name(ker::int_microkernel()) : "scalar";
  for (const BackendId engine : {BackendId::kCpu, BackendId::kAccelerator}) {
    ServingConfig config;
    config.worker_threads = 3;  // no effect on the fabric
    config.batcher.engine = engine;
    config.batcher.accel_sleep_for_model = false;
    ServingRuntime runtime(config);
    const std::int64_t slots = engine == BackendId::kCpu ? 3 : 1;
    EXPECT_EQ(runtime.executor().thread_count(), static_cast<std::size_t>(slots));

    const auto metrics = json::parse(runtime.handle_metrics(web::HttpRequest{}).body);
    EXPECT_EQ(metrics.at("engine").at("name").as_string(), backend_name(engine));
    EXPECT_EQ(metrics.at("engine").at("slots").as_int(), slots);
    EXPECT_EQ(metrics.at("pool").at("worker_threads").as_int(), slots);
    const auto ready = json::parse(runtime.handle_readyz(web::HttpRequest{}).body);
    EXPECT_EQ(ready.at("engine").at("name").as_string(), backend_name(engine));
    EXPECT_EQ(ready.at("engine").at("slots").as_int(), slots);
    for (const json::Value* block : {&metrics.at("engine"), &ready.at("engine")}) {
      EXPECT_EQ(block->at("kernels").at("float").as_string(), want_float);
      EXPECT_EQ(block->at("kernels").at("int").as_string(), want_int);
    }
    runtime.shutdown();
  }
}

TEST(Backends, CpuAndAcceleratorProduceIdenticalLogits) {
  // The generated IP is bit-exact with the reference network (the paper's
  // central claim), so the engine must never change a prediction: both
  // engines return identical logits for identical inputs.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_bitexact");
  Executor pool(2);
  Executor fabric(1);
  Batcher cpu(pool, BatcherConfig{});
  Batcher accel(fabric, fabric_config(/*max_batch=*/5, /*sleep_for_model=*/false));

  std::vector<std::future<Prediction>> via_cpu;
  std::vector<std::future<Prediction>> via_accel;
  for (int i = 0; i < 5; ++i) {
    const tensor::Tensor image = test_image(i, design->net.input_shape());
    via_cpu.push_back(cpu.predict(design, image));
    via_accel.push_back(accel.predict(design, image));
  }
  for (std::size_t i = 0; i < via_cpu.size(); ++i) {
    const Prediction on_cpu = via_cpu[i].get();
    const Prediction on_accel = via_accel[i].get();
    EXPECT_EQ(on_cpu.backend, BackendId::kCpu);
    EXPECT_EQ(on_accel.backend, BackendId::kAccelerator);
    EXPECT_EQ(on_accel.batch_size, 5u);  // one full lane
    EXPECT_EQ(on_cpu.predicted, on_accel.predicted);
    ASSERT_EQ(on_cpu.logits.size(), on_accel.logits.size());
    for (std::size_t j = 0; j < on_cpu.logits.size(); ++j) {
      EXPECT_EQ(on_cpu.logits[j], on_accel.logits[j]) << "image " << i << " logit " << j;
    }
  }
}

TEST(Backends, AcceleratorVirtualClockAdvancesByTheModel) {
  // The fabric's modeled clock is ServeMetrics::accel_us: every batch adds
  // its invocation_seconds, floored to whole microseconds.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_clock");
  const nn::Shape shape = design->net.input_shape();
  ServeMetrics metrics;
  Executor fabric(1);
  Batcher batcher(fabric, fabric_config(/*max_batch=*/4, /*sleep_for_model=*/false), &metrics);

  std::vector<std::future<Prediction>> full;
  for (int i = 0; i < 4; ++i) full.push_back(batcher.predict(design, test_image(i, shape)));
  for (auto& future : full) EXPECT_EQ(future.get().batch_size, 4u);
  EXPECT_EQ(metrics.accel_us.sum(), modeled_us(*design, 4));

  // A partial lane runs when shutdown() drains it.
  auto single = batcher.predict(design, test_image(9, shape));
  batcher.shutdown();
  EXPECT_EQ(single.get().batch_size, 1u);

  EXPECT_EQ(metrics.accel_us.count(), 2u);
  EXPECT_EQ(metrics.accel_us.sum(), modeled_us(*design, 4) + modeled_us(*design, 1));
  const auto& accel = metrics.backend[backend_index(BackendId::kAccelerator)];
  EXPECT_EQ(accel.batches.value(), 2u);
  EXPECT_EQ(accel.images.value(), 5u);
  EXPECT_EQ(metrics.backend[backend_index(BackendId::kCpu)].batches.value(), 0u);
}

TEST(Backends, AcceleratorSerializesConcurrentDispatches) {
  // With the model on, a fabric batch holds the one slot for its modeled
  // invocation, inside its exec_us. Sixteen concurrent predicts at
  // max_batch 1, whether run inline by their caller or by the executor's
  // thread, then take at least the modeled time of all sixteen: no two
  // invocations overlap.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_serial");
  const nn::Shape shape = design->net.input_shape();
  ServeMetrics metrics;
  Executor fabric(1);
  Batcher batcher(fabric, fabric_config(/*max_batch=*/1, /*sleep_for_model=*/true), &metrics);

  constexpr std::size_t kPredicts = 16;
  std::vector<tensor::Tensor> images;
  for (std::size_t i = 0; i < kPredicts; ++i) images.push_back(test_image(i, shape));
  std::vector<Prediction> predictions(kPredicts);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kPredicts; ++i) {
    clients.emplace_back([&, i] { predictions[i] = batcher.predict_wait(design, images[i]); });
  }
  for (std::thread& client : clients) client.join();
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  for (const Prediction& prediction : predictions) {
    EXPECT_EQ(prediction.batch_size, 1u);
    EXPECT_GE(prediction.exec_us, modeled_us(*design, 1));
  }
  EXPECT_EQ(metrics.accel_us.count(), kPredicts);
  EXPECT_EQ(metrics.accel_us.sum(), kPredicts * modeled_us(*design, 1));
  EXPECT_GE(static_cast<std::uint64_t>(wall_us), metrics.accel_us.sum());
  EXPECT_EQ(metrics.backend[backend_index(BackendId::kAccelerator)].batches.value(), kPredicts);
}

TEST(Backends, FabricHoldTracksTheModel) {
  // A fabric batch holds the core until its modeled invocation has passed
  // since it started computing: never less, and not the model plus the
  // compute plus a sleep's overshoot (which doubled a small design's time).
  // Where computing alone outlasts the model (a sanitizer build), the hold
  // adds nothing to it, so the bound is the longer of the two: interleaved
  // predicts through a fabric batcher without the hold time the compute.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_hold");
  Executor fabric(1);
  Executor bare(1);
  Batcher held(fabric, fabric_config(/*max_batch=*/1, /*sleep_for_model=*/true));
  Batcher computed(bare, fabric_config(/*max_batch=*/1, /*sleep_for_model=*/false));
  const std::uint64_t model_us = modeled_us(*design, 1);

  std::vector<std::uint64_t> hold_us;
  std::vector<std::uint64_t> compute_us;
  for (int i = 0; i < 50; ++i) {
    const tensor::Tensor image = test_image(i, design->net.input_shape());
    const Prediction prediction = held.predict_wait(design, image);
    EXPECT_GE(prediction.exec_us, model_us);
    hold_us.push_back(prediction.exec_us);
    compute_us.push_back(computed.predict_wait(design, image).exec_us);
  }
  const auto median = [](std::vector<std::uint64_t> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const std::uint64_t bound_us = std::max(model_us, median(compute_us));
  EXPECT_LE(static_cast<double>(median(hold_us)), 1.25 * static_cast<double>(bound_us))
      << "modeled " << model_us << " us, computing alone " << median(compute_us) << " us";
}

TEST(Backends, OverlappingInvocationsViolateThePhysicalCoreContract) {
  // While the one IP core is busy, no second invocation starts: a caller
  // cannot claim the core, and a predict_wait() whose batch flushes at once
  // queues behind the busy core instead of computing on its own thread. A
  // parked task stands in for the in-flight invocation, so the core stays
  // busy until the gate opens.
  DesignRegistry registry(4);
  const auto design = deploy(registry, "bx_overlap");
  ServeMetrics metrics;
  Executor fabric(1);
  Batcher batcher(fabric, fabric_config(/*max_batch=*/1, /*sleep_for_model=*/true), &metrics);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  fabric.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();
  EXPECT_FALSE(fabric.try_claim());  // not ASSERT: returning early would leave the task parked

  std::atomic<bool> answered{false};
  Prediction prediction;
  std::thread client([&] {
    prediction = batcher.predict_wait(design, test_image(7, design->net.input_shape()));
    answered = true;
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fabric.queued() == 0 && !answered && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(answered);  // it did not run beside the busy core
  EXPECT_EQ(fabric.queued(), 1u);
  EXPECT_EQ(fabric.running(), 1u);

  gate.set_value();
  client.join();
  EXPECT_EQ(prediction.batch_size, 1u);
  EXPECT_EQ(prediction.backend, BackendId::kAccelerator);
  EXPECT_GE(prediction.exec_us, modeled_us(*design, 1));  // it held the core itself
  const auto& accel = metrics.backend[backend_index(BackendId::kAccelerator)];
  EXPECT_EQ(accel.batches.value(), 1u);
  EXPECT_EQ(accel.inline_batches.value(), 0u);
}

TEST(Backends, FabricBatcherRefusesAWiderExecutor) {
  // The fabric is one physical IP core: a second executor thread would let
  // two modeled invocations overlap.
  Executor two(2);
  EXPECT_THROW(Batcher(two, fabric_config(8, false)), std::invalid_argument);
  EXPECT_NO_THROW(Batcher(two, BatcherConfig{}));  // the CPU engine takes any width
  Executor one(1);
  EXPECT_NO_THROW(Batcher(one, fabric_config(8, false)));
}

TEST(Backends, DispatchMaintainsQueueGauges) {
  Executor executor(2);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  executor.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();
  // A caller's claimed slot counts as running, like the task on the worker.
  Executor::Slot slot = executor.try_claim();
  EXPECT_TRUE(slot);  // not ASSERT: returning early would leave the task parked
  executor.submit([open] { open.wait(); });
  executor.submit([open] { open.wait(); });
  EXPECT_EQ(executor.running(), 2u);  // one task and one claimed slot
  EXPECT_EQ(executor.queued(), 2u);   // two behind them
  EXPECT_EQ(executor.backlog(), 4u);
  EXPECT_FALSE(executor.try_claim());  // no slot while work is queued

  slot = Executor::Slot{};  // the freed slot starts a queued task
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (executor.queued() != 1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(executor.queued(), 1u);
  EXPECT_EQ(executor.running(), 2u);

  gate.set_value();
  executor.shutdown();  // graceful: drains the queued task before joining
  EXPECT_EQ(executor.backlog(), 0u);
  EXPECT_THROW(executor.submit([] {}), std::runtime_error);
  EXPECT_EQ(executor.queued(), 0u);  // a refused submit is never counted
}
