// Tests for the inference-serving runtime: registry LRU + hit/miss
// accounting, micro-batching flush behavior, predicts computed on the
// connection's thread, deterministic predictions under concurrent clients,
// metrics consistency, and the hardened HTTP transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/framework.hpp"
#include "json/json.hpp"
#include "nn/fixed_inference.hpp"
#include "serve/deploy_request.hpp"
#include "serve/server.hpp"
#include "util/base64.hpp"
#include "util/strings.hpp"
#include "web/api.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::serve;
namespace json = cnn2fpga::json;

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

std::string deploy_body(const std::string& name, int seed = 7) {
  return util::format(
      R"({"name": "%s", "board": "zedboard", "optimize": true, "seed": %d,
          "input": {"channels": 1, "height": 8, "width": 8},
          "layers": [
            {"type": "conv", "feature_maps_out": 2, "kernel": 3,
             "pool": {"type": "max", "kernel": 2, "step": 2}},
            {"type": "linear", "neurons": 4}
          ]})",
      name.c_str(), seed);
}

/// Occupy every worker of `executor` until the returned promise is fulfilled.
/// With all workers parked, submitted batches queue up instead of executing,
/// which lets tests control exactly when execution happens (the replacement
/// for grabbing the old per-design execution lock, which no longer exists).
std::shared_ptr<std::promise<void>> park_workers(Executor& executor) {
  auto gate = std::make_shared<std::promise<void>>();
  std::shared_future<void> open = gate->get_future().share();
  for (std::size_t i = 0; i < executor.thread_count(); ++i) {
    executor.submit([open] { open.wait(); });
  }
  return gate;
}

}  // namespace

// ------------------------------------------------------------------ registry

TEST(Registry, DeployMissThenHit) {
  DesignRegistry registry(4);
  const auto first = registry.deploy_random(small_descriptor("net_a"), 1);
  EXPECT_FALSE(first.cache_hit);
  ASSERT_NE(first.design, nullptr);
  EXPECT_EQ(first.design->id.size(), 16u);

  const auto second = registry.deploy_random(small_descriptor("net_a"), 1);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.design.get(), first.design.get());  // same warm instance

  // Different seed => different weights => different content hash.
  const auto third = registry.deploy_random(small_descriptor("net_a"), 2);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_NE(third.design->id, first.design->id);

  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

TEST(Registry, ExplicitWeightsContentAddressing) {
  DesignRegistry registry(4);
  const core::NetworkDescriptor descriptor = small_descriptor("net_w");
  nn::Network net = descriptor.build_network();
  util::Rng rng(5);
  net.init_weights(rng);
  const auto blob = nn::serialize_weights(net);

  const auto first = registry.deploy(descriptor, blob);
  EXPECT_FALSE(first.cache_hit);
  // Seed 5 expands to the identical blob: content-addressing collapses the
  // random-weights deploy onto the explicit-weights one.
  const auto second = registry.deploy_random(descriptor, 5);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.design.get(), first.design.get());
}

TEST(Registry, LruEvictionDropsLeastRecentlyUsed) {
  DesignRegistry registry(2);
  const auto a = registry.deploy_random(small_descriptor("net_a"), 1);
  const auto b = registry.deploy_random(small_descriptor("net_b"), 1);
  EXPECT_EQ(registry.size(), 2u);

  // Touch A so B becomes the LRU victim.
  EXPECT_TRUE(registry.deploy_random(small_descriptor("net_a"), 1).cache_hit);
  const auto c = registry.deploy_random(small_descriptor("net_c"), 1);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(registry.find(a.design->id), nullptr);
  EXPECT_EQ(registry.find(b.design->id), nullptr);  // evicted
  EXPECT_NE(registry.find(c.design->id), nullptr);
  EXPECT_EQ(registry.stats().evictions, 1u);

  // Redeploying the evicted design is a miss again (it was regenerated).
  EXPECT_FALSE(registry.deploy_random(small_descriptor("net_b"), 1).cache_hit);
}

TEST(Registry, ListIsMostRecentlyUsedFirst) {
  DesignRegistry registry(4);
  registry.deploy_random(small_descriptor("net_a"), 1);
  const auto b = registry.deploy_random(small_descriptor("net_b"), 1);
  registry.deploy_random(small_descriptor("net_a"), 1);  // touch A
  const auto designs = registry.list();
  ASSERT_EQ(designs.size(), 2u);
  EXPECT_EQ(designs[0]->descriptor().name, "net_a");
  EXPECT_EQ(designs[1]->descriptor().name, "net_b");
  EXPECT_EQ(designs[1].get(), b.design.get());
}

// ------------------------------------------------------------------- batcher

TEST(Batcher, FlushesImmediatelyWhenDesignIdle) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  // Huge batch and deadline: only the idle-design trigger can flush.
  Batcher batcher(executor, {/*max_batch=*/64, /*max_wait_us=*/60'000'000}, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  auto future = batcher.predict(design, test_image(0, design->net.input_shape()));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(future.get().batch_size, 1u);  // no batching latency when unloaded
  batcher.shutdown();
}

TEST(Batcher, FlushesWhenMaxBatchReached) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  // Deadline far away and a single inference slot: only idle-flush and the
  // max_batch trigger can flush.
  Batcher batcher(executor,
                  {/*max_batch=*/4, /*max_wait_us=*/60'000'000, /*max_inflight=*/1}, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  // Park the workers: the first request flushes immediately (free slot) and
  // its batch queues; the next 4 coalesce until max_batch.
  auto gate = park_workers(executor);
  auto first = batcher.predict(design, test_image(0, design->net.input_shape()));
  std::vector<std::future<Prediction>> coalesced;
  for (int i = 1; i <= 4; ++i) {
    coalesced.push_back(batcher.predict(design, test_image(i, design->net.input_shape())));
  }
  EXPECT_EQ(batcher.pending(), 0u);  // 4th request hit max_batch and flushed
  gate->set_value();

  ASSERT_EQ(first.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(first.get().batch_size, 1u);
  for (auto& future : coalesced) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(future.get().batch_size, 4u);
  }
  EXPECT_EQ(metrics.batches.value(), 2u);
  EXPECT_EQ(metrics.predictions.value(), 5u);
  batcher.shutdown();
}

TEST(Batcher, ModeledAcceleratorTimeAmortizesAcrossBatch) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  Batcher batcher(executor,
                  {/*max_batch=*/4, /*max_wait_us=*/60'000'000, /*max_inflight=*/1}, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  // A lone image pays a blocking DMA round trip; a coalesced batch of 4 is one
  // scatter-gather invocation whose cost splits across the batch.
  auto gate = park_workers(executor);
  auto first = batcher.predict(design, test_image(0, design->net.input_shape()));
  std::vector<std::future<Prediction>> coalesced;
  for (int i = 1; i <= 4; ++i) {
    coalesced.push_back(batcher.predict(design, test_image(i, design->net.input_shape())));
  }
  gate->set_value();

  const auto single_us = static_cast<std::uint64_t>(design->invocation_seconds(1) * 1e6);
  const auto share_us =
      static_cast<std::uint64_t>(design->invocation_seconds(4) * 1e6 / 4.0);
  ASSERT_EQ(first.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(first.get().accel_us, single_us);
  for (auto& future : coalesced) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(future.get().accel_us, share_us);
  }
  EXPECT_LT(share_us, single_us);  // batching must win on the modeled hardware
  EXPECT_EQ(design->invocation_seconds(0), 0.0);
  batcher.shutdown();
}

TEST(Batcher, FlushesPartialBatchOnDeadline) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  Batcher batcher(executor, {/*max_batch=*/64, /*max_wait_us=*/2000, /*max_inflight=*/1},
                  &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  // Park the workers and fill the design's one slot so the two coalescing
  // requests can only leave the lane via the 2 ms deadline (they never reach
  // max_batch = 64).
  auto gate = park_workers(executor);
  auto first = batcher.predict(design, test_image(0, design->net.input_shape()));
  auto second = batcher.predict(design, test_image(1, design->net.input_shape()));
  auto third = batcher.predict(design, test_image(2, design->net.input_shape()));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (batcher.pending() != 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(batcher.pending(), 0u);  // deadline thread flushed the partial lane
  gate->set_value();

  ASSERT_EQ(first.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(first.get().batch_size, 1u);
  for (auto* future : {&second, &third}) {
    ASSERT_EQ(future->wait_for(std::chrono::seconds(30)), std::future_status::ready);
    const Prediction prediction = future->get();
    EXPECT_EQ(prediction.batch_size, 2u);
    EXPECT_LT(prediction.predicted, 4u);
  }
  EXPECT_EQ(metrics.batches.value(), 2u);
  batcher.shutdown();
}

TEST(Batcher, ShutdownDrainsPendingRequests) {
  DesignRegistry registry(4);
  Executor executor(2);
  Batcher batcher(executor, {/*max_batch=*/64, /*max_wait_us=*/60'000'000});
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  auto future = batcher.predict(design, test_image(0, design->net.input_shape()));
  batcher.shutdown();  // must flush the half-full lane, not abandon it
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().batch_size, 1u);
  EXPECT_THROW(batcher.predict(design, test_image(0, design->net.input_shape())),
               std::runtime_error);
}

TEST(Batcher, RejectsWrongInputShape) {
  DesignRegistry registry(4);
  Executor executor(1);
  Batcher batcher(executor, {4, 1000});
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;
  EXPECT_THROW(batcher.predict(design, tensor::Tensor{nn::Shape{1, 4, 4}}),
               std::invalid_argument);
}

TEST(Batcher, DispatchesParallelBatchesForOneDesign) {
  // With the per-design execution lock gone, one design may have as many
  // batches in flight as the executor has workers. Park both workers: two
  // back-to-back requests must BOTH dispatch immediately (two in-flight
  // batches of one), instead of the second coalescing behind the first.
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  Batcher batcher(executor, {/*max_batch=*/64, /*max_wait_us=*/60'000'000}, &metrics);
  EXPECT_EQ(batcher.inflight_limit(), 2u);
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;

  auto gate = park_workers(executor);
  auto first = batcher.predict(design, test_image(0, design->net.input_shape()));
  auto second = batcher.predict(design, test_image(1, design->net.input_shape()));
  EXPECT_EQ(batcher.pending(), 0u);  // both flushed despite neither completing
  // A third request finds both slots occupied and coalesces.
  auto third = batcher.predict(design, test_image(2, design->net.input_shape()));
  EXPECT_EQ(batcher.pending(), 1u);
  gate->set_value();

  for (auto* future : {&first, &second, &third}) {
    ASSERT_EQ(future->wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(future->get().batch_size, 1u);
  }
  EXPECT_EQ(metrics.batches.value(), 3u);
  batcher.shutdown();
}

TEST(Batcher, ContextPoolGrowsOnlyToPeakParallelism) {
  // Sequential traffic through one design must keep reusing a single leased
  // context rather than materializing one per request.
  DesignRegistry registry(4);
  Executor executor(2);
  Batcher batcher(executor, {/*max_batch=*/8, /*max_wait_us=*/1000});
  const auto design = registry.deploy_random(small_descriptor("net_a"), 1).design;
  for (int i = 0; i < 6; ++i) {
    batcher.predict(design, test_image(i, design->net.input_shape())).get();
  }
  EXPECT_LE(design->contexts.created(), 2u);
  batcher.shutdown();
}

// ------------------------------------------------------- bounded admission

TEST(Batcher, ShedsAtQueueDepthCapAndRecovers) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  BatcherConfig config;
  config.max_batch = 64;
  config.max_wait_us = 60'000'000;
  config.max_inflight_per_design = 1;
  config.max_queue_depth = 3;
  Batcher batcher(executor, config, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_shed"), 1).design;

  // Parked workers: nothing executes, so every admitted request stays in the
  // waiting set and the cap is reached deterministically.
  auto gate = park_workers(executor);
  std::vector<std::future<Prediction>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(batcher.predict(design, test_image(i, design->net.input_shape())));
  }
  EXPECT_EQ(batcher.waiting(), 3u);
  EXPECT_THROW(batcher.predict(design, test_image(9, design->net.input_shape())),
               OverloadedError);
  EXPECT_EQ(metrics.shed.value(), 1u);
  EXPECT_EQ(metrics.admitted.value(), 3u);
  EXPECT_LE(metrics.queue_depth.peak(), 3u);

  // Shedding rejects the overflow request only; everything admitted executes
  // and the queue drains back to accepting traffic.
  gate->set_value();
  for (auto& future : admitted) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_NO_THROW(future.get());
  }
  auto after = batcher.predict(design, test_image(10, design->net.input_shape()));
  ASSERT_EQ(after.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_NO_THROW(after.get());
  batcher.shutdown();
}

TEST(Batcher, PerDesignCapShedsOnlyTheHotDesign) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  BatcherConfig config;
  config.max_batch = 64;
  config.max_wait_us = 60'000'000;
  config.max_inflight_per_design = 1;
  config.max_queue_depth_per_design = 1;
  Batcher batcher(executor, config, &metrics);
  const auto hot = registry.deploy_random(small_descriptor("net_hot"), 1).design;
  const auto cold = registry.deploy_random(small_descriptor("net_cold"), 2).design;

  auto gate = park_workers(executor);
  auto admitted = batcher.predict(hot, test_image(0, hot->net.input_shape()));
  EXPECT_THROW(batcher.predict(hot, test_image(1, hot->net.input_shape())),
               OverloadedError);
  // The cold design has its own budget and is unaffected.
  auto other = batcher.predict(cold, test_image(2, cold->net.input_shape()));
  gate->set_value();
  EXPECT_NO_THROW(admitted.get());
  EXPECT_NO_THROW(other.get());
  batcher.shutdown();
}

// ----------------------------------------------------- deadline propagation

TEST(Batcher, RejectsAlreadyExpiredDeadlineAtEnqueue) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(1);
  Batcher batcher(executor, {/*max_batch=*/8, /*max_wait_us=*/1000}, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_dead"), 1).design;
  EXPECT_THROW(batcher.predict(design, test_image(0, design->net.input_shape()),
                               Batcher::Clock::now() - std::chrono::milliseconds(1)),
               DeadlineExceededError);
  EXPECT_EQ(metrics.expired.value(), 1u);
  batcher.shutdown();
}

TEST(Batcher, DropsRequestsThatExpireBeforeExecution) {
  ServeMetrics metrics;
  DesignRegistry registry(4, &metrics);
  Executor executor(2);
  Batcher batcher(executor, {/*max_batch=*/64, /*max_wait_us=*/60'000'000}, &metrics);
  const auto design = registry.deploy_random(small_descriptor("net_exp"), 1).design;

  // The request flushes immediately (idle design) but the workers are parked,
  // so its 20 ms budget expires in the executor queue; the dispatch-time
  // re-check must fail it without running inference.
  auto gate = park_workers(executor);
  auto doomed = batcher.predict(design, test_image(0, design->net.input_shape()),
                                Batcher::Clock::now() + std::chrono::milliseconds(20));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate->set_value();
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW(doomed.get(), DeadlineExceededError);
  EXPECT_EQ(metrics.expired.value(), 1u);
  EXPECT_EQ(design->served.load(), 0u);
  // An all-expired batch is no verdict on design health.
  EXPECT_EQ(design->breaker.state(), BreakerState::kClosed);
  batcher.shutdown();
}

// ---------------------------------------------------------- circuit breaker

TEST(Breaker, OpensAfterConsecutiveFailuresAndProbesClosed) {
  Breaker breaker({/*failure_threshold=*/2, /*cooldown_ms=*/50});
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());

  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // below threshold
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow());
  EXPECT_GT(breaker.retry_after_ms(), 0u);
  EXPECT_LE(breaker.retry_after_ms(), 50u);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(breaker.allow());  // cooldown elapsed: this request is the probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // one probe at a time
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_TRUE(breaker.allow());
}

TEST(Breaker, FailedProbeReopensAbandonedProbeFreesSlot) {
  Breaker breaker({/*failure_threshold=*/1, /*cooldown_ms=*/30});
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // probe failed: quarantine again
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow());  // cooldown restarted

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow());
  breaker.record_abandoned();  // probe batch fully expired: no verdict
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());  // slot freed for the next probe
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(Breaker, StragglerSuccessWhileOpenDoesNotClose) {
  Breaker breaker({/*failure_threshold=*/1, /*cooldown_ms=*/10'000});
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // A batch admitted before the trip completes fine: recovery must still go
  // through a half-open probe, not a lucky straggler.
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
}

// ------------------------------------------- concurrent client determinism

TEST(Serving, ConcurrentPredictionsMatchSequentialInference) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 12;

  ServingConfig config;
  config.worker_threads = 4;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 500;
  ServingRuntime runtime(config);

  const core::NetworkDescriptor descriptor = small_descriptor("net_det");
  const auto design = runtime.registry().deploy_random(descriptor, 3).design;

  // Reference: the same weights run sequentially through a private network on
  // the same kernel engine serving dispatches to. Exact equality below then
  // asserts the engine's contract that batched serving execution is
  // bit-identical to sequential per-image inference.
  nn::Network reference = descriptor.build_network();
  nn::deserialize_weights(reference, seeded_weights(descriptor, 3));
  nn::ExecutionContext ref_ctx(reference);
  std::vector<tensor::Tensor> images;
  std::vector<std::size_t> expected_class;
  std::vector<tensor::Tensor> expected_scores;
  for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
    images.push_back(test_image(i, reference.input_shape()));
    tensor::Tensor scores = reference.infer(images.back(), ref_ctx);
    expected_class.push_back(scores.argmax());
    expected_scores.push_back(std::move(scores));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t index = c * kPerClient + i;
        const Prediction prediction =
            runtime.batcher().predict(design, images[index]).get();
        if (prediction.predicted != expected_class[index]) mismatches.fetch_add(1);
        const auto& scores = expected_scores[index];
        for (std::size_t k = 0; k < prediction.logits.size(); ++k) {
          if (prediction.logits[k] != scores[k]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Metrics must account for exactly the traffic sent.
  const ServeMetrics& metrics = runtime.metrics();
  EXPECT_EQ(metrics.predictions.value(), kClients * kPerClient);
  EXPECT_EQ(metrics.predict_errors.value(), 0u);
  EXPECT_GE(metrics.batches.value(), (kClients * kPerClient + 7) / 8);
  EXPECT_EQ(metrics.batch_size.sum(), kClients * kPerClient);
  EXPECT_EQ(metrics.queue_us.count(), kClients * kPerClient);
  EXPECT_EQ(design->served.load(), kClients * kPerClient);
  runtime.shutdown();
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, HistogramPercentilesAndCounters) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.max(), 100u);
  // Log2 buckets: percentiles are upper bounds of the containing bucket.
  EXPECT_LE(h.percentile(0.5), 63u);
  EXPECT_GE(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 100u);  // clamped to the observed max
  const auto snapshot = h.to_json();
  EXPECT_EQ(snapshot.at("count").as_int(), 100);
  EXPECT_EQ(snapshot.at("max").as_int(), 100);
}

TEST(Metrics, ServeMetricsJsonShape) {
  ServeMetrics metrics;
  metrics.deploys.add(4);
  metrics.deploy_cache_hits.add(3);
  metrics.predictions.add(10);
  metrics.batches.add(2);
  metrics.batch_size.record(5);
  metrics.batch_size.record(5);
  const auto doc = json::parse(metrics.to_json_text());
  EXPECT_EQ(doc.at("deploy").at("total").as_int(), 4);
  EXPECT_EQ(doc.at("deploy").at("cache_hits").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("deploy").at("cache_hit_rate").as_double(), 0.75);
  EXPECT_EQ(doc.at("predict").at("total").as_int(), 10);
  EXPECT_EQ(doc.at("predict").at("batch_size").at("count").as_int(), 2);
}

// ------------------------------------------------------- HTTP API handlers

TEST(ServeApi, DeployPredictRoundTripMatchesDirectInference) {
  ServingRuntime runtime;

  web::HttpRequest deploy;
  deploy.body = deploy_body("api_serve");
  const web::HttpResponse deployed = runtime.handle_deploy(deploy);
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  const auto deploy_doc = json::parse(deployed.body);
  const std::string design_id = deploy_doc.at("design_id").as_string();
  EXPECT_FALSE(deploy_doc.at("cache_hit").as_bool());
  EXPECT_TRUE(deploy_doc.at("fits").as_bool());

  // Second deploy of the same body: cache hit, same id.
  const auto redeploy_doc = json::parse(runtime.handle_deploy(deploy).body);
  EXPECT_TRUE(redeploy_doc.at("cache_hit").as_bool());
  EXPECT_EQ(redeploy_doc.at("design_id").as_string(), design_id);

  // Direct reference inference with the deployed weights.
  const auto design = runtime.registry().find(design_id);
  ASSERT_NE(design, nullptr);
  nn::Network reference = design->descriptor().build_network();
  nn::deserialize_weights(reference, seeded_weights(design->descriptor(), 7));
  const tensor::Tensor image = test_image(42, reference.input_shape());
  nn::ExecutionContext ref_ctx(reference);
  const tensor::Tensor expected = reference.infer(image, ref_ctx);

  // Served prediction via the JSON API (base64 float32 CHW payload).
  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  json::Object predict_body;
  predict_body["design_id"] = design_id;
  predict_body["image_base64"] = util::base64_encode(raw);
  web::HttpRequest predict;
  predict.body = json::Value(std::move(predict_body)).dump();
  const web::HttpResponse served = runtime.handle_predict(predict);
  ASSERT_EQ(served.status, 200) << served.body;
  const auto result = json::parse(served.body);
  EXPECT_EQ(static_cast<std::size_t>(result.at("predicted").as_int()), expected.argmax());
  const auto& logits = result.at("logits").as_array();
  ASSERT_EQ(logits.size(), expected.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(logits[i].as_double()), expected[i]);
  }
  EXPECT_GE(result.at("batch_size").as_int(), 1);

  // Metrics reflect the traffic.
  const auto metrics = json::parse(runtime.handle_metrics(web::HttpRequest{}).body);
  EXPECT_EQ(metrics.at("deploy").at("total").as_int(), 2);
  EXPECT_EQ(metrics.at("deploy").at("cache_hits").as_int(), 1);
  EXPECT_EQ(metrics.at("predict").at("total").as_int(), 1);

  // Designs listing includes the deployed design.
  const auto designs = json::parse(runtime.handle_designs(web::HttpRequest{}).body);
  ASSERT_EQ(designs.at("designs").as_array().size(), 1u);
  EXPECT_EQ(designs.at("designs").as_array()[0].at("design_id").as_string(), design_id);
  EXPECT_EQ(designs.at("designs").as_array()[0].at("served").as_int(), 1);
}

std::string error_code(const web::HttpResponse& response) {
  return json::parse(response.body).at("error").at("code").as_string();
}

TEST(ServeApi, PredictErrorsUseTheEnvelope) {
  ServingRuntime runtime;

  web::HttpRequest bad_json;
  bad_json.body = "{ nope";
  const auto bad_json_response = runtime.handle_predict(bad_json);
  EXPECT_EQ(bad_json_response.status, 400);
  EXPECT_EQ(error_code(bad_json_response), "bad_json");

  web::HttpRequest no_design;
  no_design.body = R"({"design_id": "0123456789abcdef", "image": [0.0]})";
  const auto no_design_response = runtime.handle_predict(no_design);
  EXPECT_EQ(no_design_response.status, 404);
  EXPECT_EQ(error_code(no_design_response), "unknown_design");

  const auto deployed =
      json::parse(runtime.handle_deploy([]{ web::HttpRequest r; r.body = deploy_body("err_net"); return r; }()).body);
  const std::string design_id = deployed.at("design_id").as_string();

  // An "image" array of the wrong length is a shape mismatch, not a crash.
  web::HttpRequest wrong_size;
  wrong_size.body = util::format(R"({"design_id": "%s", "image": [0.5, 0.5]})",
                                 design_id.c_str());
  const auto wrong_size_response = runtime.handle_predict(wrong_size);
  EXPECT_EQ(wrong_size_response.status, 400);
  EXPECT_EQ(error_code(wrong_size_response), "shape_mismatch");

  // image_base64 whose decoded byte length disagrees with the input shape:
  // 400 with a message naming both sizes, never a misread or a 5xx.
  web::HttpRequest short_b64;
  short_b64.body = util::format(R"({"design_id": "%s", "image_base64": "%s"})",
                                design_id.c_str(),
                                util::base64_encode(std::vector<std::uint8_t>(8, 0)).c_str());
  const auto short_b64_response = runtime.handle_predict(short_b64);
  EXPECT_EQ(short_b64_response.status, 400);
  EXPECT_EQ(error_code(short_b64_response), "shape_mismatch");
  const auto short_message =
      json::parse(short_b64_response.body).at("error").at("message").as_string();
  EXPECT_NE(short_message.find("8 bytes"), std::string::npos) << short_message;

  web::HttpRequest bad_b64;
  bad_b64.body = util::format(R"({"design_id": "%s", "image_base64": "!!!"})",
                              design_id.c_str());
  const auto bad_b64_response = runtime.handle_predict(bad_b64);
  EXPECT_EQ(bad_b64_response.status, 400);
  EXPECT_EQ(error_code(bad_b64_response), "bad_request");

  // Non-numeric values inside "image" are a client error too (this used to
  // escape as a json::JsonError and answer 503).
  web::HttpRequest not_numbers;
  not_numbers.body = util::format(
      R"({"design_id": "%s", "image": ["a", "b"]})", design_id.c_str());
  const auto not_numbers_response = runtime.handle_predict(not_numbers);
  EXPECT_EQ(not_numbers_response.status, 400);

  EXPECT_GE(runtime.metrics().predict_errors.value(), 3u);
}

TEST(ServeApi, MalformedImagePayloadIsReportedBeforeItsSize) {
  ServingRuntime runtime;
  const auto deployed = json::parse(
      runtime.handle_deploy([] { web::HttpRequest r; r.body = deploy_body("b64_net"); return r; }())
          .body);
  const std::string design_id = deployed.at("design_id").as_string();
  const auto predict = [&](const std::string& image_base64) {
    web::HttpRequest request;
    request.body = util::format(R"({"design_id": "%s", "image_base64": "%s"})",
                                design_id.c_str(), image_base64.c_str());
    return runtime.handle_predict(request);
  };
  const auto message = [](const web::HttpResponse& response) {
    return json::parse(response.body).at("error").at("message").as_string();
  };
  const std::string valid = util::base64_encode(std::vector<std::uint8_t>(64 * sizeof(float), 0));

  // Malformed and of the wrong size at once: the malformed payload wins.
  for (const std::string& both : {std::string("!!!!"), std::string("QUJD=A=="),
                                  valid.substr(0, 40) + "!" + valid.substr(41, 39)}) {
    const auto response = predict(both);
    EXPECT_EQ(response.status, 400) << both;
    EXPECT_EQ(error_code(response), "bad_request") << both;
    EXPECT_EQ(message(response), "image_base64 is not valid base64") << both;
  }
  // Malformed at the right length, and at a length no base64 has.
  for (const std::string& malformed : {valid.substr(0, 40) + "!" + valid.substr(41),
                                       valid.substr(0, valid.size() - 1)}) {
    const auto response = predict(malformed);
    EXPECT_EQ(error_code(response), "bad_request") << malformed;
    EXPECT_EQ(message(response), "image_base64 is not valid base64") << malformed;
  }
  // Well formed but one float short: a shape mismatch naming both sizes.
  const auto short_response =
      predict(util::base64_encode(std::vector<std::uint8_t>(63 * sizeof(float), 0)));
  EXPECT_EQ(short_response.status, 400);
  EXPECT_EQ(error_code(short_response), "shape_mismatch");
  EXPECT_EQ(message(short_response),
            "image_base64 decodes to 252 bytes; input (1, 8, 8) needs 256 (float32 CHW)");
  // Well formed and the right size: served.
  EXPECT_EQ(predict(valid).status, 200);
}

TEST(ServeApi, DeployRejectsUnknownPrecision) {
  ServingRuntime runtime;
  json::Value doc = json::parse(deploy_body("bad_precision"));
  doc.as_object()["precision"] = "int4";
  web::HttpRequest request;
  request.body = doc.dump();
  const auto response = runtime.handle_deploy(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(error_code(response), "bad_request");
  const std::string message =
      json::parse(response.body).at("error").at("message").as_string();
  EXPECT_NE(message.find("float32"), std::string::npos) << message;
  EXPECT_NE(message.find("int16"), std::string::npos) << message;
  EXPECT_NE(message.find("int8"), std::string::npos) << message;

  // Non-string precision is rejected the same way.
  doc.as_object()["precision"] = 8;
  request.body = doc.dump();
  EXPECT_EQ(runtime.handle_deploy(request).status, 400);
}

TEST(ServeApi, QuantizedDeployServesInt8MatchingTheFixedModel) {
  ServingRuntime runtime;

  json::Value doc = json::parse(deploy_body("quant_api"));
  doc.as_object()["precision"] = "int8";
  web::HttpRequest deploy;
  deploy.body = doc.dump();
  const web::HttpResponse deployed = runtime.handle_deploy(deploy);
  ASSERT_EQ(deployed.status, 200) << deployed.body;
  const auto deploy_doc = json::parse(deployed.body);
  const std::string design_id = deploy_doc.at("design_id").as_string();
  EXPECT_EQ(deploy_doc.at("serve_precision").as_string(), "int8");

  // Deploy-time validation against the fixed-point model is surfaced.
  const auto& quant = deploy_doc.at("quantization");
  EXPECT_TRUE(quant.at("validated").as_bool());
  EXPECT_GE(quant.at("probes").as_int(), 1);
  EXPECT_GE(quant.at("max_abs_error").as_double(), 0.0);
  EXPECT_GE(quant.at("top1_agreement").as_double(), 0.0);
  EXPECT_LE(quant.at("top1_agreement").as_double(), 1.0);
  EXPECT_TRUE(quant.at("matches_fixed_model").as_bool());

  // Served predictions equal nn::forward_fixed bit-for-bit.
  const auto design = runtime.registry().find(design_id);
  ASSERT_NE(design, nullptr);
  nn::Network reference = design->descriptor().build_network();
  nn::deserialize_weights(reference, seeded_weights(design->descriptor(), 7));
  const tensor::Tensor image = test_image(11, reference.input_shape());
  const nn::FixedPointFormat format =
      nn::serve_precision_format(nn::ServePrecision::kInt8);
  const auto fixed = nn::forward_fixed(reference, image, format);

  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  json::Object predict_body;
  predict_body["design_id"] = design_id;
  predict_body["image_base64"] = util::base64_encode(raw);
  web::HttpRequest predict;
  predict.body = json::Value(std::move(predict_body)).dump();
  const web::HttpResponse served = runtime.handle_predict(predict);
  ASSERT_EQ(served.status, 200) << served.body;
  const auto result = json::parse(served.body);
  EXPECT_EQ(result.at("precision").as_string(), "int8");
  EXPECT_EQ(static_cast<std::size_t>(result.at("predicted").as_int()), fixed.predicted);
  const auto& logits = result.at("logits").as_array();
  ASSERT_EQ(logits.size(), fixed.scores.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(logits[i].as_double()), fixed.scores[i]);
  }

  // Per-precision dispatch counters show the int8 traffic.
  const auto metrics = json::parse(runtime.handle_metrics(web::HttpRequest{}).body);
  const auto& int8_metrics = metrics.at("precisions").at("int8");
  EXPECT_GE(int8_metrics.at("dispatched").as_int(), 1);
  EXPECT_GE(int8_metrics.at("images").as_int(), 1);
  EXPECT_EQ(metrics.at("precisions").at("float32").at("images").as_int(), 0);

  // The designs listing carries the precision and the validation report.
  const auto designs = json::parse(runtime.handle_designs(web::HttpRequest{}).body);
  ASSERT_EQ(designs.at("designs").as_array().size(), 1u);
  const auto& listed = designs.at("designs").as_array()[0];
  EXPECT_EQ(listed.at("serve_precision").as_string(), "int8");
  EXPECT_TRUE(listed.at("quantization").at("validated").as_bool());
}

namespace {

/// deploy_body with the descriptor's own fixed-point precision object.
std::string fixed_deploy_body(const std::string& name, int total_bits, int frac_bits) {
  json::Value doc = json::parse(deploy_body(name));
  doc.as_object()["precision"] = json::parse(util::format(
      R"({"type": "fixed", "total_bits": %d, "frac_bits": %d})", total_bits, frac_bits));
  return doc.dump();
}

/// Deploys the 8x8 net with a Q(total_bits - frac_bits).(frac_bits)
/// descriptor and checks that it serves on the integer engine computing that
/// format: labelled `serve_precision`, validated against the fixed-point
/// model, counted under that precision, and every predict's logits bitwise
/// equal to forward_fixed at the descriptor's format. Returns the reference
/// network's weights for format-specific checks.
std::vector<float> expect_fixed_deploy_serves_as(int total_bits, int frac_bits,
                                                 const std::string& serve_precision) {
  ServingRuntime runtime;
  web::HttpRequest deploy;
  deploy.body = fixed_deploy_body("fixed_" + serve_precision, total_bits, frac_bits);
  const web::HttpResponse deployed = runtime.handle_deploy(deploy);
  EXPECT_EQ(deployed.status, 200) << deployed.body;
  if (deployed.status != 200) return {};
  const auto doc = json::parse(deployed.body);
  const std::string design_id = doc.at("design_id").as_string();
  const nn::FixedPointFormat format{total_bits, frac_bits};
  EXPECT_EQ(doc.at("precision").as_string(), format.name());
  EXPECT_EQ(doc.at("serve_precision").as_string(), serve_precision);
  EXPECT_TRUE(doc.at("quantization").at("validated").as_bool());
  EXPECT_TRUE(doc.at("quantization").at("matches_fixed_model").as_bool());
  // The content address carries the serving precision, like a string one's.
  EXPECT_TRUE(design_id.ends_with("-" + serve_precision)) << design_id;

  const auto design = runtime.registry().find(design_id);
  EXPECT_NE(design, nullptr);
  if (design == nullptr) return {};
  nn::Network reference = design->descriptor().build_network();
  nn::deserialize_weights(reference, seeded_weights(design->descriptor(), 7));
  constexpr std::size_t kImages = 3;
  for (std::size_t n = 0; n < kImages; ++n) {
    const tensor::Tensor image = test_image(20 + n, reference.input_shape());
    const nn::FixedForwardResult fixed = nn::forward_fixed(reference, image, format);
    json::Array pixels;
    for (std::size_t i = 0; i < image.size(); ++i) pixels.push_back(image[i]);
    json::Object body;
    body["design_id"] = design_id;
    body["image"] = std::move(pixels);
    web::HttpRequest predict;
    predict.body = json::Value(std::move(body)).dump();
    const web::HttpResponse served = runtime.handle_predict(predict);
    EXPECT_EQ(served.status, 200) << served.body;
    if (served.status != 200) continue;
    const auto result = json::parse(served.body);
    EXPECT_EQ(result.at("precision").as_string(), serve_precision);
    EXPECT_EQ(static_cast<std::size_t>(result.at("predicted").as_int()), fixed.predicted);
    const auto& logits = result.at("logits").as_array();
    EXPECT_EQ(logits.size(), fixed.scores.size());
    for (std::size_t i = 0; i < logits.size() && i < fixed.scores.size(); ++i) {
      // %.17g round-trips, so the served float comes back bit for bit.
      const float got = static_cast<float>(logits[i].as_double());
      const float want = fixed.scores[i];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "image " << n << " logit " << i << ": " << got << " vs " << want;
    }
  }

  const auto metrics = json::parse(runtime.handle_metrics(web::HttpRequest{}).body);
  EXPECT_EQ(metrics.at("precisions").at(serve_precision).at("images").as_int(),
            static_cast<std::int64_t>(kImages));
  EXPECT_EQ(metrics.at("precisions").at("float32").at("images").as_int(), 0);

  std::vector<float> weights;
  for (const nn::Param& param : reference.params()) {
    weights.insert(weights.end(), param.value->data(), param.value->data() + param.value->size());
  }
  return weights;
}

}  // namespace

TEST(ServeApi, FixedQ88DescriptorServesOnInt16) {
  expect_fixed_deploy_serves_as(16, 8, "int16");
}

TEST(ServeApi, FixedQ44DescriptorServesOnInt8) {
  const std::vector<float> weights = expect_fixed_deploy_serves_as(8, 4, "int8");
  // The int8 engine equals the fixed model only while no weight passes its
  // clamp, so the bitwise check above holds because the seeded weights stay
  // inside it.
  ASSERT_FALSE(weights.empty());
  const nn::FixedPointFormat q44{8, 4};
  for (const float w : weights) {
    EXPECT_LE(std::abs(nn::fixed_quantize(w, q44)), nn::kernels::kInt8WeightClamp) << w;
  }
}

TEST(ServeApi, FixedQ44DescriptorWithAClampedWeightIsRefused) {
  // A weight past the int8 engine's +/-31 raw clamp (|w| > 1.9375 at Q4.4)
  // would make the served design compute something other than Q4.4, so the
  // Q4.4 descriptor is refused; the same weights under "precision": "int8"
  // ask for the clamped engine and are served, labelled as diverging from
  // the fixed-point model.
  const core::NetworkDescriptor descriptor =
      core::NetworkDescriptor::from_json_text(deploy_body("q44_clamped"));
  nn::Network net = descriptor.build_network();
  nn::deserialize_weights(net, seeded_weights(descriptor, 7));
  for (const nn::Param& param : net.params()) {
    if (param.name.ends_with(".weights")) (*param.value)[0] = 3.0f;
  }
  json::Value doc = json::parse(fixed_deploy_body("q44_clamped", 8, 4));
  doc.as_object()["weights_base64"] = util::base64_encode(nn::serialize_weights(net));

  ServingRuntime runtime;
  web::HttpRequest deploy;
  deploy.body = doc.dump();
  const web::HttpResponse refused = runtime.handle_deploy(deploy);
  EXPECT_EQ(refused.status, 400) << refused.body;
  EXPECT_EQ(error_code(refused), "bad_request");
  EXPECT_NE(refused.body.find("1.9375"), std::string::npos) << refused.body;
  EXPECT_EQ(runtime.registry().size(), 0u);

  doc.as_object()["precision"] = "int8";
  deploy.body = doc.dump();
  const web::HttpResponse served = runtime.handle_deploy(deploy);
  ASSERT_EQ(served.status, 200) << served.body;
  const json::Value quant = json::parse(served.body).at("quantization");
  EXPECT_TRUE(quant.at("validated").as_bool());
  EXPECT_FALSE(quant.at("matches_fixed_model").as_bool());
}

TEST(ServeApi, SeedDeployServesTheNetworkItsParseBuiltBitForBit) {
  // A "seed" body's parse builds the network, and the registry serves that
  // network; a "weights_base64" body of the same weights is loaded from the
  // blob instead, unless its Q4.4 clamp check built it. Both serve the same
  // bits, because the blob keeps raw float32.
  for (const std::string& seeded : {deploy_body("carried", 9),
                                    fixed_deploy_body("carried_q44", 8, 4)}) {
    const std::optional<DeployRequest> parsed = parse_deploy_request(seeded, nullptr);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->network.has_value());
    json::Value doc = json::parse(seeded);
    doc.as_object().erase("seed");
    doc.as_object()["weights_base64"] = util::base64_encode(parsed->weights);
    const std::string blob = doc.dump();
    const bool q44 = parsed->descriptor.precision.is_fixed;
    EXPECT_EQ(parse_deploy_request(blob, nullptr)->network.has_value(), q44);

    ServingRuntime from_seed;
    ServingRuntime from_blob;
    web::HttpRequest deploy;
    deploy.body = seeded;
    const web::HttpResponse a = from_seed.handle_deploy(deploy);
    deploy.body = blob;
    const web::HttpResponse b = from_blob.handle_deploy(deploy);
    ASSERT_EQ(a.status, 200) << a.body;
    ASSERT_EQ(b.status, 200) << b.body;
    const std::string design_id = json::parse(a.body).at("design_id").as_string();
    ASSERT_EQ(json::parse(b.body).at("design_id").as_string(), design_id);
    if (q44) {
      EXPECT_EQ(json::parse(a.body).at("quantization").dump(),
                json::parse(b.body).at("quantization").dump());
    }

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const tensor::Tensor image = test_image(seed, nn::Shape{1, 8, 8});
      std::vector<std::uint8_t> raw(image.size() * sizeof(float));
      std::memcpy(raw.data(), image.data(), raw.size());
      web::HttpRequest predict;
      predict.body = json::Value(json::Object{{"design_id", design_id},
                                              {"image_base64", util::base64_encode(raw)}})
                         .dump();
      const web::HttpResponse served_a = from_seed.handle_predict(predict);
      const web::HttpResponse served_b = from_blob.handle_predict(predict);
      ASSERT_EQ(served_a.status, 200) << served_a.body;
      ASSERT_EQ(served_b.status, 200) << served_b.body;
      EXPECT_EQ(json::parse(served_a.body).at("logits").dump(),
                json::parse(served_b.body).at("logits").dump())
          << seeded;
    }
  }
}

TEST(ServeApi, FixedDescriptorWithoutAnEngineIsRefused) {
  ServingRuntime runtime;
  web::HttpRequest deploy;
  deploy.body = fixed_deploy_body("fixed_q16", 32, 16);
  const web::HttpResponse response = runtime.handle_deploy(deploy);
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_EQ(error_code(response), "bad_request");
  EXPECT_NE(response.body.find("Q16.16"), std::string::npos) << response.body;
  EXPECT_EQ(runtime.registry().size(), 0u);
}

TEST(Registry, PrecisionIsPartOfTheContentAddress) {
  DesignRegistry registry(8);
  const core::NetworkDescriptor descriptor = small_descriptor("quant_key");

  const auto as_float = registry.deploy_random(descriptor, 1);
  const auto as_int8 =
      registry.deploy_random(descriptor, 1, nn::ServePrecision::kInt8);
  const auto as_int16 =
      registry.deploy_random(descriptor, 1, nn::ServePrecision::kInt16);
  // Same descriptor + weights at different precisions are distinct designs.
  EXPECT_FALSE(as_int8.cache_hit);
  EXPECT_FALSE(as_int16.cache_hit);
  EXPECT_NE(as_int8.design->id, as_float.design->id);
  EXPECT_NE(as_int16.design->id, as_float.design->id);
  EXPECT_NE(as_int16.design->id, as_int8.design->id);
  EXPECT_EQ(as_float.design->precision, nn::ServePrecision::kFloat32);
  EXPECT_EQ(as_int8.design->precision, nn::ServePrecision::kInt8);

  // Redeploying at the same precision is a cache hit on the same instance.
  const auto again =
      registry.deploy_random(descriptor, 1, nn::ServePrecision::kInt8);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.design.get(), as_int8.design.get());
}

TEST(ServeApi, DeployRejectsUnsupportedSchemaVersion) {
  ServingRuntime runtime;
  json::Value doc = json::parse(deploy_body("versioned"));
  doc.as_object()["schema_version"] = 2;
  web::HttpRequest request;
  request.body = doc.dump();
  const auto response = runtime.handle_deploy(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(error_code(response), "bad_descriptor");
}

TEST(ServeApi, DeployRejectsOutOfRangeNumbersAsClientErrors) {
  ServingRuntime runtime;
  web::HttpRequest request;
  // A seed outside 64 bits was cast with undefined behaviour.
  json::Value doc = json::parse(deploy_body("huge_seed"));
  doc.as_object()["seed"] = 1e300;
  request.body = doc.dump();
  web::HttpResponse response = runtime.handle_deploy(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(error_code(response), "bad_request");

  // A fractional fixed-point width is a bad descriptor, not a server fault.
  doc = json::parse(deploy_body("half_bit"));
  doc.as_object()["precision"] =
      json::parse(R"({"type": "fixed", "total_bits": 16.5, "frac_bits": 8})");
  request.body = doc.dump();
  response = runtime.handle_deploy(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(error_code(response), "bad_descriptor");
  EXPECT_NE(response.body.find("total_bits"), std::string::npos) << response.body;
}

TEST(ServeApi, DeployReportsWhatTheGeneratorReports) {
  // Deploy only analyzes a design; its HLS summary and warnings must still be
  // exactly what Framework::generate reports for the same descriptor and
  // weights, for a design that fits and for one that overflows the Zybo.
  const std::string over_budget = R"({"name": "monster", "board": "zybo",
      "optimize": true, "seed": 1, "input": {"channels": 3, "height": 32, "width": 32},
      "layers": [
        {"type": "conv", "feature_maps_out": 8, "kernel": 5,
         "pool": {"type": "max", "kernel": 2, "step": 2}},
        {"type": "linear", "neurons": 160},
        {"type": "linear", "neurons": 10}]})";
  ServingRuntime runtime;
  for (const std::string& body : {deploy_body("fits", 3), over_budget}) {
    web::HttpRequest request;
    request.body = body;
    const web::HttpResponse response = runtime.handle_deploy(request);
    ASSERT_EQ(response.status, 200) << response.body;
    const json::Value served = json::parse(response.body);

    const json::Value doc = json::parse(body);
    const auto seed = static_cast<std::uint64_t>(doc.at("seed").as_int());
    const core::GeneratedDesign generated = core::Framework::generate_with_random_weights(
        core::NetworkDescriptor::from_json(doc), seed);
    EXPECT_EQ(static_cast<std::uint64_t>(served.at("latency_cycles").as_int()),
              generated.hls_report.latency_cycles);
    EXPECT_EQ(served.at("latency_seconds").as_double(), generated.hls_report.latency_seconds());
    EXPECT_EQ(served.at("fits").as_bool(), generated.hls_report.fits());
    std::vector<std::string> warnings;
    for (const json::Value& warning : served.at("warnings").as_array()) {
      warnings.push_back(warning.as_string());
    }
    EXPECT_EQ(warnings, generated.warnings);
  }
  // The corpus covers both sides of the fit check.
  const auto listed = json::parse(runtime.handle_designs(web::HttpRequest{}).body);
  ASSERT_EQ(listed.at("designs").as_array().size(), 2u);
  EXPECT_FALSE(listed.at("designs").as_array()[0].at("fits").as_bool());
  EXPECT_TRUE(listed.at("designs").as_array()[1].at("fits").as_bool());
}

TEST(ServeApi, DeployRejectsMismatchedWeights) {
  ServingRuntime runtime;
  // Weights serialized for a different architecture must be a 400.
  core::NetworkDescriptor other = small_descriptor("other");
  other.layers[1].linear.neurons = 3;
  nn::Network net = other.build_network();
  util::Rng rng(1);
  net.init_weights(rng);
  const auto blob = nn::serialize_weights(net);

  json::Value doc = json::parse(deploy_body("mismatch"));
  doc.as_object()["weights_base64"] = util::base64_encode(blob);
  web::HttpRequest request;
  request.body = doc.dump();
  EXPECT_EQ(runtime.handle_deploy(request).status, 400);
}

TEST(ServeApi, ShutdownAnswers503) {
  ServingRuntime runtime;
  runtime.shutdown();
  web::HttpRequest request;
  request.body = deploy_body("late");
  EXPECT_EQ(runtime.handle_deploy(request).status, 503);
  EXPECT_EQ(runtime.handle_predict(request).status, 503);
}

namespace {

/// Deploy `name` on `runtime` and return a ready-to-send predict request.
std::pair<std::string, web::HttpRequest> deploy_and_predict_request(
    ServingRuntime& runtime, const std::string& name) {
  web::HttpRequest deploy;
  deploy.body = deploy_body(name);
  const auto deployed = json::parse(runtime.handle_deploy(deploy).body);
  const std::string design_id = deployed.at("design_id").as_string();
  const auto design = runtime.registry().find(design_id);
  const tensor::Tensor image = test_image(1, design->net.input_shape());
  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  json::Object body;
  body["design_id"] = design_id;
  body["image_base64"] = util::base64_encode(raw);
  web::HttpRequest predict;
  predict.body = json::Value(std::move(body)).dump();
  return {design_id, std::move(predict)};
}

}  // namespace

TEST(ServeApi, OverloadAnswers429WithRetryAfter) {
  ServingConfig config;
  config.batcher.max_queue_depth = 1;
  config.batcher.max_inflight_per_design = 1;
  config.batcher.max_batch = 64;
  config.batcher.max_wait_us = 60'000'000;
  ServingRuntime runtime(config);
  auto [design_id, predict] = deploy_and_predict_request(runtime, "api_429");
  const auto design = runtime.registry().find(design_id);

  auto gate = park_workers(runtime.executor());
  auto occupant = runtime.batcher().predict(design, test_image(0, design->net.input_shape()));
  const auto response = runtime.handle_predict(predict);
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(error_code(response), "overloaded");
  ASSERT_EQ(response.headers.count("Retry-After"), 1u);
  EXPECT_GE(std::stoi(response.headers.at("Retry-After")), 1);
  gate->set_value();
  EXPECT_NO_THROW(occupant.get());

  // Recovered: the same request now answers 200.
  EXPECT_EQ(runtime.handle_predict(predict).status, 200);
  runtime.shutdown();
}

TEST(ServeApi, DeadlineHeaderAnswers504WhenBudgetExpires) {
  ServingRuntime runtime;
  auto [design_id, predict] = deploy_and_predict_request(runtime, "api_504");

  // 30 ms of injected executor latency guarantees the 10 ms budget expires
  // between enqueue and dispatch, deterministically.
  runtime.faults().arm("executor.batch",
                       {FaultKind::kLatency, /*rate=*/1.0, /*count=*/1, /*latency_us=*/30'000});
  predict.headers["x-deadline-ms"] = "10";
  const auto response = runtime.handle_predict(predict);
  EXPECT_EQ(response.status, 504);
  EXPECT_EQ(error_code(response), "deadline_exceeded");
  EXPECT_EQ(runtime.metrics().expired.value(), 1u);

  // Without the fault the same deadline is generous.
  EXPECT_EQ(runtime.handle_predict(predict).status, 200);
  runtime.shutdown();
}

TEST(ServeApi, MalformedDeadlineHeaderIs400) {
  ServingRuntime runtime;
  auto [design_id, predict] = deploy_and_predict_request(runtime, "api_deadline");
  for (const char* bad : {"nope", "-5", "0", "12x", ""}) {
    predict.headers["x-deadline-ms"] = bad;
    const auto response = runtime.handle_predict(predict);
    EXPECT_EQ(response.status, 400) << "header value: '" << bad << "'";
  }
  runtime.shutdown();
}

TEST(ServeApi, ReadyzReportsReadySaturatedAndDraining) {
  ServingConfig config;
  config.batcher.max_queue_depth = 1;
  config.batcher.max_inflight_per_design = 1;
  config.batcher.max_batch = 64;
  config.batcher.max_wait_us = 60'000'000;
  ServingRuntime runtime(config);
  auto [design_id, predict] = deploy_and_predict_request(runtime, "api_ready");
  const auto design = runtime.registry().find(design_id);

  const auto ready = runtime.handle_readyz(web::HttpRequest{});
  EXPECT_EQ(ready.status, 200);
  const auto ready_doc = json::parse(ready.body);
  EXPECT_EQ(ready_doc.at("status").as_string(), "ready");
  EXPECT_EQ(ready_doc.at("queue_capacity").as_int(), 1);
  EXPECT_EQ(ready_doc.at("breakers").at(design_id).at("state").as_string(), "closed");

  auto gate = park_workers(runtime.executor());
  auto occupant = runtime.batcher().predict(design, test_image(0, design->net.input_shape()));
  const auto saturated = runtime.handle_readyz(web::HttpRequest{});
  EXPECT_EQ(saturated.status, 503);
  EXPECT_EQ(json::parse(saturated.body).at("status").as_string(), "saturated");
  EXPECT_EQ(json::parse(saturated.body).at("queue_depth").as_int(), 1);
  gate->set_value();
  occupant.get();

  runtime.shutdown();
  const auto draining = runtime.handle_readyz(web::HttpRequest{});
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(json::parse(draining.body).at("status").as_string(), "draining");
}

TEST(ServeApi, ShutdownVersusPredictHammer) {
  // Predicts racing shutdown() must each resolve to exactly 200 or the
  // uniform 503 "shutdown" envelope — never a hang, a 500, or a mislabeled
  // internal error from the executor tearing down underneath the batcher.
  ServingConfig config;
  config.batcher.max_wait_us = 200;
  ServingRuntime runtime(config);
  auto [design_id, predict] = deploy_and_predict_request(runtime, "api_race");

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto response = runtime.handle_predict(predict);
        if (response.status == 200) continue;
        if (response.status == 503 && error_code(response) == "shutdown") continue;
        bad.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime.shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0u);
}

// ------------------------------------- predicts on the connection's thread

namespace {

web::HttpRequest predict_request(const std::string& design_id, const tensor::Tensor& image) {
  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  json::Object body;
  body["design_id"] = design_id;
  body["image_base64"] = util::base64_encode(raw);
  web::HttpRequest request;
  request.body = json::Value(std::move(body)).dump();
  return request;
}

/// Batches the CPU backend ran on the thread that submitted them.
std::uint64_t inline_batches(ServingRuntime& runtime) {
  return runtime.metrics().backend[backend_index(BackendId::kCpu)].inline_batches.value();
}

/// The response's logits, as the floats the server computed.
std::vector<float> response_logits(const web::HttpResponse& response) {
  const json::Value doc = json::parse(response.body);
  std::vector<float> logits;
  for (const json::Value& logit : doc.at("logits").as_array()) {
    logits.push_back(static_cast<float>(logit.as_double()));
  }
  return logits;
}

}  // namespace

TEST(ServeApi, UncontendedPredictsRunOnTheHandlerThread) {
  ServingRuntime runtime;
  web::HttpRequest deploy;
  deploy.body = deploy_body("inline_seq");
  const std::string design_id =
      json::parse(runtime.handle_deploy(deploy).body).at("design_id").as_string();
  const auto design = runtime.registry().find(design_id);
  ASSERT_NE(design, nullptr);
  nn::ExecutionContext ctx(design->net);

  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const tensor::Tensor image = test_image(100 + i, design->net.input_shape());
    const tensor::Tensor& expected = design->net.infer(image, ctx);
    const auto served = runtime.handle_predict(predict_request(design_id, image));
    ASSERT_EQ(served.status, 200) << served.body;
    EXPECT_EQ(json::parse(served.body).at("batch_size").as_int(), 1);
    const std::vector<float> logits = response_logits(served);
    ASSERT_EQ(logits.size(), expected.size());
    for (std::size_t j = 0; j < logits.size(); ++j) {
      EXPECT_EQ(logits[j], expected[j]) << "request " << i << " logit " << j;  // bitwise
    }
    // The slot went back to the pool before the handler answered.
    EXPECT_EQ(runtime.executor().running(), 0u);
    EXPECT_EQ(runtime.executor().backlog(), 0u);
  }
  EXPECT_EQ(inline_batches(runtime), kRequests);
  const auto metrics = json::parse(runtime.handle_metrics(web::HttpRequest{}).body);
  EXPECT_EQ(metrics.at("backends").at("cpu").at("inline").as_int(), 8);
  EXPECT_EQ(metrics.at("backends").at("cpu").at("dispatched").as_int(), 8);
  EXPECT_EQ(metrics.at("predict").at("total").as_int(), 8);
  runtime.shutdown();
}

TEST(ServeApi, PredictWaitsOnThePoolWhenNoSlotIsIdle) {
  ServingRuntime runtime;
  auto [design_id, predict] = deploy_and_predict_request(runtime, "inline_parked");
  const auto idle = runtime.handle_predict(predict);
  ASSERT_EQ(idle.status, 200) << idle.body;
  ASSERT_EQ(inline_batches(runtime), 1u);

  // Every worker busy: the handler finds no idle slot, so its batch queues on
  // the pool and the handler waits on the future. The gauges count the
  // parking tasks too, so wait until every worker runs one: until then the
  // handler could still find an idle slot.
  Executor& pool = runtime.executor();
  auto gate = park_workers(pool);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.running() < pool.thread_count() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(pool.running(), pool.thread_count());
  ASSERT_EQ(pool.queued(), 0u);
  std::promise<web::HttpResponse> answer;
  std::thread client([&runtime, &answer, &predict] {
    answer.set_value(runtime.handle_predict(predict));
  });
  while (pool.queued() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.queued(), 1u);
  EXPECT_EQ(inline_batches(runtime), 1u);
  gate->set_value();
  client.join();

  const auto pooled = answer.get_future().get();
  ASSERT_EQ(pooled.status, 200) << pooled.body;
  EXPECT_EQ(inline_batches(runtime), 1u);
  EXPECT_EQ(runtime.metrics().backend[backend_index(BackendId::kCpu)].dispatched.value(), 2u);
  EXPECT_EQ(response_logits(pooled), response_logits(idle));
  runtime.shutdown();
}

TEST(ServeApi, InlineAndPoolBatchesShareTheWorkerBound) {
  // Two worker slots, eight designs, every batch held 20 ms inside its slot.
  // Eight concurrent predicts then need at least four rounds of two. Were
  // inline batches not counted against the pool's width, more than
  // two would overlap and the whole set would finish sooner.
  ServingConfig config;
  config.worker_threads = 2;
  ServingRuntime runtime(config);
  std::vector<web::HttpRequest> predicts;
  for (int d = 0; d < 8; ++d) {
    predicts.push_back(deploy_and_predict_request(runtime, util::format("bound_%d", d)).second);
  }
  runtime.faults().arm("executor.batch", {FaultKind::kLatency, /*rate=*/1.0, /*count=*/0,
                                          /*latency_us=*/20'000});

  std::atomic<int> ok{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (const web::HttpRequest& predict : predicts) {
    clients.emplace_back([&runtime, &ok, &predict] {
      if (runtime.handle_predict(predict).status == 200) ok.fetch_add(1);
    });
  }
  for (std::thread& client : clients) client.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(ok.load(), 8);
  EXPECT_GE(elapsed, std::chrono::milliseconds(80));
  EXPECT_EQ(runtime.metrics().batches.value(), 8u);
  runtime.shutdown();
}

TEST(ServeApi, InlineBatchFailuresTripTheBreaker) {
  ServingRuntime runtime;
  auto [design_id, predict] = deploy_and_predict_request(runtime, "inline_breaker");

  // The default breaker opens after 5 consecutive failed batches.
  runtime.faults().arm("executor.batch", {FaultKind::kError, /*rate=*/1.0, /*count=*/5});
  for (int i = 0; i < 5; ++i) {
    const auto failed = runtime.handle_predict(predict);
    EXPECT_EQ(failed.status, 500) << failed.body;
    EXPECT_EQ(error_code(failed), "internal");
  }
  EXPECT_EQ(inline_batches(runtime), 5u);  // each failed on the calling thread

  const auto rejected = runtime.handle_predict(predict);
  EXPECT_EQ(rejected.status, 503) << rejected.body;
  EXPECT_EQ(error_code(rejected), "design_unavailable");
  ASSERT_EQ(rejected.headers.count("Retry-After"), 1u);
  EXPECT_GE(std::stoi(rejected.headers.at("Retry-After")), 1);
  runtime.shutdown();
}

TEST(ServeApi, AcceleratorEngineAnswersWithTheCpuEnginesLogits) {
  // A runtime runs every batch on its one engine. The fabric computes the
  // reference function, so the same design answers the same image with the
  // same logits, bit for bit, on either engine.
  ServingRuntime cpu;
  ServingConfig accel_config;
  accel_config.batcher.engine = BackendId::kAccelerator;
  accel_config.batcher.accel_sleep_for_model = false;  // modeled time only
  ServingRuntime accel(accel_config);
  web::HttpRequest deploy;
  deploy.body = deploy_body("engine_parity");
  const std::string design_id =
      json::parse(cpu.handle_deploy(deploy).body).at("design_id").as_string();
  ASSERT_EQ(json::parse(accel.handle_deploy(deploy).body).at("design_id").as_string(),
            design_id);
  const nn::Shape shape = cpu.registry().find(design_id)->net.input_shape();

  for (std::uint64_t i = 0; i < 3; ++i) {
    const web::HttpRequest predict = predict_request(design_id, test_image(200 + i, shape));
    const auto on_cpu = cpu.handle_predict(predict);
    const auto on_accel = accel.handle_predict(predict);
    ASSERT_EQ(on_cpu.status, 200) << on_cpu.body;
    ASSERT_EQ(on_accel.status, 200) << on_accel.body;
    EXPECT_EQ(json::parse(on_cpu.body).at("backend").as_string(), "cpu");
    EXPECT_EQ(json::parse(on_accel.body).at("backend").as_string(), "accelerator");
    EXPECT_EQ(response_logits(on_accel), response_logits(on_cpu)) << "request " << i;
  }

  const auto metrics = json::parse(accel.handle_metrics(web::HttpRequest{}).body);
  EXPECT_EQ(metrics.at("backends").at("cpu").at("dispatched").as_int(), 0);
  EXPECT_EQ(metrics.at("backends").at("accelerator").at("dispatched").as_int(), 3);
  EXPECT_EQ(metrics.at("engine").at("name").as_string(), "accelerator");
  EXPECT_EQ(metrics.at("engine").at("slots").as_int(), 1);  // one physical IP core
  const auto ready = json::parse(accel.handle_readyz(web::HttpRequest{}).body);
  EXPECT_EQ(ready.at("engine").at("name").as_string(), "accelerator");
  cpu.shutdown();
  accel.shutdown();
}

// ------------------------------------------------- full HTTP server serving

TEST(ServeHttp, EndToEndConcurrentClients) {
  ServingConfig config;
  config.batcher.max_wait_us = 500;
  ServingRuntime runtime(config);
  web::HttpServer server;
  web::install_api(server);
  install_serve_api(server, runtime);
  const int port = server.start(0);

  const auto deployed =
      web::http_request("127.0.0.1", port, "POST", "/api/v1/deploy", deploy_body("e2e"));
  ASSERT_TRUE(deployed.has_value());
  ASSERT_EQ(deployed->status, 200) << deployed->body;
  EXPECT_EQ(deployed->headers.count("deprecation"), 0u);

  // The pre-versioning route is retired: 410 tombstone pointing at v1, no
  // deploy executed.
  const auto legacy =
      web::http_request("127.0.0.1", port, "POST", "/api/deploy", deploy_body("e2e"));
  ASSERT_TRUE(legacy.has_value());
  ASSERT_EQ(legacy->status, 410) << legacy->body;
  EXPECT_EQ(json::parse(legacy->body).at("error").at("code").as_string(), "gone");
  ASSERT_EQ(legacy->headers.count("link"), 1u);
  EXPECT_NE(legacy->headers.at("link").find("/api/v1/deploy"), std::string::npos);
  const std::string design_id = json::parse(deployed->body).at("design_id").as_string();

  const auto design = runtime.registry().find(design_id);
  ASSERT_NE(design, nullptr);
  const std::size_t pixels = design->net.input_shape().elements();

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 3; ++i) {
        const tensor::Tensor image =
            test_image(static_cast<std::uint64_t>(c * 3 + i), design->net.input_shape());
        std::vector<std::uint8_t> raw(pixels * sizeof(float));
        std::memcpy(raw.data(), image.data(), raw.size());
        json::Object body;
        body["design_id"] = design_id;
        body["image_base64"] = util::base64_encode(raw);
        const auto response = web::http_request("127.0.0.1", port, "POST", "/api/v1/predict",
                                                json::Value(std::move(body)).dump());
        if (!response || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(runtime.metrics().predictions.value(), 12u);
  // Only the v1 deploy reached the registry; the 410 alias never ran it.
  EXPECT_EQ(runtime.metrics().deploys.value(), 1u);

  const auto metrics = web::http_request("127.0.0.1", port, "GET", "/api/v1/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_EQ(json::parse(metrics->body).at("predict").at("total").as_int(), 12);
  server.stop();
  runtime.shutdown();
}

// --------------------------------------------------- HTTP server hardening

namespace {

/// Connect the TCP socket `fd` to the loopback server on `port`.
bool connect_local(int fd, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

/// Send `request` as raw bytes on a fresh connection and read until the
/// server closes it: the only view that shows the status line as sent.
std::string raw_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  std::string reply;
  if (connect_local(fd, port) && ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) > 0) {
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return reply;
}

}  // namespace

TEST(HttpHardening, OversizedBodyAnswers413) {
  web::ServerConfig config;
  config.max_body_bytes = 1024;
  web::HttpServer server(config);
  web::install_api(server);
  const int port = server.start(0);

  const std::string big(4096, 'x');
  const auto response = web::http_request("127.0.0.1", port, "POST", "/api/v1/generate", big);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 413);

  // Server still serves normal traffic afterwards.
  const auto health = web::http_request("127.0.0.1", port, "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  server.stop();
}

TEST(HttpHardening, MalformedRequestLineAnswers400) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);

  // Raw socket: a request line without an HTTP version token.
  const std::string reply = raw_exchange(port, "TOTAL GARBAGE\r\n\r\n");
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  server.stop();
}

TEST(HttpHardening, RetiredAliasStatusLineSaysGone) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);
  // HttpResponse keeps no reason phrase, so only the raw reply shows it.
  const std::string reply = raw_exchange(port, "GET /api/boards HTTP/1.1\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 410 Gone\r\n", 0), 0u) << reply;
  server.stop();
}

TEST(HttpHardening, StalledClientIsTimedOut) {
  web::ServerConfig config;
  config.read_timeout_ms = 150;
  web::HttpServer server(config);
  web::install_api(server);
  const int port = server.start(0);

  // Connect and send nothing: the read timeout must answer 408 (rather than
  // holding the connection's thread forever).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(connect_local(fd, port));
  std::string reply;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) reply.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_NE(reply.find("408"), std::string::npos) << reply;

  const auto health = web::http_request("127.0.0.1", port, "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  server.stop();
}

TEST(HttpHardening, SlowReaderIsCutOffBySendTimeout) {
  // A client that requests a response far larger than the socket buffers
  // and then reads nothing would block write_response forever without
  // SO_SNDTIMEO. With it the server gives up and closes, so the client,
  // reading at last, gets less than the whole body and then EOF.
  web::ServerConfig config;
  config.write_timeout_ms = 200;
  web::HttpServer server(config);
  const std::size_t body_bytes = 16u << 20;
  server.route("GET", "/big", [body_bytes](const web::HttpRequest&) {
    return web::HttpResponse{200, "application/octet-stream", std::string(body_bytes, 'x'), {}};
  });
  const int port = server.start(0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;  // shrink the client's receive window
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  const timeval give_up{10, 0};  // a server that never closes fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &give_up, sizeof(give_up));
  ASSERT_TRUE(connect_local(fd, port));
  const char* request = "GET /big HTTP/1.1\r\nHost: test\r\n\r\n";
  ASSERT_GT(::send(fd, request, std::strlen(request), MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::seconds(1));  // the server's send stalls

  std::size_t received = 0;
  std::vector<char> buf(1 << 16);
  ssize_t n;
  while ((n = ::recv(fd, buf.data(), buf.size(), 0)) > 0) received += static_cast<std::size_t>(n);
  ::close(fd);
  EXPECT_EQ(n, 0) << "the server must close the connection";
  EXPECT_LT(received, body_bytes) << "the server must give up before sending the whole body";
  server.stop();
}

TEST(HttpHardening, PipelinedRequestsAreAnsweredInOrder) {
  web::HttpServer server;
  web::install_api(server);
  server.route("POST", "/echo", [](const web::HttpRequest& request) {
    return web::HttpResponse{200, "text/plain", "echo:" + request.body, {}};
  });
  const int port = server.start(0);

  // One write carries a kept-alive POST with a body and then a GET that
  // closes the connection. Both must be answered, in order, without waiting
  // out the keep-alive timeout for a second request that already arrived.
  const std::string requests =
      "POST /echo HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n"
      "Content-Length: 11\r\n\r\nhello world"
      "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n";
  const auto started = std::chrono::steady_clock::now();
  const std::string reply = raw_exchange(port, requests);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();

  const std::size_t first = reply.find("HTTP/1.1 200 OK\r\n");
  ASSERT_EQ(first, 0u) << reply;
  const std::size_t second = reply.find("HTTP/1.1 200 OK\r\n", first + 1);
  ASSERT_NE(second, std::string::npos) << reply;
  const std::size_t echo = reply.find("echo:hello world");
  EXPECT_LT(echo, second) << reply;
  EXPECT_NE(reply.find("{\"status\":\"ok\"}", second), std::string::npos) << reply;
  EXPECT_LT(waited, web::kKeepAliveTimeoutMs / 2) << reply;
  server.stop();
}

TEST(HttpHardening, ContentLengthMustBeDigitsOnly) {
  web::HttpServer server;
  std::atomic<int> handled{0};
  server.route("POST", "/count", [&handled](const web::HttpRequest& request) {
    handled.fetch_add(1);
    return web::HttpResponse{200, "text/plain", request.body, {}};
  });
  const int port = server.start(0);
  const auto post = [port](const std::string& content_length) {
    return raw_exchange(port, "POST /count HTTP/1.1\r\nHost: test\r\nContent-Length: " +
                                  content_length + "\r\n\r\n{}");
  };

  // Values strtoul would read as numbers are invalid too (RFC 9112 §6.3):
  // each answers 400 and closes the connection before any handler runs.
  for (const std::string value : {"2x", "+2", "-1", "", "2 2", "0x2"}) {
    const std::string reply = post(value);
    EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << "'" << value << "': " << reply;
  }
  EXPECT_EQ(handled.load(), 0);
  // A digit string past any body limit, past 64 bits even, is still 413.
  const std::string huge = post("1234567890123456789012345");
  EXPECT_EQ(huge.rfind("HTTP/1.1 413 Content Too Large\r\n", 0), 0u) << huge;
  EXPECT_EQ(handled.load(), 0);

  const std::string valid = post("2");
  EXPECT_EQ(valid.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << valid;
  EXPECT_NE(valid.find("\r\n\r\n{}"), std::string::npos) << valid;
  EXPECT_EQ(handled.load(), 1);
  server.stop();
}

TEST(HttpHardening, BodyFramingMustBeUnambiguous) {
  web::HttpServer server;
  std::atomic<int> handled{0};
  server.route("POST", "/count", [&handled](const web::HttpRequest& request) {
    handled.fetch_add(1);
    return web::HttpResponse{200, "text/plain", request.body, {}};
  });
  const int port = server.start(0);

  // Each request asks to keep the connection open. Read by Content-Length
  // alone, its body bytes would come back as a second request with a second
  // response. Instead one refusal answers it and the connection closes
  // before any handler runs.
  const std::string head = "POST /count HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n";
  struct Row {
    const char* why;
    std::string request;
    const char* status_line;
  };
  const Row rows[] = {
      {"chunked body", head + "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
       "HTTP/1.1 501 Not Implemented\r\n"},
      {"Transfer-Encoding beside Content-Length",
       head + "Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n{}",
       "HTTP/1.1 501 Not Implemented\r\n"},
      {"two Content-Lengths that disagree",
       head + "Content-Length: 2\r\nContent-Length: 0\r\n\r\n{}"
              "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"two equal Content-Lengths", head + "Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
      // A header line that cannot be parsed one way only (RFC 9112 §5).
      // Skipping it would hide a framing header: the chunk bytes, or the
      // body, would then be read as the next request.
      {"space before the colon of Transfer-Encoding",
       head + "Transfer-Encoding : chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"space before the colon of Content-Length",
       head + "Content-Length : 7\r\n\r\n{\"a\":1}GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"tab before the colon", head + "Content-Length\t: 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"obs-fold continuation line",
       head + "X-Note: a\r\n folded\r\nContent-Length: 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"folded line holding a colon", head + "X-Note: a\r\n\tContent-Length: 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"line without a colon", head + "Content-Length 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
      {"empty header name", head + ": 2\r\nContent-Length: 2\r\n\r\n{}",
       "HTTP/1.1 400 Bad Request\r\n"},
  };
  for (const Row& row : rows) {
    const auto started = std::chrono::steady_clock::now();
    const std::string reply = raw_exchange(port, row.request);
    const auto waited = std::chrono::steady_clock::now() - started;
    EXPECT_EQ(reply.rfind(row.status_line, 0), 0u) << row.why << ": " << reply;
    EXPECT_EQ(reply.find("HTTP/1.1 ", 1), std::string::npos) << row.why << ": " << reply;
    // Closed at once, not after the keep-alive timeout.
    EXPECT_LT(waited, std::chrono::milliseconds(web::kKeepAliveTimeoutMs / 2)) << row.why;
  }
  EXPECT_EQ(handled.load(), 0);

  const std::string valid = raw_exchange(
      port, "POST /count HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\r\n{}");
  EXPECT_EQ(valid.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << valid;
  EXPECT_EQ(handled.load(), 1);
  server.stop();
}

namespace {

/// Resident set size of this process (VmRSS) in bytes; 0 when unreadable.
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

}  // namespace

TEST(HttpHardening, StalledBodiesAreNotAllocatedUpFront) {
  web::ServerConfig config;
  config.read_timeout_ms = 2000;
  web::HttpServer server(config);
  web::install_api(server);
  const int port = server.start(0);
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);

  // Three clients each announce a body just under the 16 MiB default cap,
  // send one byte of it and stall. Their connections must hold what
  // arrived, not what was announced.
  std::vector<int> fds;
  for (int c = 0; c < 3; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ASSERT_TRUE(connect_local(fd, port));
    const std::string head =
        "POST /api/v1/generate HTTP/1.1\r\nContent-Length: 16000000\r\n\r\nx";
    ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(head.size()));
  }
  // The server reads the headers at once; watch the peak while it waits.
  std::size_t peak = before;
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    peak = std::max(peak, resident_bytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (const int fd : fds) ::close(fd);
  server.stop();
  EXPECT_LT(peak - before, std::size_t{8} << 20) << "RSS " << before << " -> " << peak;
}

TEST(HttpHardening, ParallelHandlersServeConcurrently) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        const auto response = web::http_request("127.0.0.1", port, "GET", "/api/v1/boards");
        if (!response || response->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  server.stop();
}

TEST(HttpHardening, IdleKeepAliveConnectionsDoNotStallNewOnes) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);

  // 16 clients each get one kept-alive answer and then sit idle on their
  // connection, as a router's pooled connections do between requests.
  const timeval answer_within{2, 0};
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n\r\n";
  std::vector<int> idle;
  for (int c = 0; c < 16; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &answer_within, sizeof(answer_within));
    ASSERT_TRUE(connect_local(fd, port));
    ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    std::string reply;
    char buf[512];
    ssize_t n;
    while (reply.find("{\"status\":\"ok\"}") == std::string::npos &&
           (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << "client " << c << ": " << reply;
  }
  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  // A 17th client is answered at once, not after an idle one times out.
  const auto asked = std::chrono::steady_clock::now();
  const auto health = web::http_request("127.0.0.1", port, "GET", "/healthz");
  EXPECT_LT(ms_since(asked), 2000);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  // stop() cuts the idle connections rather than waiting out their
  // keep-alive timeout.
  const auto stopping = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(ms_since(stopping), 2000);
  for (const int fd : idle) ::close(fd);
}

namespace {

/// CPU time this process has used, user plus system, in seconds.
double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

TEST(HttpHardening, AcceptOutOfDescriptorsWaitsInsteadOfSpinning) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);
  std::vector<int> clients;
  for (int c = 0; c < 4; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  {
    // Every descriptor below the lowest free one is open, so with the soft
    // limit there, the server's accept() fails with EMFILE. The guard puts
    // the limit back even when an assertion below returns early, since the
    // rest of the binary may run in this process.
    const int lowest_free = ::fcntl(clients[0], F_DUPFD, 0);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    struct RestoreLimit {
      const rlimit& limit;
      ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
    } restore{saved};
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

    // The connections wait in the listen backlog while accept() cannot
    // take them. An acceptor that retried at once would spin a core.
    for (const int fd : clients) ASSERT_TRUE(connect_local(fd, port));
    const double before = cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_LT(cpu_seconds() - before, 0.1);
  }
  for (const int fd : clients) ::close(fd);

  const auto health = web::http_request("127.0.0.1", port, "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  server.stop();
}
