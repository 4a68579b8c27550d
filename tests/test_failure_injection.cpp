// Failure-injection tests: corrupted transport, degenerate designs and
// resource exhaustion must produce diagnostics and leave the system usable —
// never crashes or silent wrong answers. The serve-layer section drives the
// overload machinery (breaker, shedding, deadlines) through FaultInjector,
// so recovery is proven against actually injected faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "axi/block_design.hpp"
#include "core/dse.hpp"
#include "core/framework.hpp"
#include "data/synth_usps.hpp"
#include "hls/schedule.hpp"
#include "nn/trainer.hpp"
#include "serve/server.hpp"

using namespace cnn2fpga;
using nn::Shape;
using nn::Tensor;

namespace {
nn::Network tiny_net() {
  nn::Network net(Shape{1, 6, 6}, "fi");
  net.add_conv(2, 3, 3);
  net.add_linear(3);
  net.add_logsoftmax();
  util::Rng rng(1);
  net.init_weights(rng);
  return net;
}

core::NetworkDescriptor serve_descriptor(const std::string& name) {
  core::NetworkDescriptor d;
  d.name = name;
  d.board = "zedboard";
  d.input_channels = 1;
  d.input_height = 6;
  d.input_width = 6;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 2;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 3;
  d.layers = {conv, lin};
  return d;
}

Tensor serve_image(std::uint64_t seed, const Shape& shape) {
  Tensor image{shape};
  util::Rng rng(seed);
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}
}  // namespace

// ---------------------------------------------------------------- fabric

TEST(FailureInjection, CorruptedPacketThenRecovery) {
  nn::Network net = tiny_net();
  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard());

  Tensor image(Shape{1, 6, 6});
  util::Rng rng(2);
  image.fill_uniform(rng, 0.0f, 1.0f);

  // A good classification first.
  ASSERT_TRUE(bd.classify(image).ok);

  // Inject a short image: wrong-rank tensor has fewer elements than the IP
  // expects, so the stream underflows and the run fails cleanly.
  Tensor short_image(Shape{1, 2, 2});
  const axi::ClassifyResult bad = bd.classify(short_image);
  EXPECT_FALSE(bad.ok);

  // Reset (the Processor System Reset of Fig. 5) and recover.
  bd.reset();
  const axi::ClassifyResult good = bd.classify(image);
  ASSERT_TRUE(good.ok);
  EXPECT_EQ(good.predicted, net.predict(image));
}

TEST(FailureInjection, BatchCountsFailuresWithoutAborting) {
  nn::Network net = tiny_net();
  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard());
  util::Rng rng(3);

  std::vector<Tensor> images;
  for (int i = 0; i < 3; ++i) {
    Tensor image(Shape{1, 6, 6});
    image.fill_uniform(rng, 0.0f, 1.0f);
    images.push_back(image);
  }
  images.insert(images.begin() + 1, Tensor(Shape{1, 2, 2}));  // poison pill

  // The bad image leaves a stalled partial packet in the stream; each
  // classify() call in the batch resets nothing itself, so the design's
  // behaviour must still be: one failure counted, and after reset the
  // remaining traffic is clean.
  const axi::BatchResult result = bd.classify_batch(images);
  EXPECT_EQ(result.images, 4u);
  EXPECT_GE(result.failures, 1u);
  EXPECT_EQ(result.predictions.size() + result.failures, 4u);
}

TEST(FailureInjection, StreamedDesignDoubleUploadIsSafe) {
  core::NetworkDescriptor d;
  d.name = "fi_streamed";
  d.input_channels = 1;
  d.input_height = 6;
  d.input_width = 6;
  d.streamed_weights = true;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 2;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 3;
  d.layers = {conv, lin};

  nn::Network net = d.build_network();
  util::Rng rng(4);
  net.init_weights(rng);
  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard(),
                      nn::NumericFormat::float32(), true);
  EXPECT_TRUE(bd.upload_weights());
  EXPECT_TRUE(bd.upload_weights());  // idempotent
  Tensor image(Shape{1, 6, 6});
  image.fill_uniform(rng, 0.0f, 1.0f);
  EXPECT_TRUE(bd.classify(image).ok);
}

// ---------------------------------------------------------------- HLS edge

TEST(FailureInjection, DegenerateBlocksScheduleSanely) {
  hls::TaskBlock empty;
  empty.name = "empty";
  // No loops at all: only the region overhead remains.
  EXPECT_EQ(hls::block_latency(empty), hls::schedule_constants().region_overhead);

  hls::TaskBlock zero_trip;
  zero_trip.name = "zero";
  zero_trip.loops.trips = {0, 5};
  zero_trip.body = {{hls::OpKind::kFAdd, 1}};
  EXPECT_EQ(hls::block_latency(zero_trip), hls::schedule_constants().region_overhead);

  hls::HlsDesign design;
  EXPECT_EQ(hls::design_latency(design), 0u);
  EXPECT_EQ(hls::batch_latency(design, 100), 0u);
}

TEST(FailureInjection, MassivelyOversizedDesignReportsDontLie) {
  // A network far beyond any catalog device: generation must succeed, fits()
  // must be false on every board, and the DSE must find nothing.
  core::NetworkDescriptor d;
  d.name = "monster";
  d.input_channels = 3;
  d.input_height = 32;
  d.input_width = 32;
  d.optimize = true;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 8;
  conv.conv.kernel_h = conv.conv.kernel_w = 5;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 160;  // 8*14*14 -> 160: ~251k weights, > Zybo's BRAM
  core::LayerSpec lin2;
  lin2.type = core::LayerSpec::Type::kLinear;
  lin2.linear.neurons = 10;
  d.layers = {conv, lin, lin2};

  // Zybo and Zedboard must both refuse; even a Virtex-7 may, but if it fits
  // there the DSE recommendation must be the Virtex-7.
  d.board = "zybo";
  const core::GeneratedDesign on_zybo = core::Framework::generate_with_random_weights(d, 1);
  EXPECT_FALSE(on_zybo.hls_report.fits());
  EXPECT_FALSE(on_zybo.warnings.empty());

  core::DseOptions options;
  options.boards = {"zybo", "zedboard"};
  const core::DseResult result = core::explore_design_space(d, options);
  for (const core::DsePoint& p : result.points) {
    if (!p.precision.is_fixed) {
      EXPECT_FALSE(p.fits) << p.label();
    }
  }
}

TEST(FailureInjection, UtilizationNeverSilentlyWraps) {
  // Astronomic resource counts stay finite and compare correctly.
  hls::ResourceUsage usage;
  usage.dsp = 1'000'000;
  usage.bram18 = 1'000'000;
  const hls::Utilization u = hls::utilization(usage, hls::zedboard());
  EXPECT_GT(u.dsp, 1000.0);
  EXPECT_FALSE(u.fits());
  EXPECT_EQ(u.worst(), std::max(u.dsp, u.bram));
}

// ---------------------------------------------------------------- trainer

TEST(FailureInjection, GradientClippingContainsExplosiveRates) {
  // At a learning rate that diverges without clipping (see the Test-3
  // calibration in DESIGN.md), clipping keeps the loss finite.
  nn::Network net = nn::make_test3_network();
  util::Rng rng(5);
  net.init_weights(rng);

  data::UspsConfig config;
  config.samples_per_class = 6;
  const auto train_set = cnn2fpga::data::generate_usps(config).samples;

  nn::TrainConfig tc;
  tc.epochs = 3;
  tc.learning_rate = 0.01f;  // diverges unclipped
  tc.clip_grad_norm = 1.0f;
  const nn::TrainResult result = nn::SgdTrainer(tc).train(net, train_set, {});
  for (float loss : result.epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_LT(loss, 100.0f);
  }
}

// ------------------------------------------------------------ serve layer

TEST(FailureInjection, FaultInjectorIsDeterministicAndParsesSpecs) {
  // Same seed, same site, same hit sequence => identical firing decisions.
  const auto draw_sequence = [](std::uint64_t seed) {
    serve::FaultInjector injector;
    injector.seed(seed);
    injector.arm("site.x", {serve::FaultKind::kError, /*rate=*/0.5});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(injector.should_fail("site.x"));
    return fired;
  };
  EXPECT_EQ(draw_sequence(7), draw_sequence(7));
  EXPECT_NE(draw_sequence(7), draw_sequence(8));

  serve::FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.should_fail("anything"));  // disarmed: pure no-op

  std::string error;
  EXPECT_TRUE(injector.configure(
      "executor.batch=error:1.0:3, batcher.enqueue=latency:500", &error))
      << error;
  EXPECT_TRUE(injector.enabled());
  // Budgeted fault: fires exactly 3 times, then heals.
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += injector.should_fail("executor.batch") ? 1 : 0;
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(injector.fired("executor.batch"), 3u);

  // Malformed specs are rejected atomically: nothing half-arms.
  serve::FaultInjector strict;
  EXPECT_FALSE(strict.configure("a=error:1.0,b=latency", &error));
  EXPECT_FALSE(strict.enabled());
  EXPECT_FALSE(strict.configure("noequals", &error));
  EXPECT_FALSE(strict.configure("a=error:2.0", &error));  // rate > 1
  EXPECT_FALSE(strict.configure("a=explode", &error));
}

TEST(FailureInjection, BreakerTripsQuarantinesAndRecoversViaProbe) {
  serve::ServingConfig config;
  config.worker_threads = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 500;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown_ms = 100;
  serve::ServingRuntime runtime(config);

  const auto victim =
      runtime.registry().deploy_random(serve_descriptor("fi_victim"), 1).design;
  const auto healthy =
      runtime.registry().deploy_random(serve_descriptor("fi_healthy"), 2).design;
  const Shape shape = victim->net.input_shape();

  // Fail the next 3 batches, then heal — one arm() call.
  runtime.faults().arm("executor.batch",
                       {serve::FaultKind::kError, /*rate=*/1.0, /*count=*/3});
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(runtime.batcher().predict(victim, serve_image(i, shape)).get(),
                 serve::InjectedFault);
  }
  EXPECT_EQ(victim->breaker.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(runtime.metrics().breaker_opens.value(), 1u);

  // Quarantined: rejected without touching the executor.
  EXPECT_THROW(runtime.batcher().predict(victim, serve_image(9, shape)).get(),
               serve::DesignUnavailableError);
  EXPECT_GE(runtime.metrics().breaker_rejects.value(), 1u);
  // The healthy design keeps serving while the victim is open.
  EXPECT_NO_THROW(runtime.batcher().predict(healthy, serve_image(3, shape)).get());
  EXPECT_EQ(healthy->breaker.state(), serve::BreakerState::kClosed);

  // After the cooldown the next request is the half-open probe; the fault
  // budget is spent, so the probe succeeds and the breaker closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_NO_THROW(runtime.batcher().predict(victim, serve_image(4, shape)).get());
  EXPECT_EQ(victim->breaker.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(victim->breaker.opens(), 1u);
  EXPECT_NO_THROW(runtime.batcher().predict(victim, serve_image(5, shape)).get());
  runtime.shutdown();
}

TEST(FailureInjection, ShedsUnderInjectedLatencyThenRecovers) {
  serve::ServingConfig config;
  config.worker_threads = 1;
  config.batcher.max_batch = 64;
  config.batcher.max_wait_us = 60'000'000;
  config.batcher.max_inflight_per_design = 1;
  config.batcher.max_queue_depth = 2;
  serve::ServingRuntime runtime(config);
  const auto design =
      runtime.registry().deploy_random(serve_descriptor("fi_slow"), 1).design;
  const Shape shape = design->net.input_shape();

  // One slow batch: the worker stalls 100 ms in the injected delay while
  // later requests pile into the lane behind the occupied inflight slot.
  runtime.faults().arm("executor.batch",
                       {serve::FaultKind::kLatency, /*rate=*/1.0, /*count=*/1,
                        /*latency_us=*/100'000});
  auto slow = runtime.batcher().predict(design, serve_image(0, shape));
  // Wait until the slow batch is actually executing (it left the waiting set).
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runtime.batcher().waiting() != 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime.batcher().waiting(), 0u);

  auto queued_a = runtime.batcher().predict(design, serve_image(1, shape));
  auto queued_b = runtime.batcher().predict(design, serve_image(2, shape));
  EXPECT_THROW(runtime.batcher().predict(design, serve_image(3, shape)),
               serve::OverloadedError);
  EXPECT_EQ(runtime.metrics().shed.value(), 1u);
  EXPECT_LE(runtime.metrics().queue_depth.peak(), 2u);

  EXPECT_NO_THROW(slow.get());
  EXPECT_NO_THROW(queued_a.get());
  EXPECT_NO_THROW(queued_b.get());
  // Recovered: admission is open again and the queue is drained.
  EXPECT_NO_THROW(runtime.batcher().predict(design, serve_image(4, shape)).get());
  EXPECT_EQ(runtime.batcher().waiting(), 0u);
  runtime.shutdown();
}

TEST(FailureInjection, BackendDispatchFaultTripsBackendScopedBreaker) {
  serve::ServingConfig config;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 500;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown_ms = 100;
  // Serve on the fabric, so every dispatch fault is a failed hand-off to the
  // fabric's one executor thread.
  config.batcher.engine = serve::BackendId::kAccelerator;
  config.batcher.accel_sleep_for_model = false;
  serve::ServingRuntime runtime(config);
  const auto design =
      runtime.registry().deploy_random(serve_descriptor("fi_backend"), 1).design;
  const Shape shape = design->net.input_shape();

  // Fail the next 3 hand-offs to the fabric.
  runtime.faults().arm("backend.dispatch",
                       {serve::FaultKind::kError, /*rate=*/1.0, /*count=*/3});
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(runtime.batcher().predict(design, serve_image(i, shape)).get(),
                 serve::InjectedFault);
  }
  // The design's breaker opened, and the accelerator counted the failures.
  EXPECT_EQ(design->breaker.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(runtime.metrics()
                .backend[serve::backend_index(serve::BackendId::kAccelerator)]
                .errors.value(),
            3u);

  // The quarantined design is unavailable.
  EXPECT_THROW(runtime.batcher().predict(design, serve_image(9, shape)).get(),
               serve::DesignUnavailableError);

  // After the cooldown the half-open probe dispatches (the fault budget is
  // spent), succeeds, and closes the breaker again.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_NO_THROW(runtime.batcher().predict(design, serve_image(4, shape)).get());
  EXPECT_EQ(design->breaker.state(), serve::BreakerState::kClosed);
  runtime.shutdown();
}

TEST(FailureInjection, InjectedLatencyExpiresDeadlinedRequest) {
  serve::ServingConfig config;
  config.worker_threads = 2;
  serve::ServingRuntime runtime(config);
  const auto design =
      runtime.registry().deploy_random(serve_descriptor("fi_exp"), 1).design;
  const Shape shape = design->net.input_shape();

  runtime.faults().arm("executor.batch",
                       {serve::FaultKind::kLatency, /*rate=*/1.0, /*count=*/1,
                        /*latency_us=*/50'000});
  auto doomed = runtime.batcher().predict(
      design, serve_image(0, shape),
      serve::Batcher::Clock::now() + std::chrono::milliseconds(10));
  EXPECT_THROW(doomed.get(), serve::DeadlineExceededError);
  EXPECT_EQ(runtime.metrics().expired.value(), 1u);
  EXPECT_EQ(design->served.load(), 0u);
  // The drop is not an execution failure: the breaker records no verdict.
  EXPECT_EQ(design->breaker.state(), serve::BreakerState::kClosed);
  EXPECT_NO_THROW(runtime.batcher().predict(design, serve_image(1, shape)).get());
  runtime.shutdown();
}

TEST(FailureInjection, AllocFaultsSurfaceCleanlyAndHeal) {
  serve::ServingRuntime runtime;
  runtime.faults().arm("registry.deploy",
                       {serve::FaultKind::kAlloc, /*rate=*/1.0, /*count=*/1});
  const core::NetworkDescriptor descriptor = serve_descriptor("fi_alloc");
  EXPECT_THROW(runtime.registry().deploy_random(descriptor, 1), std::bad_alloc);
  EXPECT_EQ(runtime.registry().size(), 0u);  // no half-built state
  // Budget spent: the same deploy now succeeds.
  const auto design = runtime.registry().deploy_random(descriptor, 1).design;
  ASSERT_NE(design, nullptr);
  EXPECT_EQ(runtime.registry().size(), 1u);

  runtime.faults().arm("batcher.enqueue",
                       {serve::FaultKind::kAlloc, /*rate=*/1.0, /*count=*/1});
  const Shape shape = design->net.input_shape();
  EXPECT_THROW(runtime.batcher().predict(design, serve_image(0, shape)),
               std::bad_alloc);
  EXPECT_NO_THROW(runtime.batcher().predict(design, serve_image(1, shape)).get());
  runtime.shutdown();
}

TEST(FailureInjection, OverloadHammerKeepsQueueBoundedAndDeadlockFree) {
  // 8 threads flood a capped queue far faster than 2 workers drain it. Every
  // request must resolve to exactly one of {served, shed, expired}, the
  // admission gauge must never exceed the cap, and the runtime must come out
  // the other side serving normally.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 40;
  constexpr std::size_t kCap = 16;

  serve::ServingConfig config;
  config.worker_threads = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 200;
  config.batcher.max_queue_depth = kCap;
  serve::ServingRuntime runtime(config);
  const auto design =
      runtime.registry().deploy_random(serve_descriptor("fi_hammer"), 1).design;
  const Shape shape = design->net.input_shape();

  std::atomic<std::size_t> ok{0}, shed{0}, expired{0}, unexpected{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        try {
          runtime.batcher()
              .predict(design, serve_image(t * kPerThread + i, shape),
                       serve::Batcher::Clock::now() + std::chrono::seconds(5))
              .get();
          ok.fetch_add(1);
        } catch (const serve::OverloadedError&) {
          shed.fetch_add(1);
        } catch (const serve::DeadlineExceededError&) {
          expired.fetch_add(1);
        } catch (...) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load() + expired.load(), kThreads * kPerThread);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_LE(runtime.metrics().queue_depth.peak(), kCap);
  EXPECT_EQ(runtime.metrics().shed.value(), shed.load());

  // Post-overload: the queue drained and a fresh request serves normally.
  EXPECT_NO_THROW(runtime.batcher().predict(design, serve_image(0, shape)).get());
  EXPECT_EQ(runtime.batcher().waiting(), 0u);
  EXPECT_EQ(design->breaker.state(), serve::BreakerState::kClosed);
  runtime.shutdown();
}
