// Serving-runtime benchmark: what batching, the deployed-design registry and
// the reentrant ExecutionContext engine buy under load.
//
//   1. Predict throughput, batched vs. unbatched. C concurrent clients each
//      keep a pipeline of requests in flight against one deployed design
//      (open loop — the regime a loaded server sees). Unbatched:
//      max_batch = 1, so every image is its own accelerator invocation — a
//      blocking DMA driver round trip on the deployment hardware — and pays
//      the full queue/wake/dispatch chain on the host. Batched: max_batch = 8,
//      so concurrent requests coalesce into one scatter-gather invocation
//      that pipelines through the DATAFLOW core at the initiation interval
//      and amortizes both driver and dispatch overhead across the batch.
//      Two throughputs are reported per mode: the modeled deployed
//      accelerator (axi::BlockDesign timing, deterministic) and the host
//      functional pipeline (wall clock, scheduling-noise sensitive).
//      Every prediction is checked bit-for-bit against a sequential
//      ExecutionContext reference on the same kernel engine while measuring —
//      throughput with wrong answers is not throughput.
//   2. Worker scaling on the paper's Test-2 USPS network. With the per-design
//      execution lock gone, one design runs as many concurrent batches as the
//      executor has workers; host throughput at 1 vs. 4 workers shows it.
//      (The ratio only materializes when the machine has the cores: on boxes
//      with < 4 hardware threads it is reported but not gated.)
//   3. Closed-loop request latency, scalar engine vs SIMD engine, on the
//      Test-4 CIFAR network. Each client keeps one predict in flight; p50/p95
//      per-request latency with the design pinned to the scalar kernel engine
//      (the pre-kernel-engine serving baseline) vs the AVX2 fused-batch
//      engine. Gated: SIMD p50 must be >= 2x better where AVX2 exists.
//   4. Deploy latency, registry miss vs. hit. A miss builds the network and
//      analyzes it (validate, HLS estimate, fit warnings; no C++ or tcl is
//      emitted); a hit returns the resident instance.
//   5. (--overload) Overload behavior. 16 flood threads push the HTTP predict
//      handler against a queue capped at 64: sheds must answer 429 with
//      Retry-After immediately (max reject latency is gated — the accept path
//      never blocks), the admission gauge must never exceed the cap (bounded
//      memory), and post-flood throughput must recover to >= 95% of the
//      pre-flood baseline on the same runtime.
//   6. (--sharded) Multi-process scaling through the shard router. Three
//      scalar-pinned worker processes (this binary in --worker mode) are
//      launched: one serves as the single-process baseline fleet, two as the
//      sharded fleet. Four CIFAR designs — chosen offline with the same
//      consistent-hash ring the router uses so each fleet worker is primary
//      for exactly two — are deployed through both routers, then the same
//      closed-loop keep-alive client load rotates across them against each
//      fleet. Both measurements traverse the
//      identical router -> persistent-HTTP -> worker path, so the ratio
//      isolates what the second worker PROCESS buys. Every routed logit is
//      checked bit-for-bit against a local scalar reference. Gated: >= 1.7x
//      on hosts with >= 4 hardware threads (two 2-thread workers need the
//      cores to actually run concurrently); reported with a printed waiver
//      below that.
//   7. (--chaos) Crash-safety drill. Three SUPERVISED worker processes behind
//      a journaled router absorb rotating SIGKILLs under closed-loop load
//      (the supervisor restarts each victim on its reserved port; catalog
//      repair refills it), then the router itself is destroyed and rebuilt
//      twice from nothing but the deploy journal — once clean, once with a
//      deliberately torn tail appended to the log. Gated: every kill produces
//      a restart, the soak error rate stays <= 10% with ZERO logit
//      mismatches, the clean replay recovers all designs with zero truncation
//      events, the torn replay recovers all fully-written records and
//      REPORTS >= 1 truncation event, and every drill ends with every design
//      answering bit-exact.
//
// `--quick` shrinks the request streams for CI smoke runs. Any flag a mode
// does not read is refused, naming it, before anything is measured.
//
// Emits a human-readable table plus one machine-readable line:
//   SERVING_JSON {...}
// and writes that same JSON object to BENCH_serving.json (override the path
// with --out <path>) so CI archives a parseable file, not a captured table.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/base64.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::NetworkDescriptor serving_descriptor(const std::string& name) {
  // Small USPS-style network: per-image execution is a few microseconds, the
  // regime where dispatch overhead — the thing batching amortizes — matters.
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

struct Throughput {
  double host_ips = 0.0;   ///< wall-clock images/s through the host pipeline
  double accel_ips = 0.0;  ///< images/s of the modeled deployed accelerator
  std::size_t mismatches = 0;  ///< predictions differing from the reference
};

/// Throughput of `clients` concurrent open-loop request streams against one
/// deployed design on `workers` executor threads, with every result verified
/// bit-for-bit against a sequential infer() on the same kernel engine.
Throughput measure_throughput(const core::NetworkDescriptor& descriptor,
                              std::size_t max_batch, std::size_t workers,
                              std::size_t clients, std::size_t per_client) {
  serve::ServeMetrics metrics;
  serve::DesignRegistry registry(4, &metrics);
  serve::Executor executor(workers);
  serve::Batcher batcher(executor, {max_batch, /*max_wait_us=*/200}, &metrics);
  const auto design = registry.deploy_random(descriptor, 1).design;

  // Per-client image plus its reference scores through a sequential
  // ExecutionContext on the same kernel engine the design pool runs
  // (scalar-pinned contexts are bit-exact with the seed forward(); avx2
  // contexts run the SIMD engine, and fused batches are bit-identical to
  // per-image infer — so serving must match this reference bit-for-bit
  // either way).
  nn::Network reference = descriptor.build_network();
  nn::deserialize_weights(reference, design->weights);
  nn::ExecutionContext ref_ctx(reference);
  std::vector<tensor::Tensor> images;
  std::vector<tensor::Tensor> expected;
  for (std::size_t i = 0; i < clients; ++i) {
    tensor::Tensor image{design->net.input_shape()};
    util::Rng rng(100 + i);
    image.fill_uniform(rng, -1.0f, 1.0f);
    expected.push_back(reference.infer(image, ref_ctx));
    images.push_back(std::move(image));
  }

  // Warm-up: touch every code path once.
  batcher.predict(design, images[0]).get();

  std::vector<std::size_t> client_mismatches(clients, 0);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Open loop: submit the full stream, then drain. The batcher sees
      // sustained load instead of lock-step waves, and fulfilled futures
      // with no blocked waiter cost no wake-up.
      std::vector<std::future<serve::Prediction>> stream;
      stream.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        stream.push_back(batcher.predict(design, images[c]));
      }
      for (auto& future : stream) {
        const serve::Prediction prediction = future.get();
        const tensor::Tensor& want = expected[c];
        if (prediction.logits.size() != want.size()) {
          ++client_mismatches[c];
          continue;
        }
        for (std::size_t k = 0; k < want.size(); ++k) {
          const float ref = want[k];
          if (std::memcmp(&prediction.logits[k], &ref, sizeof(float)) != 0) {
            ++client_mismatches[c];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = seconds_since(start);
  batcher.shutdown();
  executor.shutdown();

  Throughput out;
  out.host_ips = static_cast<double>(clients * per_client) / elapsed;
  for (const std::size_t m : client_mismatches) out.mismatches += m;
  // Modeled accelerator throughput: every image the batcher served (including
  // warm-up) over the summed per-invocation model times it recorded.
  const double accel_busy_s = static_cast<double>(metrics.accel_us.sum()) * 1e-6;
  const auto total_images = static_cast<double>(metrics.predictions.value());
  out.accel_ips = total_images / accel_busy_s;
  return out;
}

struct LatencyResult {
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// Closed-loop per-request latency through the batcher: `clients` threads each
/// keep exactly ONE predict in flight, so the percentiles measure the request
/// path itself (enqueue, batch fuse, kernel engine, future wake) rather than
/// queueing backlog. `engine` pins the kernel engine the deployed design's
/// context pool captures at deploy time — running it once with kScalar and
/// once with the SIMD engine isolates what the kernel/batch-fusion work buys
/// a latency-sensitive client.
LatencyResult measure_latency(const core::NetworkDescriptor& descriptor,
                              nn::kernels::Kind engine, std::size_t clients,
                              std::size_t per_client,
                              nn::ServePrecision precision = nn::ServePrecision::kFloat32) {
  serve::ServeMetrics metrics;
  serve::DesignRegistry registry(2, &metrics);
  serve::Executor executor(2);
  serve::Batcher batcher(executor, {/*max_batch=*/8, /*max_wait_us=*/200}, &metrics);
  std::shared_ptr<serve::DeployedDesign> design;
  {
    // The design's ExecutionContextPool resolves the active engine once, in
    // its constructor — pinning here pins every batch served on this design.
    nn::kernels::ScopedKernelOverride pin(engine);
    design = registry.deploy_random(descriptor, 1, precision).design;
  }

  std::vector<tensor::Tensor> images;
  for (std::size_t c = 0; c < clients; ++c) {
    tensor::Tensor image{design->net.input_shape()};
    util::Rng rng(500 + c);
    image.fill_uniform(rng, -1.0f, 1.0f);
    images.push_back(std::move(image));
  }
  batcher.predict(design, images[0]).get();  // warm-up

  std::vector<std::vector<double>> per_thread(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_thread[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto start = Clock::now();
        batcher.predict(design, images[c]).get();
        per_thread[c].push_back(seconds_since(start) * 1e6);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  batcher.shutdown();
  executor.shutdown();

  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LatencyResult out;
  out.p50_us = all[all.size() / 2];
  out.p95_us = all[(all.size() * 95) / 100];
  return out;
}

struct OverloadResult {
  std::size_t cap = 0;            ///< max_queue_depth the runtime ran with
  std::size_t served = 0;         ///< 200s during the flood
  std::size_t shed = 0;           ///< 429s during the flood
  std::size_t retry_after = 0;    ///< 429s carrying a Retry-After header
  double max_reject_ms = 0.0;     ///< slowest 429 (shedding must not block)
  std::uint64_t queue_peak = 0;   ///< admission-gauge high water vs the cap
  double baseline_ips = 0.0;      ///< host throughput before the flood
  double recovered_ips = 0.0;     ///< host throughput after the flood
};

/// Open-loop stream of `clients` x `per_client` predicts through `runtime`'s
/// batcher; returns host images/s. Used before and after the flood so the
/// recovery ratio compares like with like on the same runtime.
double runtime_throughput(serve::ServingRuntime& runtime,
                          const std::shared_ptr<serve::DeployedDesign>& design,
                          const tensor::Tensor& image, std::size_t clients,
                          std::size_t per_client) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<std::future<serve::Prediction>> stream;
      stream.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        try {
          stream.push_back(runtime.batcher().predict(design, image));
        } catch (const serve::OverloadedError&) {
          // Closed-loop retry after a shed keeps the measurement honest.
          --i;
          std::this_thread::yield();
        }
      }
      for (auto& future : stream) future.get();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return static_cast<double>(clients * per_client) / seconds_since(start);
}

/// Flood a bounded-admission runtime with more threads than it can drain and
/// record how it sheds: every rejection must be immediate (never a blocking
/// enqueue), carry Retry-After, and leave the queue gauge under the cap. The
/// flood is closed-loop (one blocking HTTP predict per thread), so the cap is
/// set below the thread count to make the admission bound actually bind.
OverloadResult measure_overload(const core::NetworkDescriptor& descriptor, bool quick) {
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kFloodThreads = 16;

  serve::ServingConfig config;
  config.worker_threads = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 200;
  config.batcher.max_queue_depth = kCap;
  serve::ServingRuntime runtime(config);
  const auto design = runtime.registry().deploy_random(descriptor, 1).design;

  tensor::Tensor image{design->net.input_shape()};
  util::Rng rng(42);
  image.fill_uniform(rng, -1.0f, 1.0f);
  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  json::Object body;
  body["design_id"] = design->id;
  body["image_base64"] = util::base64_encode(raw);
  web::HttpRequest request;
  request.body = json::Value(std::move(body)).dump();

  OverloadResult out;
  out.cap = kCap;
  const std::size_t measure_clients = 8;
  const std::size_t measure_stream = quick ? 50 : 300;
  out.baseline_ips = runtime_throughput(runtime, design, image, measure_clients,
                                        measure_stream);

  const auto flood_for = std::chrono::milliseconds(quick ? 300 : 1000);
  std::atomic<std::size_t> served{0}, shed{0}, retry_after{0}, other{0};
  std::atomic<std::uint64_t> max_reject_us{0};
  const auto flood_end = Clock::now() + flood_for;
  std::vector<std::thread> flood;
  for (std::size_t t = 0; t < kFloodThreads; ++t) {
    flood.emplace_back([&] {
      while (Clock::now() < flood_end) {
        const auto issued = Clock::now();
        const web::HttpResponse response = runtime.handle_predict(request);
        if (response.status == 200) {
          served.fetch_add(1);
        } else if (response.status == 429) {
          shed.fetch_add(1);
          if (response.headers.count("Retry-After") != 0) retry_after.fetch_add(1);
          const auto reject_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - issued)
                  .count());
          std::uint64_t seen = max_reject_us.load();
          while (reject_us > seen && !max_reject_us.compare_exchange_weak(seen, reject_us)) {
          }
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : flood) thread.join();
  if (other.load() != 0) {
    std::fprintf(stderr, "overload: %zu unexpected non-200/429 responses\n", other.load());
  }
  out.served = served.load();
  out.shed = shed.load();
  out.retry_after = retry_after.load();
  out.max_reject_ms = static_cast<double>(max_reject_us.load()) / 1000.0;
  out.queue_peak = runtime.metrics().queue_depth.peak();

  out.recovered_ips = runtime_throughput(runtime, design, image, measure_clients,
                                         measure_stream);
  runtime.shutdown();
  return out;
}

struct DeployLatency {
  double miss_us = 0.0;
  double hit_us = 0.0;
};

DeployLatency measure_deploy(std::size_t rounds) {
  serve::DesignRegistry registry(rounds + 1);
  DeployLatency out;
  for (std::size_t i = 0; i < rounds; ++i) {
    // Unique name => unique descriptor JSON => registry miss.
    const core::NetworkDescriptor descriptor =
        serving_descriptor(util::format("bench_deploy_%zu", i));
    auto start = Clock::now();
    const auto miss = registry.deploy_random(descriptor, 1);
    out.miss_us += seconds_since(start) * 1e6;
    if (miss.cache_hit) std::fprintf(stderr, "unexpected cache hit on fresh deploy\n");

    start = Clock::now();
    const auto hit = registry.deploy_random(descriptor, 1);
    out.hit_us += seconds_since(start) * 1e6;
    if (!hit.cache_hit) std::fprintf(stderr, "unexpected miss on repeat deploy\n");
  }
  out.miss_us /= static_cast<double>(rounds);
  out.hit_us /= static_cast<double>(rounds);
  return out;
}

struct ShardedResult {
  std::size_t workers = 2;         ///< worker processes in the sharded fleet
  std::size_t worker_threads = 2;  ///< executor threads per worker process
  std::size_t designs = 0;         ///< CIFAR designs deployed (target: 4)
  double baseline_ips = 0.0;       ///< closed loop through router -> 1 worker
  double sharded_ips = 0.0;        ///< closed loop through router -> 2 workers
  double scaling = 0.0;
  std::size_t mismatches = 0;        ///< non-200s + logits differing from reference
  std::uint64_t key_mismatches = 0;  ///< router key != worker design_id (must be 0)
  bool deploy_ok = true;
};

/// --worker mode (the launch protocol of shard/process.hpp): a full serving
/// runtime, scalar-pinned so both fleets are CPU-bound on the same engine and
/// the scaling ratio measures process parallelism (and so routed logits stay
/// bit-exact with the scalar reference). Binds the port the parent holds
/// reserved, and lives until the parent closes the control socket.
int shard_worker_main(int port, int control_fd) {
  nn::kernels::ScopedKernelOverride pin(nn::kernels::Kind::kScalar);
  serve::ServingConfig config;
  config.worker_threads = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 200;
  serve::ServingRuntime runtime(config);
  web::ServerConfig server_config;
  server_config.reuse_port = true;
  web::HttpServer server(server_config);
  serve::install_serve_api(server, runtime);
  try {
    server.start(port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker on port %d failed to start: %s\n", port, e.what());
    return 1;
  }
  serve::shard::report_ready_and_wait(control_fd);
  server.stop();
  return 0;
}

/// Launch `count` shard workers, each on its own reserved port. Empty if any
/// of them did not come up (the ones that did are stopped).
std::vector<std::unique_ptr<serve::shard::ProcessLauncher>> launch_shard_workers(
    std::size_t count) {
  std::vector<std::unique_ptr<serve::shard::ProcessLauncher>> workers;
  for (std::size_t i = 0; i < count; ++i) {
    workers.push_back(std::make_unique<serve::shard::ProcessLauncher>(
        serve::shard::ReservedPort::reserve(), std::vector<std::string>{}, 30000));
    if (!workers.back()->start()) {
      std::fprintf(stderr, "shard worker %zu did not become ready\n", i);
      return {};
    }
  }
  return workers;
}

/// Closed-loop throughput through a router: `clients` threads each keep one
/// predict in flight, rotating across the deployed designs so every fleet
/// worker sees traffic for the designs it is primary for. Every response is
/// parsed and its logits compared bit-for-bit against the local reference.
double shard_throughput(serve::shard::Router& router,
                        const std::vector<std::string>& predict_bodies,
                        const std::vector<tensor::Tensor>& expected,
                        std::size_t clients, std::size_t per_client,
                        std::size_t* mismatches) {
  std::vector<std::size_t> errs(clients, 0);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      web::HttpRequest request;
      request.method = "POST";
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t d = (c + i) % predict_bodies.size();
        request.body = predict_bodies[d];
        const web::HttpResponse response = router.handle_predict(request);
        if (response.status != 200) {
          ++errs[c];
          continue;
        }
        try {
          const auto doc = json::parse(response.body);
          const auto& logits = doc.at("logits").as_array();
          const tensor::Tensor& want = expected[d];
          if (logits.size() != want.size()) {
            ++errs[c];
            continue;
          }
          for (std::size_t k = 0; k < want.size(); ++k) {
            const float got = static_cast<float>(logits[k].as_double());
            const float ref = want[k];
            if (std::memcmp(&got, &ref, sizeof(float)) != 0) {
              ++errs[c];
              break;
            }
          }
        } catch (const std::exception&) {
          ++errs[c];  // unparsable body or missing logits: not a prediction
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = seconds_since(start);
  for (const std::size_t e : errs) *mismatches += e;
  return static_cast<double>(clients * per_client) / elapsed;
}

/// The --sharded duel: the same closed-loop CIFAR load through the shard
/// router against a 1-worker fleet and a 2-worker fleet.
ShardedResult measure_sharded(bool quick) {
  ShardedResult out;
  constexpr std::size_t kFleet = 2;
  constexpr std::size_t kDesigns = 4;
  constexpr std::size_t kShardClients = 8;
  const std::size_t per_client = quick ? 25 : 120;

  // workers[0] is the baseline fleet's lone worker, workers[1..2] the
  // sharded fleet.
  const auto workers = launch_shard_workers(1 + kFleet);
  if (workers.empty()) {
    out.deploy_ok = false;
    return out;
  }

  // Pick four CIFAR designs whose content keys split 2+2 across the sharded
  // fleet's ring (same worker ids + vnode count the router below uses), so
  // the rotating client load keeps both workers busy instead of hashing all
  // four designs onto one.
  serve::shard::HashRing ring;
  for (std::size_t w = 0; w < kFleet; ++w) ring.add(util::format("worker-%zu", w));
  std::vector<std::string> deploy_bodies;
  std::vector<core::NetworkDescriptor> descriptors;
  std::map<std::string, std::size_t> primaries;
  for (int candidate = 0; deploy_bodies.size() < kDesigns && candidate < 64; ++candidate) {
    core::NetworkDescriptor d = cifar_test4_descriptor();
    d.name = util::format("shard_cifar_%d", candidate);
    json::Value doc = d.to_json();
    doc.as_object()["seed"] = 1;
    const std::string body = doc.dump();
    web::HttpResponse error;
    const auto key = serve::shard::compute_design_key(body, &error);
    if (!key) continue;
    if (primaries[ring.primary(*key)] >= kDesigns / kFleet) continue;
    ++primaries[ring.primary(*key)];
    deploy_bodies.push_back(body);
    descriptors.push_back(std::move(d));
  }
  out.designs = deploy_bodies.size();
  if (out.designs != kDesigns) {
    std::fprintf(stderr, "sharded: only balanced %zu of %zu designs\n", out.designs,
                 kDesigns);
    out.deploy_ok = false;
  }

  // Two fleets behind identical router plumbing; a deploy builds and
  // analyzes the design in each worker, so give it headroom.
  serve::shard::RouterConfig baseline_config;
  baseline_config.replication = 1;
  baseline_config.worker.client.read_timeout_ms = 60000;
  serve::shard::Router baseline(baseline_config);
  baseline.add_worker("worker-0", "127.0.0.1", workers[0]->port());

  serve::shard::RouterConfig fleet_config;
  fleet_config.replication = 2;
  fleet_config.worker.client.read_timeout_ms = 60000;
  serve::shard::Router fleet(fleet_config);
  for (std::size_t w = 0; w < kFleet; ++w) {
    fleet.add_worker(util::format("worker-%zu", w), "127.0.0.1", workers[1 + w]->port());
  }

  // Deploy through both routers and build the local scalar reference: the
  // registry expands a seed deploy as build_network + init_weights(Rng(seed)),
  // so the same expansion here must produce bit-identical logits end to end.
  // Images travel as base64 of the raw floats — no text round trip to excuse
  // a mismatch.
  std::vector<std::string> predict_bodies;
  std::vector<tensor::Tensor> expected;
  nn::kernels::ScopedKernelOverride pin(nn::kernels::Kind::kScalar);
  for (std::size_t d = 0; d < deploy_bodies.size(); ++d) {
    web::HttpRequest request;
    request.method = "POST";
    request.body = deploy_bodies[d];
    const web::HttpResponse fleet_response = fleet.handle_deploy(request);
    const web::HttpResponse baseline_response = baseline.handle_deploy(request);
    if (fleet_response.status != 200 || baseline_response.status != 200) {
      std::fprintf(stderr, "sharded: deploy %zu failed (fleet %d, baseline %d)\n", d,
                   fleet_response.status, baseline_response.status);
      out.deploy_ok = false;
      continue;
    }
    const std::string design_id =
        json::parse(fleet_response.body).at("design_id").as_string();

    nn::Network net = descriptors[d].build_network();
    util::Rng weight_rng(1);
    net.init_weights(weight_rng);
    nn::ExecutionContext ctx(net);
    tensor::Tensor image{net.input_shape()};
    util::Rng image_rng(4000 + d);
    image.fill_uniform(image_rng, -1.0f, 1.0f);
    expected.push_back(net.infer(image, ctx));

    std::vector<std::uint8_t> raw(image.size() * sizeof(float));
    std::memcpy(raw.data(), image.data(), raw.size());
    json::Object predict;
    predict["design_id"] = design_id;
    predict["image_base64"] = util::base64_encode(raw);
    predict_bodies.push_back(json::Value(std::move(predict)).dump());
  }

  if (out.deploy_ok && !predict_bodies.empty()) {
    // Warm-up: touch every design on both fleets once (context pools, weight
    // packs, keep-alive connections) before the clock starts.
    std::size_t warm_errs = 0;
    shard_throughput(baseline, predict_bodies, expected, 1, predict_bodies.size(),
                     &warm_errs);
    shard_throughput(fleet, predict_bodies, expected, 1, predict_bodies.size(), &warm_errs);
    out.mismatches += warm_errs;

    out.baseline_ips = shard_throughput(baseline, predict_bodies, expected, kShardClients,
                                        per_client, &out.mismatches);
    out.sharded_ips = shard_throughput(fleet, predict_bodies, expected, kShardClients,
                                       per_client, &out.mismatches);
    out.scaling = out.sharded_ips / out.baseline_ips;
  }
  out.key_mismatches = fleet.key_mismatches() + baseline.key_mismatches();
  return out;
}

struct ChaosResult {
  std::size_t workers = 3;        ///< supervised worker processes
  std::size_t designs = 0;        ///< designs deployed through the journaled router
  std::size_t kills = 0;          ///< SIGKILLs delivered during the soak
  std::uint64_t restarts = 0;     ///< supervisor restarts observed
  std::size_t soak_requests = 0;  ///< predicts issued while workers were dying
  std::size_t soak_errors = 0;    ///< non-200 answers during the soak
  std::size_t mismatches = 0;     ///< 200s whose logits differ from the reference
  std::size_t recovered = 0;      ///< designs a fresh router replayed from the journal
  std::uint64_t clean_truncated = 0;  ///< journal truncation events on the clean replay
  std::size_t torn_recovered = 0;     ///< designs recovered after a torn tail
  std::uint64_t torn_truncated = 0;   ///< truncation events reported for the torn tail
  bool deploy_ok = true;
  bool soak_healed = false;  ///< every design answered bit-exact after the soak
  bool ok = false;
};

/// Predicts every design once through `router`, retrying each design until it
/// answers 200 (crash repair may still be in flight) up to `deadline_ms`.
/// Returns the number of designs that never answered a bit-exact 200.
std::size_t chaos_settle(serve::shard::Router& router,
                         const std::vector<std::string>& predict_bodies,
                         const std::vector<tensor::Tensor>& expected, int deadline_ms,
                         std::size_t* mismatches) {
  std::size_t failed = 0;
  for (std::size_t d = 0; d < predict_bodies.size(); ++d) {
    const auto give_up = Clock::now() + std::chrono::milliseconds(deadline_ms);
    web::HttpRequest request;
    request.method = "POST";
    request.body = predict_bodies[d];
    bool answered = false;
    while (Clock::now() < give_up) {
      const web::HttpResponse response = router.handle_predict(request);
      if (response.status != 200) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      answered = true;
      try {
        const auto doc = json::parse(response.body);
        const auto& logits = doc.at("logits").as_array();
        const tensor::Tensor& want = expected[d];
        bool exact = logits.size() == want.size();
        for (std::size_t k = 0; exact && k < want.size(); ++k) {
          const float got = static_cast<float>(logits[k].as_double());
          const float ref = want[k];
          exact = std::memcmp(&got, &ref, sizeof(float)) == 0;
        }
        if (!exact) ++*mismatches;
      } catch (const std::exception&) {
        ++*mismatches;
      }
      break;
    }
    if (!answered) ++failed;
  }
  return failed;
}

/// The --chaos drill (see DESIGN.md "Crash recovery and durability"): a
/// journaled router over three SUPERVISED workers absorbs SIGKILLs under
/// closed-loop load, then the router itself is torn down and rebuilt from the
/// journal — twice, the second time with a deliberately torn journal tail.
ChaosResult measure_chaos(bool quick) {
  ChaosResult out;
  constexpr std::size_t kFleet = 3;
  constexpr std::size_t kDesigns = 4;
  constexpr std::size_t kClients = 4;
  const std::size_t kills_target = quick ? 2 : 4;
  const std::string journal_path = "bench_chaos_journal.log";
  std::remove(journal_path.c_str());

  // Each worker's port stays reserved for the whole drill, so a restarted
  // worker comes back at the address the routers know.
  auto workers = launch_shard_workers(kFleet);
  if (workers.empty()) {
    out.deploy_ok = false;
    return out;
  }
  serve::shard::SupervisorConfig supervisor_config;
  supervisor_config.backoff_initial_ms = 100;
  supervisor_config.backoff_max_ms = 500;
  supervisor_config.restart_budget = 0;  // the soak kills on purpose; no budget
  serve::shard::Supervisor supervisor(supervisor_config);
  std::vector<serve::shard::ProcessLauncher*> launchers;
  for (std::size_t i = 0; i < kFleet; ++i) {
    launchers.push_back(workers[i].get());
    supervisor.add_slot(util::format("worker-%zu", i), std::move(workers[i]));
  }

  const auto make_router = [&](bool expect_journal_ok) {
    serve::shard::RouterConfig config;
    config.replication = 2;
    config.worker.client.read_timeout_ms = 60000;
    config.probe_interval_ms = 50;  // restarts and ring repair inside the soak window
    config.journal_path = journal_path;
    auto router = std::make_unique<serve::shard::Router>(config);
    (void)expect_journal_ok;
    for (std::size_t w = 0; w < kFleet; ++w) {
      router->add_worker(util::format("worker-%zu", w), "127.0.0.1", launchers[w]->port());
    }
    return router;
  };

  auto router = make_router(true);
  router->attach_supervisor(&supervisor);
  router->start_probing();

  // Deploy kDesigns tiny designs (journal-before-ack) and build the local
  // scalar reference for bit-exact checks, same recipe as the sharded duel.
  std::vector<std::string> predict_bodies;
  std::vector<tensor::Tensor> expected;
  nn::kernels::ScopedKernelOverride pin(nn::kernels::Kind::kScalar);
  for (std::size_t d = 0; d < kDesigns; ++d) {
    core::NetworkDescriptor descriptor =
        serving_descriptor(util::format("chaos_design_%zu", d));
    json::Value doc = descriptor.to_json();
    doc.as_object()["seed"] = 1;
    web::HttpRequest request;
    request.method = "POST";
    request.body = doc.dump();
    const web::HttpResponse response = router->handle_deploy(request);
    if (response.status != 200) {
      std::fprintf(stderr, "chaos: deploy %zu failed (%d)\n", d, response.status);
      out.deploy_ok = false;
      continue;
    }
    const std::string design_id = json::parse(response.body).at("design_id").as_string();

    nn::Network net = descriptor.build_network();
    util::Rng weight_rng(1);
    net.init_weights(weight_rng);
    nn::ExecutionContext ctx(net);
    tensor::Tensor image{net.input_shape()};
    util::Rng image_rng(7000 + d);
    image.fill_uniform(image_rng, -1.0f, 1.0f);
    expected.push_back(net.infer(image, ctx));

    std::vector<std::uint8_t> raw(image.size() * sizeof(float));
    std::memcpy(raw.data(), image.data(), raw.size());
    json::Object predict;
    predict["design_id"] = design_id;
    predict["image_base64"] = util::base64_encode(raw);
    predict_bodies.push_back(json::Value(std::move(predict)).dump());
  }
  out.designs = predict_bodies.size();
  if (out.designs != kDesigns) out.deploy_ok = false;

  // Soak: closed-loop clients keep predicting while the main thread SIGKILLs
  // a rotating worker and lets the supervisor resurrect it. Replication 2 of
  // 3 means one dead worker always leaves a live replica, so failover should
  // keep the error rate low (bounded by the gate below, not zero: a predict
  // already in flight INTO the dying socket is allowed to fail).
  if (out.deploy_ok) {
    std::atomic<bool> stop{false};
    std::vector<std::size_t> errs(kClients, 0);
    std::vector<std::size_t> bad(kClients, 0);
    std::vector<std::size_t> sent(kClients, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        web::HttpRequest request;
        request.method = "POST";
        for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const std::size_t d = (c + i) % predict_bodies.size();
          request.body = predict_bodies[d];
          const web::HttpResponse response = router->handle_predict(request);
          ++sent[c];
          if (response.status != 200) {
            ++errs[c];
            continue;
          }
          try {
            const auto doc = json::parse(response.body);
            const auto& logits = doc.at("logits").as_array();
            const tensor::Tensor& want = expected[d];
            bool exact = logits.size() == want.size();
            for (std::size_t k = 0; exact && k < want.size(); ++k) {
              const float got = static_cast<float>(logits[k].as_double());
              const float ref = want[k];
              exact = std::memcmp(&got, &ref, sizeof(float)) == 0;
            }
            if (!exact) ++bad[c];
          } catch (const std::exception&) {
            ++bad[c];
          }
        }
      });
    }
    for (std::size_t kill = 0; kill < kills_target; ++kill) {
      std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 300 : 600));
      launchers[kill % kFleet]->kill_now();
      ++out.kills;
      // Give the supervisor room to notice, back off, and restart before the
      // next murder; the load keeps running the whole time.
      std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 700 : 1200));
    }
    stop.store(true);
    for (std::thread& client : clients) client.join();
    for (std::size_t c = 0; c < kClients; ++c) {
      out.soak_requests += sent[c];
      out.soak_errors += errs[c];
      out.mismatches += bad[c];
    }
    // After the dust settles every design must answer bit-exact again, and
    // every kill must have produced a restart (the last one may still be in
    // backoff; the router's prober keeps ticking the supervisor while we wait).
    out.soak_healed =
        chaos_settle(*router, predict_bodies, expected, 20000, &out.mismatches) == 0;
    const auto restart_deadline = Clock::now() + std::chrono::seconds(15);
    while (supervisor.restarts() < out.kills && Clock::now() < restart_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    out.restarts = supervisor.restarts();
  }

  // Router crash drill: tear the router down, SIGKILL the whole fleet, then
  // rebuild a router from nothing but the journal. recover() replays the
  // catalog; the supervisor resurrects workers; predict-driven repair refills
  // them. Every design must come back bit-exact with zero truncation.
  if (out.deploy_ok) {
    router->stop_probing();
    router.reset();  // releases the journal before the successor replays it
    for (auto* launcher : launchers) launcher->kill_now();
    router = make_router(true);
    out.recovered = router->recover();
    out.clean_truncated = router->journal()->truncated_records();
    router->attach_supervisor(&supervisor);
    router->start_probing();
    out.soak_healed =
        out.soak_healed &&
        chaos_settle(*router, predict_bodies, expected, 30000, &out.mismatches) == 0;
  }

  // Torn-tail drill: append garbage past the last valid record and replay
  // again. Every fully-written record must survive; the cut must be REPORTED.
  if (out.deploy_ok) {
    router->stop_probing();
    router.reset();
    {
      std::ofstream tail(journal_path, std::ios::binary | std::ios::app);
      tail << "\x13\x37GARBAGE-TORN-TAIL";  // bogus length prefix + partial payload
    }
    router = make_router(false);
    out.torn_recovered = router->recover();
    out.torn_truncated = router->journal()->truncated_records();
    router->attach_supervisor(&supervisor);
    router->start_probing();
    out.soak_healed =
        out.soak_healed &&
        chaos_settle(*router, predict_bodies, expected, 30000, &out.mismatches) == 0;
  }

  if (router != nullptr) router->stop_probing();
  router.reset();
  supervisor.stop_all();
  std::remove(journal_path.c_str());

  const double error_rate =
      out.soak_requests > 0
          ? static_cast<double>(out.soak_errors) / static_cast<double>(out.soak_requests)
          : 1.0;
  out.ok = out.deploy_ok && out.designs == kDesigns && out.kills == kills_target &&
           out.restarts >= out.kills && out.mismatches == 0 && out.soak_healed &&
           out.recovered == kDesigns && out.clean_truncated == 0 &&
           out.torn_recovered == kDesigns && out.torn_truncated >= 1 &&
           error_rate <= 0.10;
  return out;
}

/// Refuse any flag the mode does not read (and any bare argument): a
/// misspelled flag would otherwise run another mode and gate it.
bool only_flags(const util::CliArgs& args, std::initializer_list<const char*> known) {
  for (const std::string& name : args.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
  }
  if (!args.positional().empty()) {
    std::fprintf(stderr, "unexpected argument '%s'\n", args.positional().front().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.has("worker")) {
    // The launch protocol of shard/process.hpp; launch_shard_workers adds no
    // flags of its own.
    if (!only_flags(args, {"worker", "port", "control-fd"})) return 1;
    return shard_worker_main(static_cast<int>(args.get_int("port", 0)),
                             static_cast<int>(args.get_int("control-fd", -1)));
  }
  if (!only_flags(args, {"quick", "overload", "sharded", "chaos", "out"})) return 1;
  const bool quick = args.has("quick");
  const bool overload = args.has("overload");
  const bool sharded = args.has("sharded");
  const bool chaos = args.has("chaos");
  const std::string out_path = args.get_string("out", "BENCH_serving.json");
  const std::size_t kClients = 8;
  const std::size_t kPerClient = quick ? 60 : 400;
  const std::size_t kBatch = 8;
  const std::size_t kDeployRounds = quick ? 4 : 20;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::printf("serving runtime benchmark (%zu concurrent clients%s, %u hw threads)\n",
              kClients, quick ? ", --quick" : "", hw_threads);
  std::puts("------------------------------------------------------------------");

  ChaosResult havoc;
  bool chaos_ok = true;
  std::string chaos_json = "false";
  if (chaos) {
    havoc = measure_chaos(quick);
    chaos_ok = havoc.ok;
    const double error_rate =
        havoc.soak_requests > 0
            ? static_cast<double>(havoc.soak_errors) / static_cast<double>(havoc.soak_requests)
            : 1.0;
    std::printf("chaos drill (%zu supervised workers, %zu journaled designs):\n",
                havoc.workers, havoc.designs);
    std::printf("  soak: %zu kills -> %llu restarts; %zu predicts, %zu errors (%.2f%%), "
                "%zu logit mismatches\n",
                havoc.kills, static_cast<unsigned long long>(havoc.restarts),
                havoc.soak_requests, havoc.soak_errors, error_rate * 100.0,
                havoc.mismatches);
    std::printf("  router rebuild from journal: %zu/%zu designs, %llu truncation events\n",
                havoc.recovered, havoc.designs,
                static_cast<unsigned long long>(havoc.clean_truncated));
    std::printf("  torn-tail rebuild: %zu/%zu designs, %llu truncation events (must "
                "be >= 1)\n",
                havoc.torn_recovered, havoc.designs,
                static_cast<unsigned long long>(havoc.torn_truncated));
    std::printf("  healed bit-exact after every drill: %s\n",
                havoc.soak_healed ? "yes" : "NO");
    chaos_json = util::format(
        "{\"workers\": %zu, \"designs\": %zu, \"kills\": %zu, \"restarts\": %llu, "
        "\"soak_requests\": %zu, \"soak_errors\": %zu, \"error_rate\": %.4f, "
        "\"mismatches\": %zu, \"recovered\": %zu, \"journal_truncated_records\": %llu, "
        "\"torn_recovered\": %zu, \"torn_truncated_records\": %llu, "
        "\"healed\": %s, \"ok\": %s}",
        havoc.workers, havoc.designs, havoc.kills,
        static_cast<unsigned long long>(havoc.restarts), havoc.soak_requests,
        havoc.soak_errors, error_rate, havoc.mismatches, havoc.recovered,
        static_cast<unsigned long long>(havoc.clean_truncated), havoc.torn_recovered,
        static_cast<unsigned long long>(havoc.torn_truncated),
        havoc.soak_healed ? "true" : "false", chaos_ok ? "true" : "false");
  }

  ShardedResult shard;
  bool sharded_ok = true;
  std::string sharded_json = "false";
  if (sharded) {
    shard = measure_sharded(quick);
    std::printf("sharded serving, Test-4 CIFAR network (%zu scalar workers x %zu threads, "
                "%zu designs, closed loop):\n",
                shard.workers, shard.worker_threads, shard.designs);
    std::printf("  router -> 1 worker process:   %7.0f images/s\n", shard.baseline_ips);
    std::printf("  router -> %zu worker processes: %7.0f images/s  (%.2fx)\n", shard.workers,
                shard.sharded_ips, shard.scaling);
    std::printf("  bit-exact routed logits: %zu mismatches; router key mismatches: %llu\n",
                shard.mismatches, static_cast<unsigned long long>(shard.key_mismatches));
    // Two 2-thread workers plus the router need the cores to overlap at all;
    // below 4 hardware threads the two fleets time-slice the same core and
    // the ratio reports scheduler behavior, not the architecture.
    const bool shard_capacity_gate = hw_threads >= 4;
    if (!shard_capacity_gate) {
      std::printf("  (%u hw thread%s: 1.7x multi-process scaling gate waived, "
                  "reported only)\n",
                  hw_threads, hw_threads == 1 ? "" : "s");
    }
    sharded_ok = shard.deploy_ok && shard.mismatches == 0 && shard.key_mismatches == 0 &&
                 (!shard_capacity_gate || shard.scaling >= 1.7);
    sharded_json = util::format(
        "{\"workers\": %zu, \"worker_threads\": %zu, \"designs\": %zu, "
        "\"baseline_images_per_s\": %.1f, \"sharded_images_per_s\": %.1f, "
        "\"scaling\": %.3f, \"capacity_gate\": %s, \"bit_exact\": %s, \"ok\": %s}",
        shard.workers, shard.worker_threads, shard.designs, shard.baseline_ips,
        shard.sharded_ips, shard.scaling, shard_capacity_gate ? "true" : "false",
        shard.mismatches == 0 && shard.key_mismatches == 0 ? "true" : "false",
        sharded_ok ? "true" : "false");
  }

  const core::NetworkDescriptor tiny = serving_descriptor("bench_serve");
  const Throughput unbatched = measure_throughput(tiny, 1, 4, kClients, kPerClient);
  const Throughput batched = measure_throughput(tiny, kBatch, 4, kClients, kPerClient);
  const double accel_speedup = batched.accel_ips / unbatched.accel_ips;
  const double host_speedup = batched.host_ips / unbatched.host_ips;
  std::puts("deployed accelerator (modeled, axi::BlockDesign timing):");
  std::printf("  unbatched: %9.0f images/s  (blocking DMA round trip per image)\n",
              unbatched.accel_ips);
  std::printf("  batch=%zu:  %9.0f images/s  (%.2fx, scatter-gather + DATAFLOW)\n", kBatch,
              batched.accel_ips, accel_speedup);
  std::puts("host functional pipeline (wall clock):");
  std::printf("  unbatched: %9.0f images/s\n", unbatched.host_ips);
  std::printf("  batch=%zu:  %9.0f images/s  (%.2fx)\n", kBatch, batched.host_ips,
              host_speedup);

  // Worker scaling on the Test-2 USPS network (heavier per-image work, so the
  // concurrent-batch engine — not dispatch overhead — dominates). max_batch=1:
  // one image per batch makes the available parallelism explicit.
  const core::NetworkDescriptor test2 = usps_test1_descriptor(/*optimize=*/true);
  const std::size_t scale_stream = quick ? 40 : 150;
  const Throughput one_worker = measure_throughput(test2, 1, 1, kClients, scale_stream);
  const Throughput four_workers = measure_throughput(test2, 1, 4, kClients, scale_stream);
  const double worker_scaling = four_workers.host_ips / one_worker.host_ips;
  std::puts("worker scaling, Test-2 USPS network (host wall clock, max_batch=1):");
  std::printf("  1 worker:  %9.0f images/s\n", one_worker.host_ips);
  std::printf("  4 workers: %9.0f images/s  (%.2fx)\n", four_workers.host_ips,
              worker_scaling);
  // Four executor threads can only outrun one where four hardware threads
  // exist; elsewhere (and in --quick runs, where the streams are too short to
  // amortize scheduling noise) the ratio is reported but not gated.
  const bool scaling_gate = hw_threads >= 4 && !quick;
  if (!scaling_gate) {
    std::printf("  (%s: 2x worker-scaling gate waived, reported only)\n",
                hw_threads < 4 ? "fewer than 4 hw threads" : "--quick");
  }
  const std::size_t mismatches = unbatched.mismatches + batched.mismatches +
                                 one_worker.mismatches + four_workers.mismatches;
  std::printf("bit-exactness vs sequential infer(): %zu mismatching values\n", mismatches);

  // Closed-loop p50 on the Test-4 CIFAR network: enough per-image arithmetic
  // (~450k MACs) that the kernel engine, not dispatch overhead, dominates the
  // request path. The scalar-pinned design is the pre-kernel-engine baseline.
  const bool have_avx2 = nn::kernels::avx2_available();
  const core::NetworkDescriptor cifar = cifar_test4_descriptor();
  const std::size_t lat_stream = quick ? 60 : 250;
  const LatencyResult scalar_lat =
      measure_latency(cifar, nn::kernels::Kind::kScalar, kClients, lat_stream);
  LatencyResult simd_lat = scalar_lat;
  LatencyResult int8_lat = scalar_lat;
  double p50_speedup = 1.0;
  double int8_p50_speedup = 1.0;
  if (have_avx2) {
    simd_lat = measure_latency(cifar, nn::kernels::Kind::kAvx2, kClients, lat_stream);
    p50_speedup = scalar_lat.p50_us / simd_lat.p50_us;
    // Same network deployed at int8: the full serving path (batcher, context
    // pool, quantized runner) in the precision a quantized deploy serves.
    int8_lat = measure_latency(cifar, nn::kernels::Kind::kAvx2, kClients, lat_stream,
                               nn::ServePrecision::kInt8);
    int8_p50_speedup = simd_lat.p50_us / int8_lat.p50_us;
  }
  std::puts("closed-loop request latency, Test-4 CIFAR network (8 clients):");
  std::printf("  scalar engine: p50 %9.1f us   p95 %9.1f us\n", scalar_lat.p50_us,
              scalar_lat.p95_us);
  if (have_avx2) {
    std::printf("  avx2 engine:   p50 %9.1f us   p95 %9.1f us  (p50 %.2fx better)\n",
                simd_lat.p50_us, simd_lat.p95_us, p50_speedup);
    std::printf("  avx2 + int8:   p50 %9.1f us   p95 %9.1f us  (p50 %.2fx vs float)\n",
                int8_lat.p50_us, int8_lat.p95_us, int8_p50_speedup);
  } else {
    std::puts("  avx2 engine:   unavailable on this host (scalar is the engine)");
  }

  const DeployLatency deploy = measure_deploy(kDeployRounds);
  const double deploy_speedup = deploy.miss_us / deploy.hit_us;
  std::printf("deploy latency      miss: %9.1f us  (build + analyze)\n",
              deploy.miss_us);
  std::printf("deploy latency      hit:  %9.1f us  (%.0fx faster)\n", deploy.hit_us,
              deploy_speedup);

  OverloadResult flood;
  double recovery_ratio = 1.0;
  bool overload_ok = true;
  if (overload) {
    flood = measure_overload(tiny, quick);
    recovery_ratio = flood.recovered_ips / flood.baseline_ips;
    std::printf("overload (16 flood threads, max_queue_depth=%zu):\n", flood.cap);
    std::printf("  served %zu, shed %zu (%zu with Retry-After)\n", flood.served, flood.shed,
                flood.retry_after);
    std::printf("  max 429 latency: %8.2f ms  (shedding must never block)\n",
                flood.max_reject_ms);
    std::printf("  queue depth peak: %7llu    (cap %zu — bounded memory)\n",
                static_cast<unsigned long long>(flood.queue_peak), flood.cap);
    std::printf("  throughput: baseline %9.0f -> recovered %9.0f images/s (%.3fx)\n",
                flood.baseline_ips, flood.recovered_ips, recovery_ratio);
    overload_ok = flood.shed > 0 && flood.retry_after == flood.shed &&
                  flood.max_reject_ms < 250.0 && flood.queue_peak <= flood.cap;
    // Recovery is a wall-clock ratio: only gate it where scheduling noise is
    // amortized over the full-size streams.
    if (!quick) overload_ok = overload_ok && recovery_ratio >= 0.95;
  }

  const std::string json = util::format(
      "{\"bench\": \"serving\", \"clients\": %zu, \"workers\": 4, "
      "\"batch\": %zu, \"unbatched_images_per_s\": %.1f, \"batched_images_per_s\": %.1f, "
      "\"batching_speedup\": %.3f, \"host_unbatched_images_per_s\": %.1f, "
      "\"host_batched_images_per_s\": %.1f, \"host_speedup\": %.3f, "
      "\"scaling_1_worker_images_per_s\": %.1f, \"scaling_4_workers_images_per_s\": %.1f, "
      "\"worker_scaling\": %.3f, \"scaling_gate\": %s, \"hw_threads\": %u, \"bit_exact\": %s, "
      "\"engine\": \"%s\", \"avx2_available\": %s, "
      "\"latency_p50_scalar_us\": %.1f, \"latency_p95_scalar_us\": %.1f, "
      "\"latency_p50_simd_us\": %.1f, \"latency_p95_simd_us\": %.1f, "
      "\"p50_engine_speedup\": %.3f, "
      "\"latency_p50_int8_us\": %.1f, \"latency_p95_int8_us\": %.1f, "
      "\"int8_p50_speedup_vs_float\": %.3f, "
      "\"deploy_miss_us\": %.1f, \"deploy_hit_us\": %.1f, \"registry_speedup\": %.1f, "
      "\"overload\": %s, \"overload_served\": %zu, \"overload_shed\": %zu, "
      "\"overload_max_reject_ms\": %.2f, \"overload_queue_peak\": %llu, "
      "\"overload_recovery_ratio\": %.3f, \"sharded\": %s, "
      "\"chaos\": %s}",
      kClients, kBatch, unbatched.accel_ips, batched.accel_ips, accel_speedup,
      unbatched.host_ips, batched.host_ips, host_speedup, one_worker.host_ips,
      four_workers.host_ips, worker_scaling, scaling_gate ? "true" : "false", hw_threads,
      mismatches == 0 ? "true" : "false",
      nn::kernels::kind_name(nn::kernels::active()), have_avx2 ? "true" : "false",
      scalar_lat.p50_us, scalar_lat.p95_us, simd_lat.p50_us, simd_lat.p95_us, p50_speedup,
      int8_lat.p50_us, int8_lat.p95_us, int8_p50_speedup,
      deploy.miss_us, deploy.hit_us, deploy_speedup, overload ? "true" : "false",
      flood.served, flood.shed, flood.max_reject_ms,
      static_cast<unsigned long long>(flood.queue_peak), recovery_ratio,
      sharded_json.c_str(), chaos_json.c_str());
  std::printf("SERVING_JSON %s\n", json.c_str());
  std::ofstream out_file(out_path);
  out_file << json << "\n";
  out_file.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Gates. The modeled-accelerator speedup and bit-exactness are
  // deterministic. The host ratios depend on core count and scheduling: the
  // >= 2x worker-scaling requirement only binds when the machine actually has
  // >= 4 hardware threads to scale onto. The p50 engine gate binds wherever
  // the AVX2 engine exists: closed-loop latency is compute-dominated on the
  // CIFAR network, so it is stable even in --quick runs.
  bool ok = accel_speedup >= 2.0 && host_speedup >= 0.5 && mismatches == 0;
  if (scaling_gate) ok = ok && worker_scaling >= 2.0;
  if (have_avx2) ok = ok && p50_speedup >= 2.0;
  // The int8-quantized serving path must be a win over float SIMD end to end
  // (the kernel-level gate in bench_kernels demands >= 2x; at the request
  // level dispatch overhead dilutes it, so >= 1x is the floor).
  if (have_avx2) ok = ok && int8_p50_speedup >= 1.0;
  ok = ok && overload_ok && sharded_ok && chaos_ok;
  return ok ? 0 : 1;
}
