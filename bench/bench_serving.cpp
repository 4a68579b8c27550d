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
//      accelerator (images over the summed axi::BlockDesign time of the
//      batches served; the batch sizes follow wall-clock coalescing, so it
//      moves between runs too) and the host functional pipeline (wall clock).
//      Every prediction is checked bit-for-bit against a sequential
//      ExecutionContext reference on the same kernel engine while measuring —
//      throughput with wrong answers is not throughput.
//   2. Worker scaling on the paper's Test-2 USPS network. With the per-design
//      execution lock gone, one design runs as many concurrent batches as the
//      executor has workers; host throughput at 1 vs. min(4, hw - 1) workers
//      shows it, leaving one hardware thread to the clients. Each side of a
//      round serves about 100 ms of compute, timed on the host first. (The
//      ratio only materializes when the machine has the cores: on boxes with
//      < 4 hardware threads it is reported but not gated.)
//   3. Closed-loop request latency, scalar engine vs SIMD engine, on the
//      Test-4 CIFAR network. Each client keeps one predict in flight; p50/p95
//      per-request latency with the design pinned to the scalar kernel engine
//      (the pre-kernel-engine serving baseline) vs the AVX2 fused-batch
//      engine. Gated: SIMD p50 must be >= 2x better where AVX2 exists.
//   4. Deploy latency, registry miss vs. hit. A miss builds the network and
//      analyzes it (validate, HLS estimate, fit warnings; no C++ or tcl is
//      emitted); a hit returns the resident instance.
//   5. (--overload) Overload behavior. 16 flood threads push the HTTP predict
//      handler against a queue capped at 8: sheds must answer 429 with
//      Retry-After immediately (max reject latency is gated — the accept path
//      never blocks), the admission gauge must never exceed the cap (bounded
//      memory), and after the flood the runtime must serve >= 95% of what
//      an identical runtime that saw no flood serves (a duel: both run the
//      same closed-loop streams, alternately).
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
//      checked bit-for-bit against a local scalar reference. Each worker runs
//      max(1, (hw - 1) / 2) executor threads, so the fleet's compute leaves a
//      hardware thread to the clients and the router. Gated: >= 1.7x on
//      hosts with >= 4 hardware threads; reported with a printed waiver below
//      that. Then twelve fresh CIFAR deploys go through each fleet, and the
//      p50 of each is reported, not gated: the two-worker router sends a
//      deploy to both replicas at once.
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
// Every ratio gate checks the median of a duel (bench_common.hpp): its two
// sides run kRounds rounds, alternating which goes first, and the JSON's
// "duels" block gives each ratio's rounds, median, min and max.
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
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace cnn2fpga;
using namespace cnn2fpga::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Rounds of every duel.
constexpr std::size_t kRounds = 5;

/// Hardware threads left once one is kept for the clients, the router and
/// the connection threads.
std::size_t spare_hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

/// Executor threads of each shard worker: the two-worker fleet's compute
/// threads fit in the spare hardware threads.
std::size_t shard_worker_threads() { return std::max<std::size_t>(1, spare_hw_threads() / 2); }

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
};

/// Throughput of `clients` concurrent open-loop request streams against one
/// deployed design on `workers` executor threads, with every result verified
/// bit-for-bit against a sequential infer() on the same kernel engine; the
/// predictions that differ are added to `*mismatches`.
Throughput measure_throughput(const core::NetworkDescriptor& descriptor,
                              std::size_t max_batch, std::size_t workers,
                              std::size_t clients, std::size_t per_client,
                              std::size_t* mismatches) {
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
  nn::deserialize_weights(reference, serve::seeded_weights(descriptor, 1));
  nn::ExecutionContext ref_ctx(reference);
  std::vector<tensor::Tensor> images;
  std::vector<tensor::Tensor> expected;
  for (std::size_t i = 0; i < clients; ++i) {
    images.push_back(random_tensor(design->net.input_shape(), 100 + i));
    expected.push_back(reference.infer(images.back(), ref_ctx));
  }

  // Warm-up: touch every code path once.
  batcher.predict(design, images[0]).get();

  std::vector<std::size_t> client_mismatches(clients, 0);
  const double elapsed = run_clients(clients, [&](std::size_t c) {
    // Open loop: submit the full stream, then drain. The batcher sees
    // sustained load instead of lock-step waves, and fulfilled futures
    // with no blocked waiter cost no wake-up.
    std::vector<std::future<serve::Prediction>> stream;
    stream.reserve(per_client);
    for (std::size_t i = 0; i < per_client; ++i) {
      stream.push_back(batcher.predict(design, images[c]));
    }
    for (auto& future : stream) {
      if (!same_bits(future.get().logits, expected[c])) ++client_mismatches[c];
    }
  });
  batcher.shutdown();
  executor.shutdown();

  Throughput out;
  out.host_ips = static_cast<double>(clients * per_client) / elapsed;
  for (const std::size_t m : client_mismatches) *mismatches += m;
  // Modeled accelerator throughput: every image the batcher served (including
  // warm-up) over the summed per-invocation model times it recorded.
  const double accel_busy_s = static_cast<double>(metrics.accel_us.sum()) * 1e-6;
  const auto total_images = static_cast<double>(metrics.predictions.value());
  out.accel_ips = total_images / accel_busy_s;
  return out;
}

/// Images per client that give each side of a round about `compute_s` of
/// compute: `descriptor`'s per-image time on the active kernel engine, from a
/// sequential infer loop on one context, spread over `clients` streams.
std::size_t stream_for_compute(const core::NetworkDescriptor& descriptor, double compute_s,
                               std::size_t clients) {
  const nn::Network net = serve::seeded_network(descriptor, 1);
  nn::ExecutionContext ctx(net);
  const tensor::Tensor image = random_tensor(net.input_shape(), 7);
  constexpr std::size_t kProbes = 500;
  net.infer(image, ctx);  // warm-up
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kProbes; ++i) net.infer(image, ctx);
  const double per_image_s = seconds_since(start) / static_cast<double>(kProbes);
  return static_cast<std::size_t>(
      std::ceil(compute_s / (per_image_s * static_cast<double>(clients))));
}

/// Closed-loop per-request latency through the batcher: `clients` threads each
/// keep exactly ONE predict in flight, so the percentiles measure the request
/// path itself (enqueue, batch fuse, kernel engine, future wake) rather than
/// queueing backlog. `engine` pins the kernel engine the deployed design's
/// context pool captures at deploy time — running it once with kScalar and
/// once with the SIMD engine isolates what the kernel/batch-fusion work buys
/// a latency-sensitive client.
ClosedLoop measure_latency(const core::NetworkDescriptor& descriptor, nn::kernels::Kind engine,
                           std::size_t clients, std::size_t per_client,
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
    images.push_back(random_tensor(design->net.input_shape(), 500 + c));
  }
  batcher.predict(design, images[0]).get();  // warm-up

  const ClosedLoop out = closed_loop(clients, per_client, [&](std::size_t c, std::size_t) {
    batcher.predict(design, images[c]).get();
  });
  batcher.shutdown();
  executor.shutdown();
  return out;
}

struct OverloadResult {
  std::size_t cap = 0;            ///< max_queue_depth the runtime ran with
  std::size_t served = 0;         ///< 200s during the flood
  std::size_t shed = 0;           ///< 429s during the flood
  std::size_t retry_after = 0;    ///< 429s carrying a Retry-After header
  double max_reject_ms = 0.0;     ///< slowest 429 (shedding must not block)
  std::uint64_t queue_peak = 0;   ///< admission-gauge high water vs the cap
  /// Host images/s after the flood: a = the flooded runtime, b = its twin
  /// that saw no flood.
  Duel<double> recovery;
};

/// Host images/s of `clients` x `per_client` predicts through `runtime`'s
/// batcher. Each client keeps one predict in flight, so an admission cap of
/// at least `clients` sheds none of them unless the runtime leaked queue
/// slots; a shed predict is retried. (Open-loop streams into the cap spin on
/// shed-and-retry: on a 4-vCPU host such samples spread over 4.5k-65k
/// images/s within one run.)
double runtime_throughput(serve::ServingRuntime& runtime,
                          const std::shared_ptr<serve::DeployedDesign>& design,
                          const tensor::Tensor& image, std::size_t clients,
                          std::size_t per_client) {
  const double seconds = run_clients(clients, [&](std::size_t) {
    for (std::size_t i = 0; i < per_client; ++i) {
      try {
        runtime.batcher().predict(design, image).get();
      } catch (const serve::OverloadedError&) {
        --i;
        std::this_thread::yield();
      }
    }
  });
  return static_cast<double>(clients * per_client) / seconds;
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
  // The flooded runtime and its twin, which sees no flood. After the flood
  // both serve the same streams, alternately, so a drift in the host's speed
  // falls on both alike.
  serve::ServingRuntime runtime(config);
  serve::ServingRuntime twin(config);
  const auto design = runtime.registry().deploy_random(descriptor, 1).design;
  const auto twin_design = twin.registry().deploy_random(descriptor, 1).design;

  const tensor::Tensor image = random_tensor(design->net.input_shape(), 42);
  web::HttpRequest request;
  request.body = predict_body(design->id, image);

  OverloadResult out;
  out.cap = kCap;
  const auto throughput = [&](serve::ServingRuntime& target,
                              const std::shared_ptr<serve::DeployedDesign>& deployed,
                              std::size_t per_client) {
    return runtime_throughput(target, deployed, image, kCap, per_client);
  };
  throughput(runtime, design, quick ? 10 : 100);  // warm-up
  throughput(twin, twin_design, quick ? 10 : 100);

  const auto flood_for = std::chrono::milliseconds(quick ? 300 : 1000);
  std::atomic<std::size_t> served{0}, shed{0}, retry_after{0}, other{0};
  std::atomic<std::uint64_t> max_reject_us{0};
  const auto flood_end = Clock::now() + flood_for;
  run_clients(kFloodThreads, [&](std::size_t) {
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
  if (other.load() != 0) {
    std::fprintf(stderr, "overload: %zu unexpected non-200/429 responses\n", other.load());
  }
  out.served = served.load();
  out.shed = shed.load();
  out.retry_after = retry_after.load();
  out.max_reject_ms = static_cast<double>(max_reject_us.load()) / 1000.0;
  out.queue_peak = runtime.metrics().queue_depth.peak();

  const std::size_t stream = quick ? 50 : 4000;
  out.recovery = duel(kRounds, [&] { return throughput(runtime, design, stream); },
                      [&] { return throughput(twin, twin_design, stream); });
  runtime.shutdown();
  twin.shutdown();
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
  std::size_t worker_threads = shard_worker_threads();  ///< executor threads per worker
  std::size_t designs = 0;         ///< CIFAR designs deployed (target: 4)
  Duel<double> duel;               ///< images/s: a = 2 workers, b = 1 worker
  std::size_t mismatches = 0;        ///< non-200s + logits differing from reference
  std::uint64_t key_mismatches = 0;  ///< router key != worker design_id (must be 0)
  double deploy_p50_ms = 0.0;         ///< fresh deploys through the 2-worker fleet
  double single_deploy_p50_ms = 0.0;  ///< the same designs through the 1-worker fleet
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
  config.worker_threads = shard_worker_threads();
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

web::HttpResponse routed_predict(serve::shard::Router& router, const RoutedDesign& design) {
  web::HttpRequest request;
  request.method = "POST";
  request.body = design.predict_body;
  return router.handle_predict(request);
}

/// Closed-loop throughput through a router: `clients` threads each keep one
/// predict in flight, rotating across the deployed designs so every fleet
/// worker sees traffic for the designs it is primary for. Every response is
/// parsed and its logits compared bit-for-bit against the local reference.
double shard_throughput(serve::shard::Router& router, const std::vector<RoutedDesign>& designs,
                        std::size_t clients, std::size_t per_client,
                        std::size_t* mismatches) {
  std::vector<std::size_t> errs(clients, 0);
  const ClosedLoop loop = closed_loop(clients, per_client, [&](std::size_t c, std::size_t i) {
    const RoutedDesign& design = designs[(c + i) % designs.size()];
    const web::HttpResponse response = routed_predict(router, design);
    if (response.status != 200 || !same_bits(response.body, design.expected)) ++errs[c];
  });
  for (const std::size_t e : errs) *mismatches += e;
  return static_cast<double>(clients * per_client) / loop.seconds;
}

/// The --sharded duel: the same closed-loop CIFAR load through the shard
/// router against a 1-worker fleet and a 2-worker fleet.
ShardedResult measure_sharded(bool quick) {
  ShardedResult out;
  constexpr std::size_t kFleet = 2;
  constexpr std::size_t kDesigns = 4;
  constexpr std::size_t kShardClients = 8;
  // Fresh deploys timed on each fleet; with the four served designs they
  // fit in a worker's registry, so none is evicted.
  constexpr std::size_t kDeployProbes = 12;
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
  std::vector<core::NetworkDescriptor> descriptors;
  std::map<std::string, std::size_t> primaries;
  for (int candidate = 0; descriptors.size() < kDesigns && candidate < 64; ++candidate) {
    core::NetworkDescriptor d = cifar_test4_descriptor();
    d.name = util::format("shard_cifar_%d", candidate);
    web::HttpResponse error;
    const auto key = serve::shard::compute_design_key(seeded_deploy_body(d), &error);
    if (!key) continue;
    if (primaries[ring.primary(*key)] >= kDesigns / kFleet) continue;
    ++primaries[ring.primary(*key)];
    descriptors.push_back(std::move(d));
  }
  out.designs = descriptors.size();
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

  std::vector<RoutedDesign> designs;
  for (std::size_t d = 0; d < descriptors.size(); ++d) {
    auto design = deploy_routed(descriptors[d], 4000 + d, {&fleet, &baseline});
    if (!design) {
      out.deploy_ok = false;
      continue;
    }
    designs.push_back(std::move(*design));
  }

  if (out.deploy_ok && !designs.empty()) {
    // Warm-up: touch every design on both fleets once (context pools, weight
    // packs, keep-alive connections) before the clock starts.
    shard_throughput(baseline, designs, 1, designs.size(), &out.mismatches);
    shard_throughput(fleet, designs, 1, designs.size(), &out.mismatches);

    const auto through = [&](serve::shard::Router& router) {
      return shard_throughput(router, designs, kShardClients, per_client, &out.mismatches);
    };
    out.duel = duel(kRounds, [&] { return through(fleet); }, [&] { return through(baseline); });

    // Deploy latency: fresh CIFAR designs, each through both routers, which
    // goes first alternating. The fleet's router deploys to both replicas at
    // once, so a fleet deploy should cost about one worker's deploy.
    std::vector<double> fleet_ms, single_ms;
    for (std::size_t d = 0; d < kDeployProbes; ++d) {
      core::NetworkDescriptor descriptor = cifar_test4_descriptor();
      descriptor.name = util::format("shard_deploy_%zu", d);
      web::HttpRequest request;
      request.method = "POST";
      request.body = seeded_deploy_body(descriptor);
      const auto timed_deploy = [&](serve::shard::Router& router, std::vector<double>* ms) {
        const auto start = Clock::now();
        const web::HttpResponse response = router.handle_deploy(request);
        ms->push_back(seconds_since(start) * 1e3);
        if (response.status != 200) {
          std::fprintf(stderr, "sharded: deploy of %s answered %d\n", descriptor.name.c_str(),
                       response.status);
          out.deploy_ok = false;
        }
      };
      if (d % 2 == 0) timed_deploy(fleet, &fleet_ms);
      timed_deploy(baseline, &single_ms);
      if (d % 2 == 1) timed_deploy(fleet, &fleet_ms);
    }
    out.deploy_p50_ms = median(fleet_ms);
    out.single_deploy_p50_ms = median(single_ms);
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
  double error_rate = 1.0;        ///< soak_errors / soak_requests
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
std::size_t chaos_settle(serve::shard::Router& router, const std::vector<RoutedDesign>& designs,
                         int deadline_ms, std::size_t* mismatches) {
  std::size_t failed = 0;
  for (const RoutedDesign& design : designs) {
    const auto give_up = Clock::now() + std::chrono::milliseconds(deadline_ms);
    web::HttpResponse response = routed_predict(router, design);
    while (response.status != 200 && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      response = routed_predict(router, design);
    }
    if (response.status != 200) {
      ++failed;
    } else if (!same_bits(response.body, design.expected)) {
      ++*mismatches;
    }
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

  // A router over the fleet that replays the journal, probes and drives the
  // supervisor. Returns the designs it recovered from the journal.
  std::unique_ptr<serve::shard::Router> router;
  const auto start_router = [&] {
    serve::shard::RouterConfig config;
    config.replication = 2;
    config.worker.client.read_timeout_ms = 60000;
    config.probe_interval_ms = 50;  // restarts and ring repair inside the soak window
    config.journal_path = journal_path;
    router = std::make_unique<serve::shard::Router>(config);
    for (std::size_t w = 0; w < kFleet; ++w) {
      router->add_worker(util::format("worker-%zu", w), "127.0.0.1", launchers[w]->port());
    }
    const std::size_t recovered = router->recover();
    router->attach_supervisor(&supervisor);
    router->start_probing();
    return recovered;
  };
  const auto stop_router = [&] {
    router->stop_probing();
    router.reset();  // releases the journal before a successor replays it
  };
  start_router();

  // Deploy kDesigns tiny designs (journal-before-ack) with their local scalar
  // references for bit-exact checks.
  std::vector<RoutedDesign> designs;
  for (std::size_t d = 0; d < kDesigns; ++d) {
    auto design = deploy_routed(serving_descriptor(util::format("chaos_design_%zu", d)),
                                7000 + d, {router.get()});
    if (!design) {
      out.deploy_ok = false;
      continue;
    }
    designs.push_back(std::move(*design));
  }
  out.designs = designs.size();
  if (out.designs != kDesigns) out.deploy_ok = false;

  // Soak: closed-loop clients keep predicting while one more thread SIGKILLs
  // a rotating worker and lets the supervisor resurrect it. Replication 2 of
  // 3 means one dead worker always leaves a live replica, so failover should
  // keep the error rate low (bounded by the gate below, not zero: a predict
  // already in flight INTO the dying socket is allowed to fail).
  if (out.deploy_ok) {
    std::atomic<bool> stop{false};
    std::vector<std::size_t> errs(kClients, 0);
    std::vector<std::size_t> bad(kClients, 0);
    std::vector<std::size_t> sent(kClients, 0);
    run_clients(kClients + 1, [&](std::size_t c) {
      if (c == kClients) {
        for (std::size_t kill = 0; kill < kills_target; ++kill) {
          std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 300 : 600));
          launchers[kill % kFleet]->kill_now();
          ++out.kills;
          // Give the supervisor room to notice, back off, and restart before
          // the next murder; the load keeps running the whole time.
          std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 700 : 1200));
        }
        stop.store(true);
        return;
      }
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const RoutedDesign& design = designs[(c + i) % designs.size()];
        const web::HttpResponse response = routed_predict(*router, design);
        ++sent[c];
        if (response.status != 200) {
          ++errs[c];
        } else if (!same_bits(response.body, design.expected)) {
          ++bad[c];
        }
      }
    });
    for (std::size_t c = 0; c < kClients; ++c) {
      out.soak_requests += sent[c];
      out.soak_errors += errs[c];
      out.mismatches += bad[c];
    }
    // After the dust settles every design must answer bit-exact again, and
    // every kill must have produced a restart (the last one may still be in
    // backoff; the router's prober keeps ticking the supervisor while we wait).
    out.soak_healed = chaos_settle(*router, designs, 20000, &out.mismatches) == 0;
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
    stop_router();
    for (auto* launcher : launchers) launcher->kill_now();
    out.recovered = start_router();
    out.clean_truncated = router->journal()->truncated_records();
    out.soak_healed =
        out.soak_healed && chaos_settle(*router, designs, 30000, &out.mismatches) == 0;
  }

  // Torn-tail drill: append garbage past the last valid record and replay
  // again. Every fully-written record must survive; the cut must be REPORTED.
  if (out.deploy_ok) {
    stop_router();
    {
      std::ofstream tail(journal_path, std::ios::binary | std::ios::app);
      tail << "\x13\x37GARBAGE-TORN-TAIL";  // bogus length prefix + partial payload
    }
    out.torn_recovered = start_router();
    out.torn_truncated = router->journal()->truncated_records();
    out.soak_healed =
        out.soak_healed && chaos_settle(*router, designs, 30000, &out.mismatches) == 0;
  }

  stop_router();
  supervisor.stop_all();
  std::remove(journal_path.c_str());

  if (out.soak_requests > 0) {
    out.error_rate =
        static_cast<double>(out.soak_errors) / static_cast<double>(out.soak_requests);
  }
  out.ok = out.deploy_ok && out.designs == kDesigns && out.kills == kills_target &&
           out.restarts >= out.kills && out.mismatches == 0 && out.soak_healed &&
           out.recovered == kDesigns && out.clean_truncated == 0 &&
           out.torn_recovered == kDesigns && out.torn_truncated >= 1 &&
           out.error_rate <= 0.10;
  return out;
}

/// Records `value` in `block` under `key` and prints it as a table row, so
/// the table shows what the JSON holds, under the same names.
void row(json::Object& block, const std::string& key, json::Value value) {
  const std::string text =
      value.is_number() ? util::format("%.6g", value.as_double()) : value.dump();
  std::printf("  %-32s %s\n", key.c_str(), text.c_str());
  block[key] = std::move(value);
}

/// A duel's ratio as a row: its median under `key`, and its rounds, median,
/// min and max under duels[`name`]. Returns it for its gate.
Spread ratio_row(json::Object& block, json::Object& duels, const std::string& key,
                 const std::string& name, Spread ratio) {
  std::printf("  %-32s %.2fx (%zu rounds, %.2f-%.2f)\n", key.c_str(), ratio.median,
              ratio.values.size(), ratio.min, ratio.max);
  block[key] = ratio.median;
  duels[name] = json::Object{{"rounds", ratio.values.size()}, {"median", ratio.median},
                             {"min", ratio.min}, {"max", ratio.max},
                             {"ratios", json::Array(ratio.values.begin(), ratio.values.end())}};
  return ratio;
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
  json::Object report{{"bench", "serving"}, {"clients", kClients}, {"workers", 4},
                      {"batch", kBatch},    {"hw_threads", hw_threads},
                      {"chaos", false},     {"sharded", false}};
  json::Object duels;

  bool chaos_ok = true;
  if (chaos) {
    const ChaosResult havoc = measure_chaos(quick);
    chaos_ok = havoc.ok;
    std::puts("chaos drill (supervised workers, journaled designs; torn_truncated_records "
              "must be >= 1):");
    json::Object block;
    row(block, "workers", havoc.workers);
    row(block, "designs", havoc.designs);
    row(block, "kills", havoc.kills);
    row(block, "restarts", havoc.restarts);
    row(block, "soak_requests", havoc.soak_requests);
    row(block, "soak_errors", havoc.soak_errors);
    row(block, "error_rate", havoc.error_rate);
    row(block, "mismatches", havoc.mismatches);
    row(block, "recovered", havoc.recovered);
    row(block, "journal_truncated_records", havoc.clean_truncated);
    row(block, "torn_recovered", havoc.torn_recovered);
    row(block, "torn_truncated_records", havoc.torn_truncated);
    row(block, "healed", havoc.soak_healed);
    row(block, "ok", chaos_ok);
    report["chaos"] = std::move(block);
  }

  bool sharded_ok = true;
  if (sharded) {
    const ShardedResult shard = measure_sharded(quick);
    std::puts("sharded serving, Test-4 CIFAR network (router -> 1 vs 2 scalar worker "
              "processes, closed loop):");
    std::printf("  bit-exact routed logits: %zu mismatches; router key mismatches: %llu\n",
                shard.mismatches, static_cast<unsigned long long>(shard.key_mismatches));
    json::Object block;
    row(block, "workers", shard.workers);
    row(block, "worker_threads", shard.worker_threads);
    row(block, "designs", shard.designs);
    row(block, "baseline_images_per_s", median(shard.duel.b));
    row(block, "sharded_images_per_s", median(shard.duel.a));
    const Spread scaling = ratio_row(block, duels, "scaling", "sharded", shard.duel.ratio());
    // Not gated: what a deploy to two replicas costs against one.
    row(block, "deploy_p50_ms", shard.deploy_p50_ms);
    row(block, "single_deploy_p50_ms", shard.single_deploy_p50_ms);
    // Two workers plus the router need the cores to overlap at all; below 4
    // hardware threads the two fleets time-slice the same core and the ratio
    // reports scheduler behavior, not the architecture.
    const bool capacity_gate = hw_threads >= 4;
    row(block, "capacity_gate", capacity_gate);
    if (!capacity_gate) std::puts("  (1.7x multi-process scaling gate waived, reported only)");
    const bool bit_exact = shard.mismatches == 0 && shard.key_mismatches == 0;
    row(block, "bit_exact", bit_exact);
    sharded_ok = shard.deploy_ok && bit_exact && (!capacity_gate || scaling.median >= 1.7);
    row(block, "ok", sharded_ok);
    report["sharded"] = std::move(block);
  }

  std::size_t mismatches = 0;
  const auto throughput = [&](const core::NetworkDescriptor& descriptor, std::size_t max_batch,
                              std::size_t workers, std::size_t per_client) {
    return measure_throughput(descriptor, max_batch, workers, kClients, per_client, &mismatches);
  };

  const core::NetworkDescriptor tiny = serving_descriptor("bench_serve");
  const auto batching = duel(kRounds, [&] { return throughput(tiny, kBatch, 4, kPerClient); },
                             [&] { return throughput(tiny, 1, 4, kPerClient); });
  std::printf("batch=%zu vs unbatched, modeled accelerator (axi::BlockDesign timing) and host "
              "wall clock:\n", kBatch);
  row(report, "unbatched_images_per_s", median(batching.b, &Throughput::accel_ips));
  row(report, "batched_images_per_s", median(batching.a, &Throughput::accel_ips));
  const Spread accel_speedup = ratio_row(report, duels, "batching_speedup", "modeled_batching",
                                         batching.ratio(&Throughput::accel_ips));
  row(report, "host_unbatched_images_per_s", median(batching.b, &Throughput::host_ips));
  row(report, "host_batched_images_per_s", median(batching.a, &Throughput::host_ips));
  const Spread host_speedup = ratio_row(report, duels, "host_speedup", "host_batching",
                                        batching.ratio(&Throughput::host_ips));

  // Worker scaling on the Test-2 USPS network. Test-2 computes in about 2 us
  // per image on an AVX-512 host, so the per-image hand-off through the
  // batcher and the executor, not the compute, bounds this ratio there (see
  // ROADMAP). max_batch=1: one image per batch makes the available
  // parallelism explicit. Each side
  // of a round serves about 100 ms of compute (25 ms in --quick), as timed
  // on the running host, so a round times the executors, not thread start-up.
  const core::NetworkDescriptor test2 = usps_test1_descriptor(/*optimize=*/true);
  const std::size_t scale_stream = stream_for_compute(test2, quick ? 0.025 : 0.1, kClients);
  const std::size_t scale_workers = std::min<std::size_t>(4, spare_hw_threads());
  const auto scaling =
      duel(kRounds, [&] { return throughput(test2, 1, scale_workers, scale_stream); },
           [&] { return throughput(test2, 1, 1, scale_stream); });
  std::puts("worker scaling, Test-2 USPS network (host wall clock, max_batch=1):");
  row(report, "scaling_workers", scale_workers);
  row(report, "scaling_images_per_client", scale_stream);
  row(report, "scaling_1_worker_images_per_s", median(scaling.b, &Throughput::host_ips));
  // The key keeps its name whatever scaling_workers reads.
  row(report, "scaling_4_workers_images_per_s", median(scaling.a, &Throughput::host_ips));
  const Spread worker_scaling = ratio_row(report, duels, "worker_scaling", "worker_scaling",
                                          scaling.ratio(&Throughput::host_ips));
  // More executor threads can only outrun one where four hardware threads
  // exist; elsewhere (and in --quick runs, where the streams are too short to
  // amortize scheduling noise) the ratio is reported but not gated.
  const bool scaling_gate = hw_threads >= 4 && !quick;
  row(report, "scaling_gate", scaling_gate);
  row(report, "bit_exact", mismatches == 0);

  // Closed-loop p50 on the Test-4 CIFAR network: enough per-image arithmetic
  // (~450k MACs) that the kernel engine, not dispatch overhead, dominates the
  // request path. The scalar-pinned design is the pre-kernel-engine baseline;
  // without AVX2 the scalar engine is also the SIMD side, and nothing is gated.
  const bool have_avx2 = nn::kernels::avx2_available();
  const nn::kernels::Kind simd =
      have_avx2 ? nn::kernels::Kind::kAvx2 : nn::kernels::Kind::kScalar;
  const core::NetworkDescriptor cifar = cifar_test4_descriptor();
  // Full-length streams in --quick too: a round of a few hundred requests
  // lasts tens of milliseconds, so one stall of the host spans most rounds.
  const std::size_t lat_stream = 250;
  const auto latency = [&](nn::kernels::Kind engine,
                           nn::ServePrecision precision = nn::ServePrecision::kFloat32) {
    return measure_latency(cifar, engine, kClients, lat_stream, precision);
  };
  const auto engine = duel(kRounds, [&] { return latency(nn::kernels::Kind::kScalar); },
                           [&] { return latency(simd); });
  // Same network deployed at int8: the full serving path (batcher, context
  // pool, quantized runner) in the precision a quantized deploy serves.
  const auto int8 = duel(kRounds, [&] { return latency(simd); },
                         [&] { return latency(simd, nn::ServePrecision::kInt8); });
  std::puts("closed-loop request latency, Test-4 CIFAR network (8 clients):");
  row(report, "engine", nn::kernels::kind_name(nn::kernels::active()));
  row(report, "avx2_available", have_avx2);
  row(report, "latency_p50_scalar_us", median(engine.a, &ClosedLoop::p50_us));
  row(report, "latency_p95_scalar_us", median(engine.a, &ClosedLoop::p95_us));
  row(report, "latency_p50_simd_us", median(engine.b, &ClosedLoop::p50_us));
  row(report, "latency_p95_simd_us", median(engine.b, &ClosedLoop::p95_us));
  const Spread p50_speedup = ratio_row(report, duels, "p50_engine_speedup", "engine_p50",
                                       engine.ratio(&ClosedLoop::p50_us));
  row(report, "latency_p50_int8_us", median(int8.b, &ClosedLoop::p50_us));
  row(report, "latency_p95_int8_us", median(int8.b, &ClosedLoop::p95_us));
  const Spread int8_p50_speedup = ratio_row(report, duels, "int8_p50_speedup_vs_float",
                                            "int8_p50", int8.ratio(&ClosedLoop::p50_us));

  const DeployLatency deploy = measure_deploy(kDeployRounds);
  std::puts("deploy latency, registry miss (build + analyze) vs hit:");
  row(report, "deploy_miss_us", deploy.miss_us);
  row(report, "deploy_hit_us", deploy.hit_us);
  row(report, "registry_speedup", deploy.miss_us / deploy.hit_us);

  OverloadResult flood;
  bool overload_ok = true;
  if (overload) {
    flood = measure_overload(tiny, quick);
    std::printf("overload (16 flood threads, max_queue_depth=%zu): %zu of %zu 429s with "
                "Retry-After; after it %.0f images/s flooded, %.0f on its twin (medians)\n",
                flood.cap, flood.retry_after, flood.shed, median(flood.recovery.a),
                median(flood.recovery.b));
    overload_ok = flood.shed > 0 && flood.retry_after == flood.shed &&
                  flood.max_reject_ms < 250.0 && flood.queue_peak <= flood.cap;
  }
  row(report, "overload", overload);
  row(report, "overload_served", flood.served);
  row(report, "overload_shed", flood.shed);
  row(report, "overload_max_reject_ms", flood.max_reject_ms);  // shedding must never block
  row(report, "overload_queue_peak", flood.queue_peak);        // at most the cap
  if (overload) {
    const Spread recovery = ratio_row(report, duels, "overload_recovery_ratio",
                                      "overload_recovery", flood.recovery.ratio());
    // Recovery is a wall-clock ratio: only gate it where scheduling noise is
    // amortized over the full-size streams.
    if (!quick) overload_ok = overload_ok && recovery.median >= 0.95;
  } else {
    row(report, "overload_recovery_ratio", 1.0);
  }
  report["duels"] = std::move(duels);

  const std::string json = json::Value(std::move(report)).dump();
  std::printf("SERVING_JSON %s\n", json.c_str());
  std::ofstream out_file(out_path);
  out_file << json << "\n";
  out_file.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Gates, each on a duel's median. Only bit-exactness is deterministic: even
  // the modeled batching ratio follows the batch sizes that wall-clock
  // coalescing forms. The >= 2x worker-scaling requirement only binds when
  // the machine actually has >= 4 hardware threads to scale onto. The p50
  // engine gate binds wherever the AVX2 engine exists: closed-loop latency is
  // compute-dominated on the CIFAR network.
  bool ok = accel_speedup.median >= 2.0 && host_speedup.median >= 0.5 && mismatches == 0;
  if (scaling_gate) ok = ok && worker_scaling.median >= 2.0;
  if (have_avx2) ok = ok && p50_speedup.median >= 2.0;
  // The int8-quantized serving path must be a win over float SIMD end to end
  // (the kernel-level gate in bench_kernels demands >= 2x; at the request
  // level dispatch overhead dilutes it, so >= 1x is the floor).
  if (have_avx2) ok = ok && int8_p50_speedup.median >= 1.0;
  ok = ok && overload_ok && sharded_ok && chaos_ok;
  return ok ? 0 : 1;
}
