// Content-addressed registry of deployed designs.
//
// Deploying a design means analyzing it (Framework::analyze: descriptor and
// network checks, the HLS latency/utilization estimate, fit warnings) and
// materializing a ready-to-run reference network. Serving reads only the
// analysis, so a deploy emits no C++ or tcl. All of that is a pure function
// of (descriptor JSON, weight blob, serving precision), so the registry keys
// deployed designs by design_key over exactly those inputs: a repeat deploy
// of the same network is a cache hit that skips the analysis entirely and
// returns the already-warm instance. Capacity is LRU-bounded; evicted designs
// stay alive (shared_ptr) until their last in-flight batch completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/framework.hpp"
#include "nn/execution.hpp"
#include "serve/breaker.hpp"
#include "serve/fault.hpp"
#include "serve/metrics.hpp"

namespace cnn2fpga::serve {

/// Deploy-time validation report of a quantized design against the
/// fixed-point reference model (nn::forward_fixed over seeded probe inputs).
/// Default-initialized (validated == false) for float32 designs.
struct QuantReport {
  bool validated = false;           ///< probe validation ran at deploy
  std::size_t probes = 0;           ///< probe images evaluated
  /// Largest |float - fixed| pre-softmax activation discrepancy the fixed
  /// model observed (FixedForwardResult::output_error) across the probes.
  float max_abs_error = 0.0f;
  /// Fraction of probes where the quantized serving path predicted the same
  /// class as the float reference.
  double top1_agreement = 1.0;
  /// Quantized serving scores were bit-identical to forward_fixed on every
  /// probe (the engineered guarantee; int8 may diverge only via the
  /// documented weight clamp — see kernels_int.hpp).
  bool matches_fixed_model = true;
};

/// A design deployed for serving. `net` is the executable reference network
/// with the deploy weights loaded (the blob itself is not kept). Weights are
/// frozen after deploy, so any number of threads may run Network::infer
/// concurrently — each batch checks an ExecutionContext out of `contexts` and
/// runs without a lock (at the design's deployed serving precision). Only the
/// *modeled* accelerator (invocation_seconds) remains serial: the deployment
/// hardware is one physical IP core, so a fabric runtime's Executor has a
/// single thread (see batcher.hpp).
struct DeployedDesign {
  DeployedDesign(std::string id_in, core::DesignAnalysis analysis_in, nn::Network net_in,
                 nn::ServePrecision precision_in = nn::ServePrecision::kFloat32,
                 BreakerConfig breaker_config = {}, Counter* breaker_opens = nullptr)
      : id(std::move(id_in)),
        analysis(std::move(analysis_in)),
        net(std::move(net_in)),
        precision(precision_in),
        contexts(net, nn::kernels::active(), precision_in),
        breaker(breaker_config, breaker_opens) {
    // Deploy-time warm-up: build the pool's shared weight-pack cache now so
    // no request-path context ever packs a panel (no-op on scalar hosts).
    contexts.warm();
  }

  const std::string id;                      ///< content hash (cache key)
  const core::DesignAnalysis analysis;       ///< descriptor, HLS report, warnings
  const nn::Network net;                     ///< weights loaded, ready to run
  const nn::ServePrecision precision;        ///< serving arithmetic of every batch
  /// Quantization-quality report; filled by the registry right after a fresh
  /// quantized deploy (before the design is published), then immutable.
  QuantReport quant;

  nn::ExecutionContextPool contexts;         ///< reusable inference contexts
  Breaker breaker;                           ///< failure quarantine of this design
  std::atomic<std::uint64_t> batches{0};     ///< batches executed successfully
  std::atomic<std::uint64_t> served{0};      ///< images predicted on this design

  const core::NetworkDescriptor& descriptor() const { return analysis.descriptor; }
  /// Estimated per-image latency of the generated hardware (HLS report).
  double hls_latency_seconds() const { return analysis.hls_report.latency_seconds(); }

  /// Modeled wall time of one invocation of the deployed accelerator serving
  /// `images` at once, using the axi::BlockDesign transaction model: a single
  /// image is one blocking DMA round trip (driver ioctl + cache maintenance +
  /// interrupt), a batch is queued scatter-gather and pipelines through the
  /// DATAFLOW core at the steady-state initiation interval. This is what
  /// micro-batching amortizes on the deployment hardware.
  ///
  /// Concurrency contract: the model describes ONE physical IP core, so two
  /// invocations can never overlap — callers must serialize. In the serving
  /// runtime a fabric Batcher refuses an Executor of more than one thread,
  /// so every invocation holds the one slot and concurrent batches queue
  /// rather than interleave.
  double invocation_seconds(std::size_t images) const;
};

/// A deployed design's content address: Framework::cache_key over
/// (descriptor, weights), plus "-<precision>" for a serving precision other
/// than float32 (the same network at two precisions computes different
/// things; float32 keeps the bare hash so pre-precision ids stay stable). The
/// shard router places designs by this same key.
std::string design_key(const core::NetworkDescriptor& descriptor,
                       const std::vector<std::uint8_t>& weights, nn::ServePrecision precision);

/// The network a seed stands for: the descriptor's network with
/// init_weights(Rng(seed)) (paper Test 4's random weights).
nn::Network seeded_network(const core::NetworkDescriptor& descriptor, std::uint64_t seed);

/// The CNN2FPGAW1 blob of seeded_network. Deploying the seed and deploying
/// this blob explicitly are the same design.
std::vector<std::uint8_t> seeded_weights(const core::NetworkDescriptor& descriptor,
                                         std::uint64_t seed);

struct DeployOutcome {
  std::shared_ptr<DeployedDesign> design;
  bool cache_hit = false;
};

struct RegistryStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Designs a serving runtime keeps resident (its registry's LRU bound).
inline constexpr std::size_t kRegistryCapacity = 16;

class DesignRegistry {
 public:
  /// `metrics` and `faults` may be null; when set, deploy/hit/eviction
  /// counters are fed and the `registry.deploy` fault site is live. Every
  /// deployed design gets a circuit breaker built from `breaker_config`.
  explicit DesignRegistry(std::size_t capacity = kRegistryCapacity,
                          ServeMetrics* metrics = nullptr,
                          BreakerConfig breaker_config = {},
                          FaultInjector* faults = nullptr);

  /// Deploy from a descriptor and an explicit CNN2FPGAW1 weight blob.
  /// Throws DescriptorError / std::runtime_error on invalid inputs.
  /// `precision` alone selects the serving arithmetic (float32 / int16 /
  /// int8; parse_deploy_request maps a fixed descriptor onto one) and is part
  /// of the registry key: the same network at two precisions is two cache
  /// entries. Quantized deploys are probe-validated against the fixed-point
  /// reference model before being published (see DeployedDesign::quant).
  /// `network`, when set, is the descriptor's network already holding
  /// `weights` (DeployRequest::network): a miss serves it instead of
  /// building and loading its own copy; a hit drops it.
  DeployOutcome deploy(const core::NetworkDescriptor& descriptor,
                       const std::vector<std::uint8_t>& weights,
                       nn::ServePrecision precision = nn::ServePrecision::kFloat32,
                       std::optional<nn::Network> network = std::nullopt);

  /// Deploy with seed-derived random weights (paper Test 4 style). The seed
  /// is expanded by seeded_network() first, so the same seed is
  /// content-identical to — and cache-hits against — an explicit-weights
  /// deploy of those values.
  DeployOutcome deploy_random(const core::NetworkDescriptor& descriptor, std::uint64_t seed,
                              nn::ServePrecision precision = nn::ServePrecision::kFloat32);

  /// nullptr if the id is not (or no longer) deployed.
  std::shared_ptr<DeployedDesign> find(const std::string& id) const;

  /// All deployed designs, most recently used first.
  std::vector<std::shared_ptr<DeployedDesign>> list() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  RegistryStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<DeployedDesign> design;
    std::list<std::string>::iterator lru_pos;
  };

  const std::size_t capacity_;
  ServeMetrics* metrics_;
  const BreakerConfig breaker_config_;
  FaultInjector* faults_;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  RegistryStats stats_;
};

}  // namespace cnn2fpga::serve
