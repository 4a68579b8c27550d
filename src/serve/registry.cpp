#include "serve/registry.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "axi/block_design.hpp"
#include "hls/schedule.hpp"
#include "nn/fixed_inference.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::serve {

using cnn2fpga::util::format;

namespace {

/// Seeded probe images run at deploy to anchor a quantized design to the
/// fixed-point reference model. Eight images keep a quantized deploy cheap
/// (well under one batch of serving work) while still exercising every layer.
constexpr std::size_t kQuantProbes = 8;
constexpr std::uint64_t kQuantProbeSeed = 0xC0FFEE51u;

/// Run the deploy-time accuracy validation of a freshly built quantized
/// design: the fixed-point model (forward_fixed) provides each probe's
/// modeled error vs float and its expected scores, and the serving path is
/// checked against both. The design is not yet published, so no lock is held.
QuantReport validate_quantized(DeployedDesign& design) {
  QuantReport report;
  util::Rng rng(kQuantProbeSeed);
  std::vector<tensor::Tensor> probes(kQuantProbes, tensor::Tensor(design.net.input_shape()));
  std::vector<const tensor::Tensor*> inputs;
  for (tensor::Tensor& probe : probes) {
    probe.fill_uniform(rng, -1.0f, 1.0f);
    inputs.push_back(&probe);
  }
  // One call quantizes the parameters once for all probes and, with
  // track_output_error, runs the float reference per probe: its top-1
  // (reference_predicted) is what the served argmax must agree with.
  const std::vector<nn::FixedForwardResult> fixed =
      nn::forward_fixed(design.net, inputs, nn::serve_precision_format(design.precision),
                        /*track_output_error=*/true);
  auto lease = design.contexts.acquire();
  std::size_t agree = 0;
  for (std::size_t p = 0; p < kQuantProbes; ++p) {
    report.max_abs_error = std::max(report.max_abs_error, fixed[p].output_error);
    const tensor::Tensor& served = design.net.infer(probes[p], *lease);
    if (served.shape() != fixed[p].scores.shape() ||
        std::memcmp(served.data(), fixed[p].scores.data(), served.size() * sizeof(float)) !=
            0) {
      report.matches_fixed_model = false;
    }
    if (served.argmax() == fixed[p].reference_predicted) ++agree;
  }
  report.probes = kQuantProbes;
  report.top1_agreement =
      static_cast<double>(agree) / static_cast<double>(kQuantProbes);
  report.validated = true;
  return report;
}

}  // namespace

double DeployedDesign::invocation_seconds(std::size_t images) const {
  if (images == 0) return 0.0;
  const hls::HlsReport& report = analysis.hls_report;
  if (images == 1) {
    // One blocking round trip: ioctl into the DMA driver, cache flush and
    // invalidate, interrupt wake-up (axi::kBlockingDriverSeconds).
    return report.latency_seconds() + axi::kBlockingDriverSeconds;
  }
  // Scatter-gather batch: the DATAFLOW core accepts a new image every
  // initiation interval, and each queued descriptor costs the cheap
  // streaming-driver path instead of a blocking round trip.
  const std::uint64_t cycles =
      report.latency_cycles + (images - 1) * report.interval_cycles;
  return hls::cycles_to_seconds(cycles, report.device.clock_mhz) +
         static_cast<double>(images) * axi::kStreamingDriverSeconds;
}

std::string design_key(const core::NetworkDescriptor& descriptor,
                       const std::vector<std::uint8_t>& weights, nn::ServePrecision precision) {
  std::string key = core::Framework::cache_key(descriptor, weights);
  if (precision != nn::ServePrecision::kFloat32) {
    key += "-";
    key += nn::serve_precision_name(precision);
  }
  return key;
}

nn::Network seeded_network(const core::NetworkDescriptor& descriptor, std::uint64_t seed) {
  nn::Network net = descriptor.build_network();
  util::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

std::vector<std::uint8_t> seeded_weights(const core::NetworkDescriptor& descriptor,
                                         std::uint64_t seed) {
  nn::Network net = seeded_network(descriptor, seed);
  return nn::serialize_weights(net);
}

DesignRegistry::DesignRegistry(std::size_t capacity, ServeMetrics* metrics,
                               BreakerConfig breaker_config, FaultInjector* faults)
    : capacity_(capacity == 0 ? 1 : capacity),
      metrics_(metrics),
      breaker_config_(breaker_config),
      faults_(faults) {}

DeployOutcome DesignRegistry::deploy(const core::NetworkDescriptor& descriptor,
                                     const std::vector<std::uint8_t>& weights,
                                     nn::ServePrecision precision,
                                     std::optional<nn::Network> network) {
  const std::string key = design_key(descriptor, weights, precision);
  if (metrics_) metrics_->deploys.add();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      ++stats_.hits;
      if (metrics_) metrics_->deploy_cache_hits.add();
      return {it->second.design, /*cache_hit=*/true};
    }
    ++stats_.misses;
  }

  // Fault site: exercised before the analysis so an injected deploy failure
  // costs nothing and leaves no half-built state behind.
  if (faults_ != nullptr) {
    faults_->inject_latency("registry.deploy");
    if (faults_->should_fail_alloc("registry.deploy")) throw std::bad_alloc();
    if (faults_->should_fail("registry.deploy")) {
      throw InjectedFault(format("injected deploy failure for '%s'", descriptor.name.c_str()));
    }
  }

  // Build (unless the caller did) and analyze outside the lock: concurrent
  // deploys of *different* designs should not serialize on it. A racing
  // deploy of the same key is resolved below.
  if (!network) {
    network = descriptor.build_network();
    nn::deserialize_weights(*network, weights);
  }
  core::DesignAnalysis analysis = core::Framework::analyze(descriptor, *network);
  auto fresh = std::make_shared<DeployedDesign>(
      key, std::move(analysis), std::move(*network), precision, breaker_config_,
      metrics_ != nullptr ? &metrics_->breaker_opens : nullptr);
  if (precision != nn::ServePrecision::kFloat32) {
    // Anchor the quantized instance to the fixed-point reference model before
    // anyone can see it; the report is immutable afterwards.
    fresh->quant = validate_quantized(*fresh);
    LOG_INFO("serve") << format(
        "quantized deploy '%s' (%s): max_abs_error=%.6f top1_agreement=%.2f %s",
        descriptor.name.c_str(), nn::serve_precision_name(precision),
        fresh->quant.max_abs_error, fresh->quant.top1_agreement,
        fresh->quant.matches_fixed_model ? "bit-exact vs fixed model"
                                         : "DIVERGES from fixed model");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    // Lost a deploy race: keep the incumbent (in-flight predictions may
    // already hold it) and drop our duplicate.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return {it->second.design, /*cache_hit=*/false};
  }

  lru_.push_front(key);
  entries_.emplace(key, Entry{fresh, lru_.begin()});
  while (entries_.size() > capacity_) {
    const std::string& victim = lru_.back();
    LOG_DEBUG("serve") << format("registry evicting design %s", victim.c_str());
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics_) metrics_->deploy_evictions.add();
  }
  LOG_INFO("serve") << format("deployed '%s' as %s (%zu/%zu designs resident)",
                              fresh->descriptor().name.c_str(), key.c_str(), entries_.size(),
                              capacity_);
  return {fresh, /*cache_hit=*/false};
}

DeployOutcome DesignRegistry::deploy_random(const core::NetworkDescriptor& descriptor,
                                            std::uint64_t seed,
                                            nn::ServePrecision precision) {
  nn::Network net = seeded_network(descriptor, seed);
  const std::vector<std::uint8_t> weights = nn::serialize_weights(net);
  return deploy(descriptor, weights, precision, std::move(net));
}

std::shared_ptr<DeployedDesign> DesignRegistry::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.design;
}

std::vector<std::shared_ptr<DeployedDesign>> DesignRegistry::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<DeployedDesign>> out;
  out.reserve(entries_.size());
  for (const std::string& id : lru_) out.push_back(entries_.at(id).design);
  return out;
}

std::size_t DesignRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

RegistryStats DesignRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace cnn2fpga::serve
