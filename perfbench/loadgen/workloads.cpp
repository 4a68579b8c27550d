// Seeded inputs of the two workloads. Every image, descriptor and weight
// seed below comes from the run's --seed; the server only ever sees the
// generated request bodies.
//
// Connection budget: every workload keeps at most 3 client connections per
// server. The default HttpServer has 4 handler threads and parks one on each
// kept-alive connection while it waits for that connection's next request.
// In router mode the router's health probe holds the 4th handler of each
// worker, so a 5th connection can wait up to keep_alive_timeout_ms (5 s) for
// a handler: that head-of-line stall is what caps `bench_serving --sharded`
// at 39 img/s with 8 clients. Three connections measure the server, not that
// stall.
#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "loadgen.hpp"
#include "nn/execution.hpp"
#include "serve/shard/ring.hpp"
#include "serve/shard/router.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

nn::Network build_reference(const DesignSpec& spec) {
  nn::Network net = spec.descriptor.build_network();
  util::Rng rng(spec.weight_seed);
  net.init_weights(rng);
  return net;
}

namespace {

core::LayerSpec conv_layer(std::size_t maps, std::size_t kernel, bool pool) {
  core::LayerSpec layer;
  layer.type = core::LayerSpec::Type::kConv;
  layer.conv.feature_maps_out = maps;
  layer.conv.kernel_h = layer.conv.kernel_w = kernel;
  if (pool) layer.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  return layer;
}

core::LayerSpec linear_layer(std::size_t neurons, bool tanh) {
  core::LayerSpec layer;
  layer.type = core::LayerSpec::Type::kLinear;
  layer.linear.neurons = neurons;
  if (tanh) layer.linear.activation = nn::ActKind::kTanh;
  return layer;
}

core::NetworkDescriptor base_descriptor(const std::string& name, std::size_t channels,
                                        std::size_t side) {
  core::NetworkDescriptor d;
  d.name = name;
  d.board = "zedboard";
  d.optimize = true;
  d.input_channels = channels;
  d.input_height = d.input_width = side;
  return d;
}

/// Paper Test 4: the CIFAR-10 network (Sec. V, Table I).
core::NetworkDescriptor cifar_test4(const std::string& name) {
  core::NetworkDescriptor d = base_descriptor(name, 3, 32);
  d.layers = {conv_layer(12, 5, true), conv_layer(36, 5, true), linear_layer(36, true),
              linear_layer(10, false)};
  return d;
}

/// Paper Test 2: the optimized USPS network.
core::NetworkDescriptor usps_test2(const std::string& name) {
  core::NetworkDescriptor d = base_descriptor(name, 1, 16);
  d.layers = {conv_layer(6, 5, true), linear_layer(10, false)};
  return d;
}

/// Variant deploys per run: deploy_p50_ms is their median, and 12 left it
/// spread by up to 0.23 of itself over ten runs. The registry holds 16
/// designs, so later variants evict earlier ones; the load re-deploys the
/// resident designs often enough that a variant is always what goes.
constexpr std::size_t kVariants = 36;

std::uint64_t draw_seed(util::Rng& rng) { return 1 + rng.next_below(1u << 30); }

/// A design with `"seed"` weights, its request body and its content key.
DesignSpec make_spec(core::NetworkDescriptor descriptor, nn::ServePrecision precision,
                     std::uint64_t weight_seed) {
  DesignSpec spec;
  spec.descriptor = std::move(descriptor);
  spec.precision = precision;
  spec.weight_seed = weight_seed;
  spec.descriptor.validate();
  json::Value doc = spec.descriptor.to_json();
  doc.as_object()["precision"] = std::string(nn::serve_precision_name(spec.precision));
  doc.as_object()["seed"] = static_cast<double>(spec.weight_seed);
  spec.body = doc.dump();
  const auto key = serve::shard::compute_design_key(spec.body, nullptr);
  if (!key) throw std::logic_error("generated deploy body has no design key: " + spec.body);
  spec.key = *key;
  return spec;
}

/// `count` copies of the designs with fresh weights and names: deploys that
/// miss the registry but cost what the workload's own designs cost. Variant v
/// copies designs[v % designs.size()].
std::vector<DesignSpec> make_variants(const std::vector<DesignSpec>& designs, std::size_t count,
                                      util::Rng& rng) {
  std::vector<DesignSpec> variants;
  for (std::size_t i = 0; i < count; ++i) {
    const DesignSpec& base = designs[i % designs.size()];
    core::NetworkDescriptor descriptor = base.descriptor;
    descriptor.name = util::format("%s_v%zu", base.descriptor.name.c_str(), i);
    variants.push_back(make_spec(std::move(descriptor), base.precision, draw_seed(rng)));
  }
  return variants;
}

/// `per_design` seeded images for every design, interleaved across designs so
/// a connection walking the pool rotates over all of them. Expected logits
/// come from build_network + init_weights(Rng(seed)) on the server's kernel
/// engine and precision (infer_batch is bit-identical to infer in a mode).
std::vector<PredictCase> make_predicts(const std::vector<DesignSpec>& designs,
                                       std::size_t per_design, util::Rng& rng) {
  std::vector<nn::Network> nets;
  std::vector<std::unique_ptr<nn::ExecutionContext>> contexts;
  for (const DesignSpec& spec : designs) {
    nets.push_back(build_reference(spec));
  }
  for (std::size_t d = 0; d < designs.size(); ++d) {
    contexts.push_back(std::make_unique<nn::ExecutionContext>(
        nets[d], nn::kernels::active(), nullptr, designs[d].precision, nullptr));
  }
  std::vector<PredictCase> cases;
  for (std::size_t i = 0; i < per_design; ++i) {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      tensor::Tensor image(nets[d].input_shape());
      image.fill_uniform(rng, -1.0f, 1.0f);
      std::vector<std::uint8_t> raw(image.size() * sizeof(float));
      std::memcpy(raw.data(), image.data(), raw.size());
      json::Object body;
      body["design_id"] = designs[d].key;
      body["image_base64"] = util::base64_encode(raw);

      PredictCase c;
      c.design = d;
      c.body = json::Value(std::move(body)).dump();
      const tensor::Tensor& logits = nets[d].infer(image, *contexts[d]);
      c.expected.assign(logits.data(), logits.data() + logits.size());
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

Plan cifar_direct(std::uint64_t seed) {
  Plan plan;
  util::Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    plan.designs.push_back(make_spec(cifar_test4(util::format("cifar_t4_%d", i)),
                                     nn::ServePrecision::kFloat32, draw_seed(rng)));
  }
  plan.predicts = make_predicts(plan.designs, 8, rng);
  plan.variants = make_variants(plan.designs, kVariants, rng);
  return plan;
}

/// Four int8 USPS designs whose ring primaries split 2+2 over the router's
/// two workers, using the router's own ring (same worker ids, default vnodes)
/// and key function: both workers carry load whatever the seed.
Plan usps_routed(std::uint64_t seed) {
  Plan plan;
  plan.routed = true;
  util::Rng rng(seed);
  serve::shard::HashRing ring;
  ring.add("worker-0");
  ring.add("worker-1");
  std::map<std::string, int> primaries;
  for (int candidate = 0; plan.designs.size() < 4; ++candidate) {
    if (candidate >= 4096) throw std::logic_error("usps_routed: no 2+2 primary split found");
    DesignSpec spec = make_spec(usps_test2(util::format("usps_t2_%d", candidate)),
                                nn::ServePrecision::kInt8, draw_seed(rng));
    int& count = primaries[ring.primary(spec.key)];
    if (count >= 2) continue;
    ++count;
    plan.designs.push_back(std::move(spec));
  }
  plan.predicts = make_predicts(plan.designs, 8, rng);
  plan.variants = make_variants(plan.designs, kVariants, rng);
  return plan;
}

}  // namespace

Plan make_plan(const std::string& workload, std::uint64_t seed) {
  if (workload == "cifar_direct") return cifar_direct(seed);
  if (workload == "usps_routed") return usps_routed(seed);
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (want cifar_direct, usps_routed)");
}

}  // namespace perfbench
