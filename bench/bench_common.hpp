// Shared setup for the benches: the four case-study descriptors of the
// paper's evaluation (Sec. V), and the one measurement harness every timed
// comparison runs on (client fan-out, closed-loop percentiles, the A/B duel,
// the bitwise logits check and the routed-design recipe).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cnn2fpga.hpp"
#include "util/base64.hpp"

namespace cnn2fpga::bench {

inline core::NetworkDescriptor usps_test1_descriptor(bool optimize) {
  core::NetworkDescriptor d;
  d.name = optimize ? "usps_test2" : "usps_test1";
  d.board = "zedboard";
  d.input_channels = 1;
  d.input_height = 16;
  d.input_width = 16;
  d.optimize = optimize;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 6;
  conv.conv.kernel_h = conv.conv.kernel_w = 5;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 10;
  d.layers = {conv, lin};
  return d;
}

inline core::NetworkDescriptor usps_test3_descriptor() {
  core::NetworkDescriptor d = usps_test1_descriptor(true);
  d.name = "usps_test3";
  core::LayerSpec conv2;
  conv2.type = core::LayerSpec::Type::kConv;
  conv2.conv.feature_maps_out = 16;
  conv2.conv.kernel_h = conv2.conv.kernel_w = 5;
  d.layers.insert(d.layers.begin() + 1, conv2);
  return d;
}

inline core::NetworkDescriptor cifar_test4_descriptor() {
  core::NetworkDescriptor d;
  d.name = "cifar10_test4";
  d.board = "zedboard";
  d.input_channels = 3;
  d.input_height = 32;
  d.input_width = 32;
  d.optimize = true;
  core::LayerSpec conv1;
  conv1.type = core::LayerSpec::Type::kConv;
  conv1.conv.feature_maps_out = 12;
  conv1.conv.kernel_h = conv1.conv.kernel_w = 5;
  conv1.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec conv2;
  conv2.type = core::LayerSpec::Type::kConv;
  conv2.conv.feature_maps_out = 36;
  conv2.conv.kernel_h = conv2.conv.kernel_w = 5;
  conv2.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin1;
  lin1.type = core::LayerSpec::Type::kLinear;
  lin1.linear.neurons = 36;
  lin1.linear.activation = nn::ActKind::kTanh;
  core::LayerSpec lin2;
  lin2.type = core::LayerSpec::Type::kLinear;
  lin2.linear.neurons = 10;
  d.layers = {conv1, conv2, lin1, lin2};
  return d;
}

/// Train the Test-1/2/3 networks on the synthetic USPS corpus (the paper uses
/// Torch offline; the budget here is sized so a bench run stays in seconds).
inline nn::Network train_usps_network(const core::NetworkDescriptor& descriptor,
                                      std::uint64_t seed, std::size_t epochs = 6,
                                      float learning_rate = 0.005f) {
  data::UspsConfig train_config;
  train_config.samples_per_class = 20;
  train_config.seed = 100 + seed;
  const auto train_set = data::generate_usps(train_config).samples;

  nn::Network net = descriptor.build_network();
  util::Rng rng(seed);
  net.init_weights(rng);

  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.learning_rate = learning_rate;
  nn::SgdTrainer(tc).train(net, train_set, {});
  return net;
}

inline std::vector<nn::Sample> usps_test_set(std::size_t count, std::uint64_t seed = 777) {
  data::UspsConfig config;
  config.samples_per_class = (count + 9) / 10;
  config.seed = seed;
  auto samples = data::generate_usps(config).samples;
  samples.resize(count);
  return samples;
}

inline std::vector<nn::Sample> cifar_test_set(std::size_t count, std::uint64_t seed = 888) {
  data::CifarConfig config;
  config.samples_per_class = (count + 9) / 10;
  config.seed = seed;
  auto samples = data::generate_cifar(config).samples;
  samples.resize(count);
  return samples;
}

inline std::string pct(double fraction) { return util::format("%.2f%%", fraction * 100.0); }

// ------------------------------------------------------------------ harness

/// Refuses any flag `known` does not name, and any bare argument, naming it
/// on stderr: a misspelled flag would otherwise run another mode and gate it.
inline bool only_flags(const util::CliArgs& args, std::initializer_list<const char*> known) {
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

/// Uniform [-1, 1) values drawn from `seed`.
inline tensor::Tensor random_tensor(const nn::Shape& shape, std::uint64_t seed) {
  tensor::Tensor t{shape};
  util::Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Runs client(c) for c in [0, clients) on that many threads at once, joins
/// them and returns the wall seconds.
template <class Client>
double run_clients(std::size_t clients, Client&& client) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back([&client, c] { client(c); });
  for (std::thread& thread : threads) thread.join();
  return seconds_since(start);
}

struct ClosedLoop {
  double seconds = 0.0;  ///< wall time of the whole loop
  double p50_us = 0.0;   ///< per-request latency percentiles
  double p95_us = 0.0;
};

/// Closed loop: `clients` threads each issue request(c, i) for i in
/// [0, per_client), one at a time, so the percentiles time the request path
/// rather than a backlog.
template <class Request>
ClosedLoop closed_loop(std::size_t clients, std::size_t per_client, Request&& request) {
  std::vector<std::vector<double>> latencies(clients);
  ClosedLoop out;
  out.seconds = run_clients(clients, [&](std::size_t c) {
    latencies[c].reserve(per_client);
    for (std::size_t i = 0; i < per_client; ++i) {
      const auto start = std::chrono::steady_clock::now();
      request(c, i);
      latencies[c].push_back(seconds_since(start) * 1e6);
    }
  });
  std::vector<double> all;
  for (const auto& client : latencies) all.insert(all.end(), client.begin(), client.end());
  std::sort(all.begin(), all.end());
  out.p50_us = all[all.size() / 2];
  out.p95_us = all[(all.size() * 95) / 100];
  return out;
}

/// Median, min and max of per-round values.
struct Spread {
  std::vector<double> values;  ///< round by round
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;

  explicit Spread(std::vector<double> rounds) : values(std::move(rounds)) {
    if (values.empty()) return;  // a side that never ran: no ratio passes a gate
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    median = sorted[sorted.size() / 2];
    min = sorted.front();
    max = sorted.back();
  }
};

/// Both sides' readings of a duel, round by round.
template <class Reading>
struct Duel {
  std::vector<Reading> a, b;

  /// score(a) / score(b), round by round: a gate checks its median.
  template <class Score = std::identity>
  Spread ratio(Score score = {}) const {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ratios.push_back(std::invoke(score, a[r]) / std::invoke(score, b[r]));
    }
    return Spread(std::move(ratios));
  }
};

/// Median over one side's readings.
template <class Reading, class Score = std::identity>
double median(const std::vector<Reading>& side, Score score = {}) {
  std::vector<double> values;
  for (const Reading& reading : side) values.push_back(std::invoke(score, reading));
  return Spread(std::move(values)).median;
}

/// Runs a() and b() for `rounds` rounds, alternating which runs first, so a
/// drift in the host's speed falls on both sides alike. A ratio of one pair
/// measured once moves with the host; the median over rounds is what a gate
/// checks.
template <class A, class B>
Duel<std::invoke_result_t<A&>> duel(std::size_t rounds, A&& a, B&& b) {
  Duel<std::invoke_result_t<A&>> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (r % 2 == 0) out.a.push_back(a());  // A first in even rounds,
    out.b.push_back(b());
    if (r % 2 == 1) out.a.push_back(a());  // B first in odd ones
  }
  return out;
}

/// True when `got` holds exactly `want`'s floats, bit for bit.
inline bool same_bits(const std::vector<float>& got, const tensor::Tensor& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
}

/// The same check on a predict response body's "logits". An unparsable body
/// is no prediction.
inline bool same_bits(const std::string& body, const tensor::Tensor& want) {
  try {
    const json::Value doc = json::parse(body);
    std::vector<float> got;
    for (const json::Value& logit : doc.at("logits").as_array()) {
      got.push_back(static_cast<float>(logit.as_double()));
    }
    return same_bits(got, want);
  } catch (const std::exception&) {
    return false;
  }
}

/// A predict body carrying the image as base64 of its raw floats, so no text
/// round trip can excuse a mismatch.
inline std::string predict_body(const std::string& design_id, const tensor::Tensor& image) {
  std::vector<std::uint8_t> raw(image.size() * sizeof(float));
  std::memcpy(raw.data(), image.data(), raw.size());
  return json::Value(json::Object{{"design_id", design_id},
                                  {"image_base64", util::base64_encode(raw)}})
      .dump();
}

/// The deploy body of `descriptor` with weights from seed 1.
inline std::string seeded_deploy_body(const core::NetworkDescriptor& descriptor) {
  json::Value doc = descriptor.to_json();
  doc.as_object()["seed"] = 1;
  return doc.dump();
}

struct RoutedDesign {
  std::string predict_body;  ///< one image for the deployed design
  tensor::Tensor expected;   ///< its logits on the local scalar engine
};

/// Deploys `descriptor` (seed 1) through every router and returns a predict
/// body for one image drawn from `image_seed` with its scalar reference
/// logits. The registry expands a seed deploy as build_network +
/// init_weights(Rng(seed)), so the same expansion here gives the logits a
/// scalar-pinned worker must answer bit for bit. std::nullopt, with the
/// reason on stderr, unless every router answers 200.
inline std::optional<RoutedDesign> deploy_routed(
    const core::NetworkDescriptor& descriptor, std::uint64_t image_seed,
    std::initializer_list<serve::shard::Router*> routers) {
  web::HttpRequest request;
  request.method = "POST";
  request.body = seeded_deploy_body(descriptor);
  std::string design_id;
  for (serve::shard::Router* router : routers) {
    const web::HttpResponse response = router->handle_deploy(request);
    if (response.status != 200) {
      std::fprintf(stderr, "deploy of %s answered %d\n", descriptor.name.c_str(),
                   response.status);
      return std::nullopt;
    }
    design_id = json::parse(response.body).at("design_id").as_string();
  }
  nn::Network net = descriptor.build_network();
  util::Rng weight_rng(1);
  net.init_weights(weight_rng);
  nn::ExecutionContext ctx(net, nn::kernels::Kind::kScalar, nullptr);
  const tensor::Tensor image = random_tensor(net.input_shape(), image_seed);
  return RoutedDesign{predict_body(design_id, image), net.infer(image, ctx)};
}

}  // namespace cnn2fpga::bench
