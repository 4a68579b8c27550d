// Parameterized property sweeps across numeric formats, weights modes and
// generated-code structure (complements test_properties.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <tuple>
#include <typeinfo>

#include "core/framework.hpp"
#include "util/fileio.hpp"
#include "hls/estimator.hpp"
#include "hls/schedule.hpp"
#include "nn/fixed_inference.hpp"
#include "util/strings.hpp"

using namespace cnn2fpga;
using nn::FixedPointFormat;
using nn::NumericFormat;
using nn::Shape;
using nn::Tensor;

// ------------------------------------------------------ fixed-format sweep

class FixedFormatSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FixedFormatSweep, QuantizationInvariants) {
  const auto [total, frac] = GetParam();
  const FixedPointFormat fmt{total, frac};
  fmt.validate();

  util::Rng rng(static_cast<std::uint64_t>(total * 100 + frac));
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 4.0));
    const std::int32_t raw = nn::fixed_quantize(v, fmt);
    // Raw value is always within the representable range.
    EXPECT_GE(raw, fmt.min_raw());
    EXPECT_LE(raw, fmt.max_raw());
    // In-range values round-trip within half a resolution step.
    const double max_val = static_cast<double>(fmt.max_raw()) / static_cast<double>(fmt.scale());
    if (std::fabs(v) < max_val - fmt.resolution()) {
      EXPECT_NEAR(nn::fixed_dequantize(raw, fmt), v, fmt.resolution() / 2 + 1e-7);
    }
  }
  // Quantization is monotone: v1 <= v2 => q(v1) <= q(v2).
  float prev_v = -1e9f;
  std::int32_t prev_raw = nn::fixed_quantize(prev_v, fmt);
  for (int i = 0; i < 100; ++i) {
    const float v = -50.0f + static_cast<float>(i);
    const std::int32_t raw = nn::fixed_quantize(v, fmt);
    EXPECT_GE(raw, prev_raw) << "monotonicity violated between " << prev_v << " and " << v;
    prev_v = v;
    prev_raw = raw;
  }
}

TEST_P(FixedFormatSweep, FixedInferencePredictsSanely) {
  const auto [total, frac] = GetParam();
  // Formats with at least 6 fractional bits should mostly agree with float
  // on a small network with unit-scale inputs.
  if (frac < 6) GTEST_SKIP() << "too coarse for agreement guarantee";

  nn::Network net(Shape{1, 6, 6}, "sweep");
  net.add_conv(2, 3, 3);
  net.add_linear(3);
  net.add_logsoftmax();
  util::Rng rng(42);
  net.init_weights(rng);

  int agree = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    Tensor image(Shape{1, 6, 6});
    image.fill_uniform(rng, 0.0f, 1.0f);
    if (nn::forward_fixed(net, image, {total, frac}).predicted == net.predict(image)) ++agree;
  }
  EXPECT_GE(agree, trials - 2) << FixedPointFormat{total, frac}.name();
}

INSTANTIATE_TEST_SUITE_P(Formats, FixedFormatSweep,
                         ::testing::Values(std::make_tuple(8, 4), std::make_tuple(12, 6),
                                           std::make_tuple(16, 8), std::make_tuple(18, 10),
                                           std::make_tuple(24, 12), std::make_tuple(32, 16)));

// ------------------------------------------------- generation config sweep

namespace {
core::NetworkDescriptor sweep_descriptor(bool optimize, bool streamed, bool fixed) {
  core::NetworkDescriptor d;
  d.name = "config_sweep";
  d.input_channels = 1;
  d.input_height = 10;
  d.input_width = 10;
  d.optimize = optimize;
  d.streamed_weights = streamed;
  if (fixed) d.precision = NumericFormat::fixed_point(16, 8);
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 4;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 5;
  d.layers = {conv, lin};
  return d;
}
}  // namespace

class GenerationConfigSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(GenerationConfigSweep, EveryConfigurationGeneratesConsistently) {
  const auto [optimize, streamed, fixed] = GetParam();
  const core::NetworkDescriptor d = sweep_descriptor(optimize, streamed, fixed);

  const core::GeneratedDesign design = core::Framework::generate_with_random_weights(d, 5);
  // The descriptor dumped with the artifacts reparses to the same config.
  const core::NetworkDescriptor reparsed = core::NetworkDescriptor::from_json(d.to_json());
  EXPECT_EQ(reparsed.optimize, optimize);
  EXPECT_EQ(reparsed.streamed_weights, streamed);
  EXPECT_EQ(reparsed.precision.is_fixed, fixed);

  // Source structure follows the flags.
  EXPECT_EQ(design.cpp_source.find("#pragma HLS DATAFLOW") != std::string::npos, optimize);
  EXPECT_EQ(design.cpp_source.find("load_weights") != std::string::npos, streamed);
  EXPECT_EQ(design.cpp_source.find("typedef int fixed_t") != std::string::npos, fixed);

  // Report structure follows the flags.
  EXPECT_EQ(design.hls_report.weight_load_cycles > 0, streamed);
  EXPECT_EQ(design.hls_report.interval_cycles < design.hls_report.latency_cycles, optimize);
  EXPECT_TRUE(design.hls_report.fits());

  // Directives never change the tcl count.
  EXPECT_EQ(design.tcl_files.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Grid, GenerationConfigSweep,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool()));

// ------------------------------------------------- analysis vs generation

namespace {

/// "<dynamic type>: <what()>" of the exception `run` throws, or "" if none.
template <typename Fn>
std::string thrown_by(Fn&& run) {
  try {
    run();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "";
}

/// Framework::analyze must throw exactly what generate throws, and otherwise
/// report what generate reports: the emitters are no check of their own.
/// Returns analyze's exception ("" when it succeeded).
std::string expect_analyze_matches_generate(const core::NetworkDescriptor& d,
                                            const nn::Network& net) {
  core::DesignAnalysis analysis;
  core::GeneratedDesign design;
  const std::string analyze_error =
      thrown_by([&] { analysis = core::Framework::analyze(d, net); });
  const std::string generate_error =
      thrown_by([&] { design = core::Framework::generate(d, net); });
  EXPECT_EQ(analyze_error, generate_error) << d.name;
  if (analyze_error.empty() && generate_error.empty()) {
    const hls::HlsReport& a = analysis.hls_report;
    const hls::HlsReport& g = design.hls_report;
    EXPECT_EQ(a.to_string(), g.to_string()) << d.name;
    EXPECT_EQ(a.latency_cycles, g.latency_cycles) << d.name;
    EXPECT_EQ(a.interval_cycles, g.interval_cycles) << d.name;
    EXPECT_EQ(a.weight_load_cycles, g.weight_load_cycles) << d.name;
    EXPECT_EQ(a.latency_seconds(), g.latency_seconds()) << d.name;
    EXPECT_EQ(a.fits(), g.fits()) << d.name;
    EXPECT_EQ(analysis.warnings, design.warnings) << d.name;
    EXPECT_EQ(analysis.descriptor.to_json().dump(), design.descriptor.to_json().dump());
  }
  return analyze_error;
}

nn::Network seeded_network(const core::NetworkDescriptor& d, std::uint64_t seed) {
  nn::Network net = d.build_network();
  util::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

/// The paper's four case studies (Sec. V): USPS Tests 1-3 and CIFAR-10 Test 4.
const char* const kCaseStudies[] = {
    R"({"name": "usps_test1", "input": {"channels": 1, "height": 16, "width": 16},
        "layers": [{"type": "conv", "feature_maps_out": 6, "kernel": 5,
                    "pool": {"type": "max", "kernel": 2}},
                   {"type": "linear", "neurons": 10}]})",
    R"({"name": "usps_test2", "optimize": true,
        "input": {"channels": 1, "height": 16, "width": 16},
        "layers": [{"type": "conv", "feature_maps_out": 6, "kernel": 5,
                    "pool": {"type": "max", "kernel": 2}},
                   {"type": "linear", "neurons": 10}]})",
    R"({"name": "usps_test3", "optimize": true,
        "input": {"channels": 1, "height": 16, "width": 16},
        "layers": [{"type": "conv", "feature_maps_out": 6, "kernel": 5,
                    "pool": {"type": "max", "kernel": 2}},
                   {"type": "conv", "feature_maps_out": 16, "kernel": 5},
                   {"type": "linear", "neurons": 10}]})",
    R"({"name": "cifar10_test4", "optimize": true,
        "input": {"channels": 3, "height": 32, "width": 32},
        "layers": [{"type": "conv", "feature_maps_out": 12, "kernel": 5,
                    "pool": {"type": "max", "kernel": 2}},
                   {"type": "conv", "feature_maps_out": 36, "kernel": 5,
                    "pool": {"type": "max", "kernel": 2}},
                   {"type": "linear", "neurons": 36, "tanh": true},
                   {"type": "linear", "neurons": 10}]})",
};

}  // namespace

TEST_P(GenerationConfigSweep, AnalyzeReportsWhatGenerateReports) {
  const auto [optimize, streamed, fixed] = GetParam();
  const core::NetworkDescriptor d = sweep_descriptor(optimize, streamed, fixed);
  EXPECT_EQ(expect_analyze_matches_generate(d, seeded_network(d, 5)), "");
}

TEST(AnalyzeVsGenerate, PaperCaseStudies) {
  for (const char* text : kCaseStudies) {
    const core::NetworkDescriptor d = core::NetworkDescriptor::from_json_text(text);
    EXPECT_EQ(expect_analyze_matches_generate(d, seeded_network(d, 1)), "") << d.name;
  }
}

TEST(AnalyzeVsGenerate, RejectionsAndWarningsComeBeforeEmission) {
  const auto test1 = core::NetworkDescriptor::from_json_text(kCaseStudies[0]);
  const auto test3 = core::NetworkDescriptor::from_json_text(kCaseStudies[2]);

  // A trained network whose structure is not the descriptor's.
  EXPECT_NE(expect_analyze_matches_generate(test1, seeded_network(test3, 1))
                .find("network does not match descriptor"),
            std::string::npos);

  // An invalid fixed format set on a hand-built descriptor (from_json would
  // refuse it, validate() does not look at it).
  core::NetworkDescriptor bad_fixed = test1;
  bad_fixed.precision.is_fixed = true;
  bad_fixed.precision.fixed = FixedPointFormat{40, 8};
  EXPECT_NE(expect_analyze_matches_generate(bad_fixed, seeded_network(test1, 1))
                .find("total_bits 40"),
            std::string::npos);

  // A descriptor mutated after parsing into an invalid one.
  core::NetworkDescriptor no_board = test1;
  no_board.board = "de10";
  EXPECT_NE(expect_analyze_matches_generate(no_board, seeded_network(test1, 1)).find("de10"),
            std::string::npos);

  // The over-budget Zybo design of test_failure_injection is flagged with
  // warnings, not rejected.
  const auto over_budget = core::NetworkDescriptor::from_json_text(
      R"({"name": "monster", "board": "zybo", "optimize": true,
          "input": {"channels": 3, "height": 32, "width": 32},
          "layers": [{"type": "conv", "feature_maps_out": 8, "kernel": 5,
                      "pool": {"type": "max", "kernel": 2}},
                     {"type": "linear", "neurons": 160},
                     {"type": "linear", "neurons": 10}]})");
  const nn::Network net = seeded_network(over_budget, 1);
  EXPECT_EQ(expect_analyze_matches_generate(over_budget, net), "");
  const core::DesignAnalysis analysis = core::Framework::analyze(over_budget, net);
  EXPECT_FALSE(analysis.hls_report.fits());
  EXPECT_FALSE(analysis.warnings.empty());

  // A design that fits the Zybo with under 10% of its DSPs to spare.
  const auto dsp_bound = core::NetworkDescriptor::from_json_text(
      R"({"name": "dsp_bound", "board": "zybo", "optimize": true,
          "input": {"channels": 1, "height": 16, "width": 16},
          "layers": [{"type": "conv", "feature_maps_out": 4, "kernel": 3},
                     {"type": "conv", "feature_maps_out": 4, "kernel": 3},
                     {"type": "linear", "neurons": 8},
                     {"type": "linear", "neurons": 8}]})");
  const nn::Network dsp_net = seeded_network(dsp_bound, 1);
  EXPECT_EQ(expect_analyze_matches_generate(dsp_bound, dsp_net), "");
  const core::DesignAnalysis tight = core::Framework::analyze(dsp_bound, dsp_net);
  EXPECT_TRUE(tight.hls_report.fits());
  EXPECT_EQ(tight.warnings,
            std::vector<std::string>{
                "DSP utilization above 90%: little headroom for a larger network"});
}

// --------------------------------------------------------- codegen golden

TEST(CodegenGolden, StableStructureSnapshot) {
  // Guards the emitter against accidental structural drift: the generated
  // file for a fixed tiny network must contain these exact lines in order.
  core::NetworkDescriptor d;
  d.name = "golden";
  d.input_channels = 1;
  d.input_height = 4;
  d.input_width = 4;
  d.optimize = true;
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 1;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 2;
  d.layers = {conv, lin};

  nn::Network net = d.build_network();
  // Deterministic weights so even the literals are stable.
  for (const nn::Param& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      (*p.value)[i] = static_cast<float>(i) * 0.25f - 0.5f;
    }
  }
  const std::string src = core::generate_cpp(d, net);

  const char* expected_in_order[] = {
      "// golden.cpp -- synthesizable CNN generated by cnn2fpga",
      "static const float w_conv0[9] = {",
      "-0.5f, -0.25f, 0.0f, 0.25f, 0.5f, 0.75f, 1.0f, 1.25f, 1.5f",
      "static const float w_linear1[8] = {",
      "int cnn_core(const float in[16], float scores[2]) {",
      "#pragma HLS DATAFLOW",
      "L0_k: for (int k = 0; k < 1; ++k) {",
      "#pragma HLS PIPELINE II=1",
      "L1_j: for (int j = 0; j < 2; ++j) {",
      "LS_out: for (int k = 0; k < 2; ++k) {",
      "ARGMAX: for (int k = 1; k < 2; ++k) {",
      "int cnn_xtop(float_stream &in_stream, float_stream &out_stream) {",
      "#ifdef CNN2FPGA_TESTBENCH",
  };
  std::size_t cursor = 0;
  for (const char* needle : expected_in_order) {
    const std::size_t pos = src.find(needle, cursor);
    ASSERT_NE(pos, std::string::npos) << "missing or out of order: " << needle;
    cursor = pos;
  }
}

// -------------------------------------- compile-and-run equivalence sweep

namespace {

struct EquivalenceConfig {
  nn::ActKind activation;
  nn::PoolKind pool;
  bool fixed;
};

std::string config_name(const ::testing::TestParamInfo<EquivalenceConfig>& info) {
  const auto& c = info.param;
  std::string name = c.activation == nn::ActKind::kTanh      ? "tanh"
                     : c.activation == nn::ActKind::kSigmoid ? "sigmoid"
                                                             : "relu";
  name += c.pool == nn::PoolKind::kMax ? "_max" : "_mean";
  name += c.fixed ? "_fixed" : "_float";
  return name;
}

}  // namespace

class CodegenEquivalenceSweep : public ::testing::TestWithParam<EquivalenceConfig> {};

TEST_P(CodegenEquivalenceSweep, GeneratedBinaryMatchesReference) {
  const EquivalenceConfig& config = GetParam();

  core::NetworkDescriptor d;
  d.name = "equiv_sweep";
  d.input_channels = 1;
  d.input_height = 8;
  d.input_width = 8;
  d.optimize = true;
  if (config.fixed) d.precision = NumericFormat::fixed_point(16, 8);
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 2;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  conv.conv.activation = config.activation;
  conv.conv.pool = core::PoolSpec{config.pool, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 3;
  lin.linear.activation = config.activation;
  core::LayerSpec lin2;
  lin2.type = core::LayerSpec::Type::kLinear;
  lin2.linear.neurons = 4;
  d.layers = {conv, lin, lin2};

  nn::Network net = d.build_network();
  util::Rng rng(31);
  net.init_weights(rng);

  const std::string dir = util::make_temp_dir("cnn2fpga-equiv");
  util::write_file(dir + "/gen.cpp", core::generate_cpp(d, net));
  const char* cxx = std::getenv("CXX");
  const std::string compiler = cxx != nullptr && *cxx != '\0' ? cxx : "c++";
  ASSERT_EQ(std::system(util::format("%s -O1 -std=c++17 -DCNN2FPGA_TESTBENCH "
                                     "-Wno-unknown-pragmas -o %s/tb %s/gen.cpp 2> %s/cc.log",
                                     compiler.c_str(), dir.c_str(), dir.c_str(), dir.c_str())
                            .c_str()),
            0)
      << util::read_file(dir + "/cc.log");

  for (int trial = 0; trial < 3; ++trial) {
    Tensor image(Shape{1, 8, 8});
    image.fill_uniform(rng, -1.0f, 1.0f);
    std::string input;
    for (std::size_t i = 0; i < image.size(); ++i) {
      input += util::format("%a\n", static_cast<double>(image[i]));
    }
    util::write_file(dir + "/in.txt", input);
    ASSERT_EQ(std::system(util::format("%s/tb < %s/in.txt > %s/out.txt", dir.c_str(),
                                       dir.c_str(), dir.c_str())
                              .c_str()),
              0);
    const auto lines = util::split(util::read_file(dir + "/out.txt"), '\n');

    Tensor expected;
    std::size_t expected_pred;
    if (config.fixed) {
      const nn::FixedForwardResult r = nn::forward_fixed(net, image, d.precision.fixed);
      expected = r.scores;
      expected_pred = r.predicted;
    } else {
      expected = net.forward(image);
      expected_pred = expected.argmax();
    }
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(std::strtof(lines.at(k).c_str(), nullptr), expected[k])
          << "trial " << trial << " score " << k;
    }
    EXPECT_EQ(static_cast<std::size_t>(std::strtol(lines.at(4).c_str(), nullptr, 10)),
              expected_pred);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodegenEquivalenceSweep,
    ::testing::Values(
        EquivalenceConfig{nn::ActKind::kTanh, nn::PoolKind::kMax, false},
        EquivalenceConfig{nn::ActKind::kTanh, nn::PoolKind::kMean, false},
        EquivalenceConfig{nn::ActKind::kReLU, nn::PoolKind::kMax, false},
        EquivalenceConfig{nn::ActKind::kReLU, nn::PoolKind::kMean, false},
        EquivalenceConfig{nn::ActKind::kSigmoid, nn::PoolKind::kMax, false},
        EquivalenceConfig{nn::ActKind::kTanh, nn::PoolKind::kMax, true},
        EquivalenceConfig{nn::ActKind::kTanh, nn::PoolKind::kMean, true},
        EquivalenceConfig{nn::ActKind::kReLU, nn::PoolKind::kMax, true},
        EquivalenceConfig{nn::ActKind::kReLU, nn::PoolKind::kMean, true},
        EquivalenceConfig{nn::ActKind::kSigmoid, nn::PoolKind::kMax, true}),
    config_name);

// ------------------------------------------------------- HLS format sweep

TEST(HlsFormatSweep, FixedLatencyNeverExceedsFloat) {
  for (const auto& net_maker : {&nn::make_test1_network, &nn::make_test3_network}) {
    const nn::Network net = net_maker();
    for (const bool pipeline : {false, true}) {
      const hls::DirectiveSet directives{pipeline, pipeline};
      const auto float_report = hls::estimate(net, directives, hls::zedboard());
      const auto fixed_report = hls::estimate(net, directives, hls::zedboard(),
                                              NumericFormat::fixed_point(16, 8));
      EXPECT_LE(fixed_report.latency_cycles, float_report.latency_cycles);
      EXPECT_LE(fixed_report.usage.dsp, float_report.usage.dsp);
    }
  }
}

TEST(HlsFormatSweep, StreamedFlagOnlyAffectsRomnessAndUpload) {
  const nn::Network net = nn::make_test1_network();
  const auto plain = hls::lower_network(net, hls::DirectiveSet::optimized());
  const auto streamed = hls::lower_network(net, hls::DirectiveSet::optimized(),
                                           NumericFormat::float32(), true);
  ASSERT_EQ(plain.blocks.size(), streamed.blocks.size());
  for (std::size_t b = 0; b < plain.blocks.size(); ++b) {
    ASSERT_EQ(plain.blocks[b].arrays.size(), streamed.blocks[b].arrays.size());
    for (std::size_t a = 0; a < plain.blocks[b].arrays.size(); ++a) {
      EXPECT_EQ(plain.blocks[b].arrays[a].depth, streamed.blocks[b].arrays[a].depth);
      EXPECT_FALSE(streamed.blocks[b].arrays[a].is_rom);
    }
    EXPECT_EQ(hls::block_latency(plain.blocks[b]), hls::block_latency(streamed.blocks[b]));
  }
}
