// Tests for the fixed-point extension: quantization helpers, the quantized
// reference model, descriptor plumbing, HLS resource effects, and the
// compile-and-run bit-exactness of the generator's fixed mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "axi/block_design.hpp"
#include "core/framework.hpp"
#include "data/synth_usps.hpp"
#include "nn/fixed_inference.hpp"
#include "nn/trainer.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"

using namespace cnn2fpga;
using nn::FixedPointFormat;
using nn::NumericFormat;
using nn::Shape;
using nn::Tensor;

// ---------------------------------------------------------------- formats

TEST(FixedFormat, BasicProperties) {
  const FixedPointFormat q88{16, 8};
  EXPECT_EQ(q88.name(), "Q8.8");
  EXPECT_EQ(q88.scale(), 256);
  EXPECT_EQ(q88.max_raw(), 32767);
  EXPECT_EQ(q88.min_raw(), -32768);
  EXPECT_DOUBLE_EQ(q88.resolution(), 1.0 / 256.0);
  EXPECT_NO_THROW(q88.validate());
}

TEST(FixedFormat, ValidationRejectsBadConfigs) {
  EXPECT_THROW((FixedPointFormat{1, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((FixedPointFormat{16, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((FixedPointFormat{16, 16}).validate(), std::invalid_argument);
  EXPECT_THROW((FixedPointFormat{40, 8}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((FixedPointFormat{8, 4}).validate());
  EXPECT_NO_THROW((FixedPointFormat{32, 16}).validate());
}

TEST(FixedQuantize, RoundTripWithinResolution) {
  const FixedPointFormat fmt{16, 8};
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float back = nn::fixed_dequantize(nn::fixed_quantize(v, fmt), fmt);
    EXPECT_NEAR(back, v, fmt.resolution() / 2.0 + 1e-6);
  }
}

TEST(FixedQuantize, Saturates) {
  const FixedPointFormat fmt{8, 4};  // range [-8, 7.9375]
  EXPECT_EQ(nn::fixed_quantize(100.0f, fmt), fmt.max_raw());
  EXPECT_EQ(nn::fixed_quantize(-100.0f, fmt), fmt.min_raw());
  EXPECT_EQ(nn::fixed_quantize(std::nanf(""), fmt), fmt.max_raw());  // defined behaviour
}

TEST(FixedQuantize, RenormalizeRoundsHalfUpAndSaturates) {
  const FixedPointFormat fmt{16, 8};
  // 2*frac-scaled accumulator of value 1.5 * 256 * 256.
  EXPECT_EQ(nn::fixed_renormalize(static_cast<std::int64_t>(1.5 * 256 * 256), fmt), 384);
  // Exactly +0.5 ULP rounds up.
  EXPECT_EQ(nn::fixed_renormalize(128, fmt), 1);
  EXPECT_EQ(nn::fixed_renormalize(127, fmt), 0);
  // Overflow saturates.
  EXPECT_EQ(nn::fixed_renormalize(std::int64_t{1} << 40, fmt), fmt.max_raw());
  EXPECT_EQ(nn::fixed_renormalize(-(std::int64_t{1} << 40), fmt), fmt.min_raw());
}

// --------------------------------------------------------------- inference

namespace {
nn::Network trained_tiny_net() {
  nn::Network net(Shape{1, 8, 8}, "fixed_test");
  net.add_conv(3, 3, 3);
  net.add_max_pool(2, 2);
  net.add_linear(4);
  net.add_logsoftmax();
  util::Rng rng(7);
  net.init_weights(rng);
  return net;
}
}  // namespace

TEST(FixedInference, HighPrecisionMatchesFloatClosely) {
  nn::Network net = trained_tiny_net();
  const FixedPointFormat fmt{32, 16};  // Q16.16: resolution 1.5e-5
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor image(Shape{1, 8, 8});
    image.fill_uniform(rng, 0.0f, 1.0f);
    const Tensor ref = net.forward(image);
    const nn::FixedForwardResult fixed = nn::forward_fixed(net, image, fmt);
    EXPECT_EQ(fixed.predicted, ref.argmax());
    EXPECT_LT(fixed.output_error, 0.01f);
  }
}

TEST(FixedInference, CoarseFormatsDegradeGracefully) {
  nn::Network net = trained_tiny_net();
  util::Rng rng(3);
  Tensor image(Shape{1, 8, 8});
  image.fill_uniform(rng, 0.0f, 1.0f);
  const float err16 = nn::forward_fixed(net, image, {16, 8}).output_error;
  const float err32 = nn::forward_fixed(net, image, {32, 16}).output_error;
  EXPECT_LT(err32, err16);   // finer format, smaller error
  EXPECT_LT(err16, 0.5f);    // Q8.8 still usable
}

TEST(FixedInference, PredictionParityOnTrainedDigits) {
  // A trained Test-1 network quantized to Q8.8 keeps (nearly) its accuracy —
  // the fixed-point extension's whole point.
  data::UspsConfig config;
  config.samples_per_class = 10;
  const auto train_set = data::generate_usps(config).samples;
  config.seed = 99;
  const auto test_set = data::generate_usps(config).samples;

  nn::Network net = nn::make_test1_network();
  util::Rng rng(8);
  net.init_weights(rng);
  nn::TrainConfig tc;
  tc.epochs = 5;
  nn::SgdTrainer(tc).train(net, train_set, {});

  const float float_error = nn::SgdTrainer::evaluate_error(net, test_set);
  const float fixed_error = nn::evaluate_error_fixed(net, test_set, {16, 8});
  EXPECT_LT(fixed_error, float_error + 0.05f);
}

TEST(FixedInference, ReluAndMeanPoolAreExactInFixed) {
  nn::Network net(Shape{1, 6, 6}, "relu_mean");
  net.add_conv(2, 3, 3);
  net.add_activation(nn::ActKind::kReLU);
  net.add_mean_pool(2, 2);
  net.add_linear(3);
  net.add_logsoftmax();
  util::Rng rng(9);
  net.init_weights(rng);

  Tensor image(Shape{1, 6, 6});
  image.fill_uniform(rng, 0.0f, 1.0f);
  const nn::FixedForwardResult r = nn::forward_fixed(net, image, {32, 16});
  EXPECT_EQ(r.predicted, net.predict(image));
}

namespace {
/// tests/test_execution.cpp's five architectures (0-4) plus the paper's
/// Test-1 (5) and Test-4 (6). `logsoftmax` false drops the trailing
/// LogSoftMax of those that have one; the weights do not change, since a
/// LogSoftMax draws nothing from the init RNG.
nn::Network error_fixture(int arch, bool logsoftmax) {
  const Shape inputs[] = {Shape{1, 16, 16}, Shape{1, 16, 16}, Shape{2, 10, 10},
                          Shape{2, 10, 10}, Shape{1, 2, 2},   Shape{1, 16, 16},
                          Shape{3, 32, 32}};
  nn::Network net(inputs[arch], "error_fixture");
  bool has_logsoftmax = true;
  switch (arch) {
    case 0:
      net.add_conv(2, 3, 3);
      net.add_activation(nn::ActKind::kTanh);
      net.add_max_pool(2, 2);
      net.add_conv(3, 3, 3);
      net.add_activation(nn::ActKind::kReLU);
      net.add_mean_pool(2, 2);
      net.add_linear(10);
      net.add_activation(nn::ActKind::kSigmoid);
      net.add_linear(6);
      break;
    case 1:
      net.add_conv(3, 5, 5);
      net.add_max_pool(3, 2);
      net.add_linear(5);
      break;
    case 2:
      net.add_conv(4, 3, 2);
      net.add_activation(nn::ActKind::kTanh);
      net.add_linear(8);
      has_logsoftmax = false;
      break;
    case 3:
      net.add_conv(3, 3, 3);
      net.add_conv(2, 3, 3);
      net.add_activation(nn::ActKind::kReLU);
      net.add_linear(4);
      net.add_activation(nn::ActKind::kTanh);
      has_logsoftmax = false;
      break;
    case 4:
      net.add_linear(9);
      net.add_activation(nn::ActKind::kTanh);
      net.add_linear(3);
      break;
    case 5:
      net.add_conv(6, 5, 5);
      net.add_max_pool(2, 2);
      net.add_linear(10);
      break;
    default:
      net.add_conv(12, 5, 5);
      net.add_max_pool(2, 2);
      net.add_conv(36, 5, 5);
      net.add_max_pool(2, 2);
      net.add_linear(36);
      net.add_activation(nn::ActKind::kTanh);
      net.add_linear(10);
      break;
  }
  if (has_logsoftmax && logsoftmax) net.add_logsoftmax();
  util::Rng rng(40 + static_cast<std::uint64_t>(arch));
  net.init_weights(rng);
  return net;
}
}  // namespace

TEST(FixedInference, OutputErrorIsTheLogitGapToForward) {
  // output_error is max |forward logits - dequantized fixed logits|, both
  // read before the LogSoftMax, and reference_predicted is forward's top-1.
  // Both sides are bit-exact, so the value is pinned exactly.
  const FixedPointFormat fmt{16, 8};
  for (int arch = 0; arch < 7; ++arch) {
    nn::Network net = error_fixture(arch, /*logsoftmax=*/true);
    nn::Network logits_net = error_fixture(arch, /*logsoftmax=*/false);
    util::Rng rng(500 + static_cast<std::uint64_t>(arch));
    for (int i = 0; i < 3; ++i) {
      Tensor image(net.input_shape());
      image.fill_uniform(rng, -1.0f, 1.0f);
      const Tensor float_logits = logits_net.forward(image, /*train=*/false);
      const Tensor fixed_logits = nn::forward_fixed(logits_net, image, fmt).scores;
      ASSERT_EQ(float_logits.size(), fixed_logits.size());
      float want = 0.0f;
      for (std::size_t k = 0; k < float_logits.size(); ++k) {
        want = std::max(want, std::fabs(float_logits[k] - fixed_logits[k]));
      }
      const nn::FixedForwardResult got = nn::forward_fixed(net, image, fmt);
      EXPECT_EQ(got.output_error, want) << "arch " << arch << " image " << i;
      EXPECT_EQ(got.reference_predicted, net.forward(image, /*train=*/false).argmax())
          << "arch " << arch << " image " << i;
    }
  }
}

TEST(FixedInference, ValidatesInput) {
  nn::Network net = trained_tiny_net();
  EXPECT_THROW(nn::forward_fixed(net, Tensor(Shape{1, 4, 4}), {16, 8}), std::invalid_argument);
  EXPECT_THROW(nn::forward_fixed(net, Tensor(Shape{1, 8, 8}), {16, 0}), std::invalid_argument);
}

// --------------------------------------------------------------- descriptor

TEST(FixedDescriptor, ParsesPrecisionForms) {
  const auto floating = core::NetworkDescriptor::from_json_text(R"({
    "precision": "float32",
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})");
  EXPECT_FALSE(floating.precision.is_fixed);

  const auto fixed = core::NetworkDescriptor::from_json_text(R"({
    "precision": {"type": "fixed", "total_bits": 16, "frac_bits": 8},
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})");
  EXPECT_TRUE(fixed.precision.is_fixed);
  EXPECT_EQ(fixed.precision.fixed.total_bits, 16);
  EXPECT_EQ(fixed.precision.name(), "Q8.8");

  // Round-trips through to_json.
  const auto reparsed = core::NetworkDescriptor::from_json(fixed.to_json());
  EXPECT_EQ(reparsed.precision, fixed.precision);
}

TEST(FixedDescriptor, RejectsBadPrecision) {
  EXPECT_THROW(core::NetworkDescriptor::from_json_text(R"({
    "precision": "float64",
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})"),
               core::DescriptorError);
  EXPECT_THROW(core::NetworkDescriptor::from_json_text(R"({
    "precision": {"type": "fixed", "total_bits": 4, "frac_bits": 9},
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})"),
               core::DescriptorError);
  EXPECT_THROW(core::NetworkDescriptor::from_json_text(R"({
    "precision": 16,
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})"),
               core::DescriptorError);
}

TEST(FixedDescriptor, RejectsBitCountsThatAreNotIntsByName) {
  const auto message_for = [](const char* total, const char* frac) -> std::string {
    try {
      core::NetworkDescriptor::from_json_text(util::format(R"({
        "precision": {"type": "fixed", "total_bits": %s, "frac_bits": %s},
        "input": {"channels": 1, "height": 8, "width": 8},
        "layers": [{"type": "linear", "neurons": 4}]})", total, frac));
    } catch (const core::DescriptorError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message_for("16.5", "8"),
            "descriptor: precision field 'total_bits' must be an integer, got 16.5");
  EXPECT_EQ(message_for("16", "1e300"),
            "descriptor: precision field 'frac_bits' is out of range, got 1e+300");
  // 2^32 + 16 once wrapped to a valid 16.
  EXPECT_EQ(message_for("4294967312", "8"),
            "descriptor: precision field 'total_bits' is out of range, got 4.29497e+09");
  EXPECT_EQ(message_for("16", "8"), "accepted");
}

// --------------------------------------------------------------- HLS effects

TEST(FixedHls, QuantizationCutsDspAndBram) {
  const nn::Network net = nn::make_test4_network();
  const hls::HlsReport float_report =
      hls::estimate(net, hls::DirectiveSet::optimized(), hls::zedboard());
  const hls::HlsReport fixed_report = hls::estimate(
      net, hls::DirectiveSet::optimized(), hls::zedboard(), NumericFormat::fixed_point(16, 8));
  EXPECT_LT(fixed_report.usage.dsp, float_report.usage.dsp);
  EXPECT_LT(fixed_report.usage.bram18, float_report.usage.bram18);
  EXPECT_LE(fixed_report.latency_cycles, float_report.latency_cycles);
}

TEST(FixedHls, NarrowerFormatsNeedLessBram) {
  const nn::Network net = nn::make_test4_network();
  const auto bram_for = [&](int bits) {
    return hls::estimate(net, hls::DirectiveSet::optimized(), hls::zedboard(),
                         NumericFormat::fixed_point(bits, bits / 2))
        .usage.bram18;
  };
  EXPECT_LE(bram_for(8), bram_for(16));
  EXPECT_LE(bram_for(16), bram_for(32));
}

TEST(FixedHls, IpCoreRunsFixedModel) {
  nn::Network net = trained_tiny_net();
  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard(),
                      NumericFormat::fixed_point(16, 8));
  util::Rng rng(10);
  Tensor image(Shape{1, 8, 8});
  image.fill_uniform(rng, 0.0f, 1.0f);
  const axi::ClassifyResult hw = bd.classify(image);
  ASSERT_TRUE(hw.ok);
  const nn::FixedForwardResult expected = nn::forward_fixed(net, image, {16, 8});
  EXPECT_EQ(hw.predicted, expected.predicted);
  for (std::size_t k = 0; k < hw.scores.size(); ++k) {
    EXPECT_EQ(hw.scores[k], expected.scores[k]);
  }
}

// --------------------------------------------- generated fixed C++ bit-exact

namespace {
core::NetworkDescriptor fixed_descriptor() {
  core::NetworkDescriptor d;
  d.name = "fixed_codegen";
  d.input_channels = 1;
  d.input_height = 8;
  d.input_width = 8;
  d.optimize = true;
  d.precision = NumericFormat::fixed_point(16, 8);
  core::LayerSpec conv;
  conv.type = core::LayerSpec::Type::kConv;
  conv.conv.feature_maps_out = 3;
  conv.conv.kernel_h = conv.conv.kernel_w = 3;
  conv.conv.pool = core::PoolSpec{nn::PoolKind::kMax, 2, 2};
  core::LayerSpec lin;
  lin.type = core::LayerSpec::Type::kLinear;
  lin.linear.neurons = 4;
  d.layers = {conv, lin};
  return d;
}
}  // namespace

TEST(FixedCodegen, EmitsFixedPlumbing) {
  const core::NetworkDescriptor d = fixed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(11);
  net.init_weights(rng);
  const std::string src = core::generate_cpp(d, net);
  EXPECT_NE(src.find("typedef int fixed_t"), std::string::npos);
  EXPECT_NE(src.find("#define FRAC_BITS 8"), std::string::npos);
  EXPECT_NE(src.find("static const fixed_t w_conv0["), std::string::npos);
  EXPECT_NE(src.find("renorm(acc)"), std::string::npos);
  EXPECT_NE(src.find("precision: Q8.8"), std::string::npos);
  EXPECT_EQ(src.find("static const float w_conv0"), std::string::npos);
}

TEST(FixedCodegen, GeneratedCodeMatchesFixedReferenceBitForBit) {
  const core::NetworkDescriptor d = fixed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(12);
  net.init_weights(rng);

  const std::string dir = util::make_temp_dir("cnn2fpga-fixed");
  const std::string src_path = dir + "/gen.cpp";
  const std::string bin_path = dir + "/gen_tb";
  util::write_file(src_path, core::generate_cpp(d, net));
  const char* cxx = std::getenv("CXX");
  const std::string compiler = cxx != nullptr && *cxx != '\0' ? cxx : "c++";
  ASSERT_EQ(std::system(util::format(
                            "%s -O1 -std=c++17 -DCNN2FPGA_TESTBENCH -Wno-unknown-pragmas "
                            "-o %s %s 2> %s/cc.log",
                            compiler.c_str(), bin_path.c_str(), src_path.c_str(), dir.c_str())
                            .c_str()),
            0)
      << util::read_file(dir + "/cc.log");

  for (int trial = 0; trial < 5; ++trial) {
    Tensor image(Shape{1, 8, 8});
    image.fill_uniform(rng, -1.0f, 1.0f);
    std::string input;
    for (std::size_t i = 0; i < image.size(); ++i) {
      input += util::format("%a\n", static_cast<double>(image[i]));
    }
    util::write_file(dir + "/in.txt", input);
    ASSERT_EQ(std::system(util::format("%s < %s/in.txt > %s/out.txt", bin_path.c_str(),
                                       dir.c_str(), dir.c_str())
                              .c_str()),
              0);
    const auto lines = util::split(util::read_file(dir + "/out.txt"), '\n');
    const nn::FixedForwardResult expected = nn::forward_fixed(net, image, d.precision.fixed);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(std::strtof(lines.at(k).c_str(), nullptr), expected.scores[k])
          << "trial " << trial << " score " << k;
    }
    EXPECT_EQ(static_cast<std::size_t>(std::strtol(lines.at(4).c_str(), nullptr, 10)),
              expected.predicted);
  }
  std::filesystem::remove_all(dir);
}

TEST(FixedCodegen, FrameworkEndToEnd) {
  const core::GeneratedDesign design =
      core::Framework::generate_with_random_weights(fixed_descriptor(), 13);
  EXPECT_TRUE(design.hls_report.fits());
  EXPECT_NE(design.cpp_source.find("fixed_t"), std::string::npos);
}
