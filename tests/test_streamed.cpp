// Tests for the streamed-weights mode (off-chip parameters uploaded at
// start-up, vs the paper's hard-coded ROMs).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "axi/block_design.hpp"
#include "core/framework.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"

using namespace cnn2fpga;
using nn::Shape;
using nn::Tensor;

namespace {
core::NetworkDescriptor streamed_descriptor(bool fixed = false) {
  core::NetworkDescriptor d;
  d.name = "streamed_net";
  d.input_channels = 1;
  d.input_height = 8;
  d.input_width = 8;
  d.optimize = true;
  d.streamed_weights = true;
  if (fixed) d.precision = nn::NumericFormat::fixed_point(16, 8);
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

TEST(StreamedDescriptor, ParsesAndRoundTrips) {
  const auto d = core::NetworkDescriptor::from_json_text(R"({
    "weights_mode": "streamed",
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})");
  EXPECT_TRUE(d.streamed_weights);
  EXPECT_TRUE(core::NetworkDescriptor::from_json(d.to_json()).streamed_weights);

  const auto hardcoded = core::NetworkDescriptor::from_json_text(R"({
    "weights_mode": "hardcoded",
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})");
  EXPECT_FALSE(hardcoded.streamed_weights);

  EXPECT_THROW(core::NetworkDescriptor::from_json_text(R"({
    "weights_mode": "flash",
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"type": "linear", "neurons": 4}]})"),
               core::DescriptorError);
}

TEST(StreamedCodegen, NoWeightLiteralsButLoadLoop) {
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(1);
  net.init_weights(rng);
  const std::string src = core::generate_cpp(d, net);

  EXPECT_EQ(src.find("static const float w_conv0"), std::string::npos);
  EXPECT_NE(src.find("static float w_conv0[27];"), std::string::npos);
  EXPECT_NE(src.find("int load_weights"), std::string::npos);
  EXPECT_NE(src.find("WLOAD_w_conv0:"), std::string::npos);
  EXPECT_NE(src.find("WLOAD_b_linear2:"), std::string::npos);
  EXPECT_NE(src.find("#pragma HLS INTERFACE s_axilite port=load_weights"), std::string::npos);
}

TEST(StreamedCodegen, SourceIsMuchSmallerThanHardcoded) {
  core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(2);
  net.init_weights(rng);
  const std::size_t streamed_size = core::generate_cpp(d, net).size();
  d.streamed_weights = false;
  const std::size_t hardcoded_size = core::generate_cpp(d, net).size();
  EXPECT_LT(streamed_size, hardcoded_size);  // weight literals dominate
}

TEST(StreamedCodegen, CompiledDesignMatchesReferenceBitForBit) {
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(3);
  net.init_weights(rng);

  const std::string dir = util::make_temp_dir("cnn2fpga-streamed");
  util::write_file(dir + "/gen.cpp", core::generate_cpp(d, net));
  const char* cxx = std::getenv("CXX");
  const std::string compiler = cxx != nullptr && *cxx != '\0' ? cxx : "c++";
  ASSERT_EQ(std::system(util::format("%s -O1 -std=c++17 -DCNN2FPGA_TESTBENCH "
                                     "-Wno-unknown-pragmas -o %s/gen_tb %s/gen.cpp 2> %s/cc.log",
                                     compiler.c_str(), dir.c_str(), dir.c_str(), dir.c_str())
                            .c_str()),
            0)
      << util::read_file(dir + "/cc.log");

  Tensor image(Shape{1, 8, 8});
  image.fill_uniform(rng, 0.0f, 1.0f);

  // stdin: all parameter words in params() order, then the image.
  std::string input;
  for (const nn::Param& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      input += util::format("%a\n", static_cast<double>((*p.value)[i]));
    }
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    input += util::format("%a\n", static_cast<double>(image[i]));
  }
  util::write_file(dir + "/in.txt", input);
  ASSERT_EQ(std::system(util::format("%s/gen_tb < %s/in.txt > %s/out.txt", dir.c_str(),
                                     dir.c_str(), dir.c_str())
                            .c_str()),
            0);

  const Tensor expected = net.forward(image);
  const auto lines = util::split(util::read_file(dir + "/out.txt"), '\n');
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(std::strtof(lines.at(k).c_str(), nullptr), expected[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamedHls, ReportsUploadCostAndRamArrays) {
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  const core::GeneratedDesign design = core::Framework::generate_with_random_weights(d, 4);
  // 3*1*3*3 + 3 + 27*4 + 4 = 142 parameters.
  EXPECT_GT(design.hls_report.weight_load_cycles, 142u);
  EXPECT_LT(design.hls_report.weight_load_cycles, 200u);
  EXPECT_NE(design.hls_report.to_string().find("weight upload"), std::string::npos);

  // BRAM footprint identical to the hard-coded variant (same tiles, ROM->RAM).
  core::NetworkDescriptor hardcoded = d;
  hardcoded.streamed_weights = false;
  const core::GeneratedDesign reference =
      core::Framework::generate_with_random_weights(hardcoded, 4);
  EXPECT_EQ(design.hls_report.usage.bram18, reference.hls_report.usage.bram18);
  EXPECT_EQ(reference.hls_report.weight_load_cycles, 0u);
}

TEST(StreamedFabric, ClassifyRequiresUpload) {
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  util::Rng rng(5);
  net.init_weights(rng);

  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard(),
                      nn::NumericFormat::float32(), /*streamed_weights=*/true);
  Tensor image(Shape{1, 8, 8});
  image.fill_uniform(rng, 0.0f, 1.0f);

  // Before the upload the core refuses to classify.
  EXPECT_FALSE(bd.classify(image).ok);
  bd.reset();  // drain the stalled input packet

  ASSERT_TRUE(bd.upload_weights());
  const axi::ClassifyResult hw = bd.classify(image);
  ASSERT_TRUE(hw.ok);
  EXPECT_EQ(hw.predicted, net.predict(image));
}

TEST(StreamedFabric, UploadOnHardcodedDesignIsRejected) {
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net = d.build_network();
  axi::BlockDesign bd(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_FALSE(bd.upload_weights());
}

TEST(StreamedFabric, UploadInstallsNewParameters) {
  // The headline benefit: swap networks without re-synthesis. Upload weights
  // from a *different* trained instance and observe the predictions change.
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net_a = d.build_network();
  util::Rng rng_a(6);
  net_a.init_weights(rng_a);
  nn::Network net_b = d.build_network();
  util::Rng rng_b(7);
  net_b.init_weights(rng_b);

  axi::BlockDesign bd(net_a, hls::DirectiveSet::optimized(), hls::zedboard(),
                      nn::NumericFormat::float32(), true);
  ASSERT_TRUE(bd.upload_weights());

  // Overwrite net_a's parameters with net_b's and re-upload.
  const auto pa = net_a.params();
  const auto pb = net_b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) *pa[i].value = *pb[i].value;
  ASSERT_TRUE(bd.upload_weights());

  util::Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    Tensor image(Shape{1, 8, 8});
    image.fill_uniform(rng, 0.0f, 1.0f);
    const axi::ClassifyResult hw = bd.classify(image);
    ASSERT_TRUE(hw.ok);
    EXPECT_EQ(hw.predicted, net_b.predict(image));
  }
}

TEST(StreamedFabric, ReuploadAfterClassifyServesNewWeights) {
  // The core caches packed weights once it has classified, so a re-upload
  // must replace them: after swapping in net_b's parameters the fabric has
  // to answer with net_b's predictions, not net_a's.
  const core::NetworkDescriptor d = streamed_descriptor();
  nn::Network net_a = d.build_network();
  util::Rng rng_a(16);
  net_a.init_weights(rng_a);
  nn::Network net_b = d.build_network();
  util::Rng rng_b(17);
  net_b.init_weights(rng_b);

  axi::BlockDesign bd(net_a, hls::DirectiveSet::optimized(), hls::zedboard(),
                      nn::NumericFormat::float32(), true);
  ASSERT_TRUE(bd.upload_weights());
  util::Rng rng(18);
  Tensor first(Shape{1, 8, 8});
  first.fill_uniform(rng, 0.0f, 1.0f);
  const axi::ClassifyResult before = bd.classify(first);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.predicted, net_a.predict(first));

  const auto pa = net_a.params();
  const auto pb = net_b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) *pa[i].value = *pb[i].value;
  ASSERT_TRUE(bd.upload_weights());

  for (int trial = 0; trial < 5; ++trial) {
    Tensor image(Shape{1, 8, 8});
    image.fill_uniform(rng, 0.0f, 1.0f);
    const axi::ClassifyResult hw = bd.classify(image);
    ASSERT_TRUE(hw.ok);
    const Tensor want = net_b.forward(image);
    EXPECT_EQ(hw.scores, std::vector<float>(want.data(), want.data() + want.size()));
    EXPECT_EQ(hw.predicted, net_b.predict(image));
  }
}

TEST(StreamedFixed, FixedStreamedDesignGenerates) {
  const core::NetworkDescriptor d = streamed_descriptor(/*fixed=*/true);
  const core::GeneratedDesign design = core::Framework::generate_with_random_weights(d, 9);
  EXPECT_NE(design.cpp_source.find("static fixed_t w_conv0[27];"), std::string::npos);
  EXPECT_NE(design.cpp_source.find("q(in_stream.read())"), std::string::npos);
  EXPECT_GT(design.hls_report.weight_load_cycles, 0u);
}
