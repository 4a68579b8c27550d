// Tests for the extension features: base64 transport, roofline analysis
// (the Zhang et al. [9] methodology), and the online-training web API
// (the paper's stated future work).
#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <vector>

#include "hls/roofline.hpp"
#include "json/json.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "web/api.hpp"

using namespace cnn2fpga;
namespace json = cnn2fpga::json;

// ---------------------------------------------------------------- base64

TEST(Base64, KnownVectors) {
  // RFC 4648 test vectors.
  const auto enc = [](const std::string& s) {
    return util::base64_encode(std::vector<std::uint8_t>(s.begin(), s.end()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foob"), "Zm9vYg==");
  EXPECT_EQ(enc("fooba"), "Zm9vYmE=");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, RoundTripsRandomBinary) {
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = util::base64_decode(util::base64_encode(bytes));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, bytes);
  }
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_FALSE(util::base64_decode("abc").has_value());       // length % 4
  EXPECT_FALSE(util::base64_decode("ab!d").has_value());      // bad character
  EXPECT_FALSE(util::base64_decode("=abc").has_value());      // leading padding
  EXPECT_FALSE(util::base64_decode("Zg==Zg==").has_value());  // padding mid-stream
  EXPECT_FALSE(util::base64_decode("Z===").has_value());      // 3 pad chars
  EXPECT_TRUE(util::base64_decode("").has_value());
}

namespace {

/// base64_decode as it was when it decoded one character and pushed one
/// byte per step; the oracle for the group decoder.
std::optional<std::vector<std::uint8_t>> byte_loop_base64_decode(std::string_view text) {
  static constexpr std::string_view kAlphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  if (text.size() % 4 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < text.size(); i += 4) {
    int padding = 0;
    std::uint32_t triple = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        if (i + 4 != text.size() || j < 2) return std::nullopt;
        ++padding;
        triple <<= 6;
        continue;
      }
      if (padding > 0) return std::nullopt;
      const std::size_t value = kAlphabet.find(c);
      if (value == std::string_view::npos) return std::nullopt;
      triple = (triple << 6) | static_cast<std::uint32_t>(value);
    }
    out.push_back(static_cast<std::uint8_t>((triple >> 16) & 0xFF));
    if (padding < 2) out.push_back(static_cast<std::uint8_t>((triple >> 8) & 0xFF));
    if (padding < 1) out.push_back(static_cast<std::uint8_t>(triple & 0xFF));
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

}  // namespace

TEST(Base64, DecodeMatchesTheByteLoopOracle) {
  // Bytes outside the alphabet, the NUL byte and non-ASCII included.
  static constexpr std::string_view kBad("!-_ .\n\0\x80\xff", 9);
  util::Rng rng(77);
  std::size_t checked = 0, mismatches = 0;
  const auto check = [&](const std::string& text) {
    ++checked;
    const auto got = util::base64_decode(text);
    const auto want = byte_loop_base64_decode(text);
    if (got == want || ++mismatches > 5) return;
    ADD_FAILURE() << ::testing::PrintToString(text) << ": decoder "
                  << (got ? "accepts" : "rejects") << ", oracle " << (want ? "accepts" : "rejects");
  };
  const auto mutate_everywhere = [&](const std::string& encoded) {
    check(encoded);
    for (std::size_t pos = 0; pos < encoded.size(); ++pos) {
      std::string mutated = encoded;
      mutated[pos] = '=';
      check(mutated);
      mutated[pos] = kBad[rng.next_below(kBad.size())];
      check(mutated);
    }
    for (std::size_t cut = 1; cut <= 3 && cut <= encoded.size(); ++cut) {
      check(encoded.substr(0, encoded.size() - cut));
    }
    check(encoded + "=");
    check(encoded + "A===");
  };
  for (std::size_t length = 0; length <= 64; ++length) {
    mutate_everywhere(util::base64_encode(random_bytes(rng, length)));
  }
  // Noise: alphabet characters with '=' and bad bytes mixed in.
  while (checked < 10000) {
    std::string text(4 * rng.next_below(17), 'A');
    for (char& c : text) {
      const std::uint64_t pick = rng.next_below(20);
      c = pick == 0 ? '=' : pick == 1 ? kBad[rng.next_below(kBad.size())]
                                      : "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
                                            [rng.next_below(64)];
    }
    if (!text.empty() && rng.next_below(2) == 0) text.back() = '=';
    check(text);
  }
  // One image-sized payload: 16 KB, mutated at its ends and middle.
  const std::string image = util::base64_encode(random_bytes(rng, 16 * 1024));
  check(image);
  for (const std::size_t pos : {std::size_t{0}, image.size() / 2, image.size() - 5,
                                image.size() - 2, image.size() - 1}) {
    std::string mutated = image;
    mutated[pos] = '=';
    check(mutated);
    mutated[pos] = '!';
    check(mutated);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

TEST(Base64, DecodeIntoNeedsValidInputOfTheExactSize) {
  util::Rng rng(78);
  for (std::size_t length = 0; length <= 64; ++length) {
    const std::vector<std::uint8_t> bytes = random_bytes(rng, length);
    const std::string encoded = util::base64_encode(bytes);
    std::vector<std::uint8_t> out(length, 0xAA);
    EXPECT_TRUE(util::base64_decode_into(encoded, out)) << length;
    EXPECT_EQ(out, bytes) << length;
    std::vector<std::uint8_t> longer(length + 1);
    EXPECT_FALSE(util::base64_decode_into(encoded, longer)) << length;
    if (length > 0) {
      std::vector<std::uint8_t> shorter(length - 1);
      EXPECT_FALSE(util::base64_decode_into(encoded, shorter)) << length;
      std::string bad = encoded;
      bad[rng.next_below(bad.size())] = '!';
      EXPECT_FALSE(util::base64_decode_into(bad, out)) << bad;
    }
  }
}

// ---------------------------------------------------------------- roofline

TEST(Roofline, PlatformRoofsAreSane) {
  const auto float_platform =
      hls::RooflinePlatform::for_device(hls::zedboard(), nn::NumericFormat::float32());
  // 220 DSP / 5 per MAC = 44 MAC/cycle -> 8.8 GFLOP/s at 100 MHz.
  EXPECT_DOUBLE_EQ(float_platform.peak_macs_per_cycle, 44.0);
  EXPECT_NEAR(float_platform.computational_roof_gflops(), 8.8, 1e-9);

  const auto fixed_platform = hls::RooflinePlatform::for_device(
      hls::zedboard(), nn::NumericFormat::fixed_point(16, 8));
  EXPECT_GT(fixed_platform.computational_roof_gflops(),
            float_platform.computational_roof_gflops());
}

TEST(Roofline, GeneratedDesignsAreComputeBound) {
  // Weights live on-chip, so CTC is enormous and the designs sit under the
  // computational roof — the regime Zhang et al. engineer their designs into.
  const nn::Network net = nn::make_test4_network();
  const hls::RooflinePoint point =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_TRUE(point.compute_bound);
  EXPECT_GT(point.ctc_ratio, 100.0);
  EXPECT_GT(point.achieved_gflops, 0.0);
  EXPECT_LE(point.roof_fraction, 1.0);
  EXPECT_GT(point.roof_fraction, 0.01);
}

TEST(Roofline, PipeliningMovesTowardTheRoof) {
  const nn::Network net = nn::make_test1_network();
  const hls::RooflinePoint naive =
      hls::roofline_analysis(net, hls::DirectiveSet::naive(), hls::zedboard());
  const hls::RooflinePoint optimized =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_GT(optimized.achieved_gflops, naive.achieved_gflops);
  EXPECT_GT(optimized.roof_fraction, naive.roof_fraction);
}

TEST(Roofline, FlopsMatchMacCount) {
  const nn::Network net = nn::make_test1_network();
  const hls::RooflinePoint point =
      hls::roofline_analysis(net, hls::DirectiveSet::optimized(), hls::zedboard());
  EXPECT_DOUBLE_EQ(point.flops_per_image, 2.0 * static_cast<double>(net.total_macs()));
  // 256 input floats + 11 output words.
  EXPECT_DOUBLE_EQ(point.offchip_bytes_per_image, (256 + 11) * 4.0);
}

// ---------------------------------------------------------------- train API

namespace {
const char* kTrainRequest = R"({
  "name": "online_net",
  "board": "zedboard",
  "optimize": true,
  "input": {"channels": 1, "height": 16, "width": 16},
  "layers": [
    {"type": "conv", "feature_maps_out": 6, "kernel": 5,
     "pool": {"type": "max", "kernel": 2, "step": 2}},
    {"type": "linear", "neurons": 10}
  ],
  "train": {"dataset": "usps", "samples_per_class": 8, "epochs": 4,
            "learning_rate": 0.005, "seed": 3}
})";
}  // namespace

TEST(TrainApi, TrainsAndReturnsWeights) {
  web::HttpRequest request;
  request.body = kTrainRequest;
  const web::HttpResponse response = web::handle_train(request);
  ASSERT_EQ(response.status, 200) << response.body;

  const auto body = json::parse(response.body);
  EXPECT_EQ(body.at("dataset").as_string(), "usps");
  EXPECT_EQ(body.at("epoch_loss").as_array().size(), 4u);
  EXPECT_LT(body.at("train_error").as_double(), 0.5);
  EXPECT_GE(body.at("test_error").as_double(), 0.0);
  const auto weights = util::base64_decode(body.at("weights_base64").as_string());
  ASSERT_TRUE(weights.has_value());
  EXPECT_GT(weights->size(), 1000u);  // 2326 floats + framing
}

TEST(TrainApi, TrainedWeightsFeedBackIntoGenerate) {
  web::HttpRequest train_request;
  train_request.body = kTrainRequest;
  const auto train_body = json::parse(web::handle_train(train_request).body);

  // Build the /api/v1/generate request: descriptor + weights_base64.
  auto generate_doc = json::parse(kTrainRequest);
  generate_doc.as_object().erase("train");
  generate_doc["weights_base64"] = train_body.at("weights_base64");

  web::HttpRequest generate_request;
  generate_request.body = json::Value(generate_doc).dump();
  const web::HttpResponse response = web::handle_generate(generate_request);
  ASSERT_EQ(response.status, 200) << response.body;
  const auto body = json::parse(response.body);
  EXPECT_NE(body.at("cpp_source").as_string().find("w_conv0"), std::string::npos);
}

TEST(TrainApi, RejectsUnknownDataset) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["dataset"] = json::Value("imagenet");
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_train(request).status, 400);
}

TEST(TrainApi, RejectsInputShapeMismatch) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["dataset"] = json::Value("cifar10");  // expects 3x32x32
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  const auto response = web::handle_train(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("does not match"), std::string::npos);
}

TEST(TrainApi, RejectsAbsurdBudgets) {
  auto doc = json::parse(kTrainRequest);
  doc["train"]["epochs"] = json::Value(10000);
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_train(request).status, 400);
}

TEST(GenerateApi, RejectsBadWeightPayloads) {
  auto doc = json::parse(kTrainRequest);
  doc.as_object().erase("train");

  doc["weights_base64"] = json::Value("!!!not-base64!!!");
  web::HttpRequest request;
  request.body = json::Value(doc).dump();
  EXPECT_EQ(web::handle_generate(request).status, 400);

  // Valid base64 but not a weight file.
  doc["weights_base64"] =
      json::Value(util::base64_encode({'h', 'e', 'l', 'l', 'o'}));
  request.body = json::Value(doc).dump();
  const auto response = web::handle_generate(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("magic"), std::string::npos);
}

TEST(TrainApi, ServedOverHttp) {
  web::HttpServer server;
  web::install_api(server);
  const int port = server.start(0);
  const auto response =
      web::http_request("127.0.0.1", port, "POST", "/api/v1/train", kTrainRequest);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  server.stop();
}
