// The CNN IP core inside the fabric model.
//
// Functionally it executes the reference network (whose layer loops are
// ordered exactly as the generated HLS C++, so predictions match the
// generated design bit-for-bit); temporally it charges the latency the HLS
// simulator reports for the chosen directive set.
//
// Packet protocol (matching the generated cnn_top wrapper):
//   in:  C*H*W float words, TLAST on the final pixel;
//   out: num_classes log-probability words followed by the predicted class
//        index (as float), TLAST on the index word.
#pragma once

#include <cstdint>
#include <vector>

#include "axi/stream.hpp"
#include "hls/estimator.hpp"
#include "nn/execution.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"

namespace cnn2fpga::axi {

struct IpRunResult {
  bool ok = false;             ///< false on stream underflow / framing error
  std::size_t predicted = 0;
  std::vector<float> scores;   ///< log-probabilities
  std::uint64_t cycles = 0;    ///< fabric cycles consumed by this invocation
};

class CnnIpCore {
 public:
  /// `net` must outlive the core. The HLS report is synthesized on
  /// construction for the given directives/device/numeric format; fixed-point
  /// designs execute the bit-exact quantized reference model
  /// (nn::forward_fixed) and skip its float error signal.
  CnnIpCore(nn::Network& net, const hls::DirectiveSet& directives,
            const hls::FpgaDevice& device,
            const nn::NumericFormat& format = nn::NumericFormat::float32(),
            bool streamed_weights = false);

  /// Streamed-weights designs: consume one parameter-upload packet (all
  /// parameter words in Network::params() order, TLAST on the final word)
  /// and install the values into the network. Returns false on a malformed
  /// packet. No-op (returns false) on hard-coded designs.
  bool load_weights(AxiStreamChannel& in);

  bool weights_ready() const { return !streamed_weights_ || weights_loaded_; }
  bool streamed_weights() const { return streamed_weights_; }

  /// Consume one input packet from `in`, classify, emit one output packet to
  /// `out`. On a malformed packet the core drains nothing further and
  /// reports ok=false (the real core would hang; the model fails fast).
  IpRunResult run(AxiStreamChannel& in, AxiStreamChannel& out);

  const hls::HlsReport& report() const { return report_; }
  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t busy_cycles() const { return busy_cycles_; }
  std::size_t input_words() const { return input_words_; }
  std::size_t output_words() const { return output_words_; }

 private:
  nn::Network& net_;
  nn::ExecutionContext ctx_;  ///< float-path plan + packed weights (one run at a time)
  nn::NumericFormat format_;
  bool streamed_weights_ = false;
  bool weights_loaded_ = false;
  hls::HlsReport report_;
  std::size_t input_words_;
  std::size_t output_words_;
  std::uint64_t invocations_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace cnn2fpga::axi
