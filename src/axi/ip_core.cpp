#include "axi/ip_core.hpp"

#include "nn/fixed_inference.hpp"

namespace cnn2fpga::axi {

CnnIpCore::CnnIpCore(nn::Network& net, const hls::DirectiveSet& directives,
                     const hls::FpgaDevice& device, const nn::NumericFormat& format,
                     bool streamed_weights)
      // The functional model must match the generated HLS C++ (and
      // Network::forward) bit-for-bit, so it pins the scalar kernel engine
      // regardless of the process-wide SIMD dispatch.
    : net_(net),
      ctx_(net, nn::kernels::Kind::kScalar, nullptr),
      format_(format),
      streamed_weights_(streamed_weights),
      report_(hls::estimate(net, directives, device, format, streamed_weights)),
      input_words_(net.input_shape().elements()),
      output_words_(net.output_shape().elements() + 1) {}

bool CnnIpCore::load_weights(AxiStreamChannel& in) {
  if (!streamed_weights_) return false;
  const std::vector<nn::Param> params = net_.params();
  std::size_t remaining = 0;
  for (const nn::Param& p : params) remaining += p.value->size();

  for (const nn::Param& p : params) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      const auto beat = in.pop();
      if (!beat) return false;
      --remaining;
      const bool expect_last = remaining == 0;
      if (beat->last != expect_last) return false;
      (*p.value)[i] = bits_to_float(beat->data);
    }
  }
  // The context packed the previous weights; new parameters need a new one.
  ctx_ = nn::ExecutionContext(net_, nn::kernels::Kind::kScalar, nullptr);
  weights_loaded_ = true;
  return true;
}

IpRunResult CnnIpCore::run(AxiStreamChannel& in, AxiStreamChannel& out) {
  IpRunResult result;
  if (!weights_ready()) return result;  // classify before upload: refuse

  nn::Tensor image(net_.input_shape());
  for (std::size_t i = 0; i < input_words_; ++i) {
    const auto beat = in.pop();
    if (!beat) return result;  // underflow: ok stays false
    image[i] = bits_to_float(beat->data);
    const bool expect_last = (i + 1 == input_words_);
    if (beat->last != expect_last) return result;  // framing error
  }

  nn::Tensor scores;
  if (format_.is_fixed) {
    // Quantizes the current parameters on every run, so a streamed-weights
    // reload between invocations is always seen. No float reference runs.
    scores = nn::forward_fixed(net_, image, format_.fixed, /*track_output_error=*/false).scores;
  } else {
    scores = net_.infer(image, ctx_);
  }
  result.predicted = scores.argmax();
  result.scores.assign(scores.data(), scores.data() + scores.size());

  for (std::size_t i = 0; i < scores.size(); ++i) out.push_float(scores[i], false);
  out.push_float(static_cast<float>(result.predicted), /*last=*/true);

  result.cycles = report_.latency_cycles;
  result.ok = true;
  ++invocations_;
  busy_cycles_ += result.cycles;
  return result;
}

}  // namespace cnn2fpga::axi
