#include "core/framework.hpp"

#include "util/fileio.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::core {

using cnn2fpga::util::format;

void GeneratedDesign::write_to(const std::string& directory) const {
  util::make_dirs(directory);
  util::write_file(directory + "/" + cpp_file_name, cpp_source);
  for (const auto& [name, contents] : tcl_files) {
    util::write_file(directory + "/" + name, contents);
  }
  util::write_file(directory + "/hls_report.txt", hls_report.to_string());
  util::write_file(directory + "/descriptor.json", descriptor.to_json().dump(/*pretty=*/true));
}

DesignAnalysis Framework::analyze(const NetworkDescriptor& descriptor,
                                 const nn::Network& trained) {
  descriptor.validate();
  check_emittable(descriptor, trained);

  DesignAnalysis analysis;
  analysis.descriptor = descriptor;

  hls::FpgaDevice device = *hls::find_device(descriptor.board);
  if (descriptor.clock_mhz > 0.0) device.clock_mhz = descriptor.clock_mhz;
  const hls::DirectiveSet directives =
      descriptor.optimize ? hls::DirectiveSet::optimized() : hls::DirectiveSet::naive();
  analysis.hls_report = hls::estimate(trained, directives, device, descriptor.precision,
                                      descriptor.streamed_weights);

  if (!analysis.hls_report.fits()) {
    analysis.warnings.push_back(format(
        "design '%s' exceeds the %s budget on: %s -- synthesis would fail placement",
        descriptor.name.c_str(), descriptor.board.c_str(),
        util::join(analysis.hls_report.overflowing_resources(), ", ").c_str()));
  }
  const double dsp_util = analysis.hls_report.util.dsp;
  if (analysis.hls_report.fits() && dsp_util > 0.9) {
    analysis.warnings.push_back("DSP utilization above 90%: little headroom for a larger network");
  }
  return analysis;
}

GeneratedDesign Framework::generate(const NetworkDescriptor& descriptor,
                                    const nn::Network& trained) {
  // Braced initializers evaluate in order: analyze() rejects bad inputs
  // before anything is emitted.
  GeneratedDesign design{analyze(descriptor, trained),
                         util::sanitize_identifier(descriptor.name) + ".cpp",
                         generate_cpp(descriptor, trained),
                         generate_tcl_files(descriptor, trained)};

  LOG_INFO("framework") << format("generated '%s' for %s: %llu cycles/image, fits=%d",
                                  descriptor.name.c_str(), descriptor.board.c_str(),
                                  (unsigned long long)design.hls_report.latency_cycles,
                                  design.hls_report.fits() ? 1 : 0);
  return design;
}

GeneratedDesign Framework::generate_from_weights(const NetworkDescriptor& descriptor,
                                                 const std::vector<std::uint8_t>& weight_file) {
  nn::Network net = descriptor.build_network();
  nn::deserialize_weights(net, weight_file);
  return generate(descriptor, net);
}

GeneratedDesign Framework::generate_with_random_weights(const NetworkDescriptor& descriptor,
                                                        std::uint64_t seed) {
  nn::Network net = descriptor.build_network();
  util::Rng rng(seed);
  net.init_weights(rng);
  return generate(descriptor, net);
}

std::string Framework::cache_key(const NetworkDescriptor& descriptor,
                                 const std::vector<std::uint8_t>& weight_file) {
  util::Fnv1a hash;
  hash.update(descriptor.to_json().dump());
  hash.update(std::span<const std::uint8_t>(weight_file));
  return hash.hex();
}

}  // namespace cnn2fpga::core
