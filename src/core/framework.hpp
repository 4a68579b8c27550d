// The cnn2fpga framework facade (paper Sec. IV, Fig. 3).
//
// Input:  a network descriptor (the GUI's JSON) and the trained weights
//         (a CNN2FPGAW1 weight file, or "random weights for the sake of
//         simplicity" as in the paper's Test 4).
// Output: the synthesizable C++ source, the three tcl scripts, and — our
//         substitute for running Vivado — the HLS simulator's latency and
//         utilization report, with warnings when the design does not fit
//         the selected board.
//
// Generation is two steps. `analyze` runs every check on the inputs, the
// HLS estimate and the fit warnings, and emits nothing; `generate` is
// `analyze` followed by the two emitters. Callers that need only the report
// (the serving registry) call `analyze`.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/codegen_cpp.hpp"
#include "core/codegen_tcl.hpp"
#include "core/descriptor.hpp"
#include "hls/estimator.hpp"
#include "nn/serialize.hpp"

namespace cnn2fpga::core {

/// What is known of a design before anything is emitted: the descriptor, the
/// HLS simulator's latency/utilization report and the fit warnings.
struct DesignAnalysis {
  NetworkDescriptor descriptor;
  hls::HlsReport hls_report;
  std::vector<std::string> warnings;
};

/// An analyzed design plus its emitted artifacts.
struct GeneratedDesign : DesignAnalysis {
  std::string cpp_file_name;   ///< "<name>.cpp"
  std::string cpp_source;
  std::map<std::string, std::string> tcl_files;

  /// Write every artifact (C++ + tcl + report.txt) into a directory.
  void write_to(const std::string& directory) const;
};

class Framework {
 public:
  /// Validate the descriptor, check that `trained` structurally matches it
  /// and that its numeric format can be emitted, then run the HLS estimate
  /// and derive the fit warnings. Throws exactly what generate() would throw
  /// for the same inputs.
  static DesignAnalysis analyze(const NetworkDescriptor& descriptor,
                                const nn::Network& trained);

  /// analyze(), then emit the C++ source and the tcl scripts. The network
  /// must structurally match the descriptor.
  static GeneratedDesign generate(const NetworkDescriptor& descriptor,
                                  const nn::Network& trained);

  /// Generate from a descriptor and a serialized weight file (the canonical
  /// web-API path: JSON + weight blob in, artifacts out).
  static GeneratedDesign generate_from_weights(const NetworkDescriptor& descriptor,
                                               const std::vector<std::uint8_t>& weight_file);

  /// Paper Sec. IV: "the user ... can also directly use the proposed
  /// automation framework ... by specifying random weights for the sake of
  /// simplicity". Deterministic per seed.
  static GeneratedDesign generate_with_random_weights(const NetworkDescriptor& descriptor,
                                                      std::uint64_t seed);

  /// Content hash of (canonical descriptor JSON, weight blob): the serving
  /// registry's cache key. analyze() and generate() are pure functions of
  /// these two inputs, so equal keys imply an identical HLS report, warnings
  /// and artifacts.
  static std::string cache_key(const NetworkDescriptor& descriptor,
                               const std::vector<std::uint8_t>& weight_file);
};

}  // namespace cnn2fpga::core
