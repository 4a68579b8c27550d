// Synthesizable C++ emitter (the paper's "first wrapper", Sec. IV-A).
//
// Produces a single self-contained C++ file containing:
//   - all network parameters as hard-coded static const arrays,
//   - `cnn_core`: the feed-forward function, one code block per layer, a
//     LogSoftMax block appended by default, returning the predicted class
//     index — written in the Vivado-HLS-synthesizable C++ subset (static
//     arrays, fixed trip counts, labeled loops, no dynamic allocation);
//   - `cnn_xtop`: the AXI4-Stream top-level wrapper (paper Sec. IV-B) with
//     interface pragmas, compiled against hls_stream.h under __SYNTHESIS__
//     and against a tiny FIFO shim otherwise so the artifact runs anywhere;
//   - optionally a testbench `main` (guarded by CNN2FPGA_TESTBENCH) that
//     reads an image as hex floats on stdin and prints the scores and the
//     prediction — the equivalence tests compile and execute it against the
//     reference library.
//
// In optimized mode the emitter inlines the directives the paper settled on
// after its design-space exploration (Sec. V-E): HLS DATAFLOW on the core and
// HLS PIPELINE II=1 on every convolutional/linear reduction loop. The same
// directives are also emitted into directives.tcl by the tcl generator.
//
// Loop order and accumulation order match `src/nn` exactly, so the generated
// design and the reference software produce bit-identical outputs — the
// paper's "hardware implementation is as accurate as software one".
#pragma once

#include <string>

#include "core/descriptor.hpp"

namespace cnn2fpga::core {

struct CodegenOptions {
  bool emit_testbench = true;
  std::string top_function = "cnn_xtop";
  std::string core_function = "cnn_core";
};

/// The checks generate_cpp runs before it emits anything: `net` must
/// structurally match `descriptor` (same layers in the same order, same
/// shapes; DescriptorError otherwise) and a fixed-point precision must be a
/// valid format (std::invalid_argument otherwise). Framework::analyze runs
/// them too, so a design is rejected the same way whether or not it is
/// emitted.
void check_emittable(const NetworkDescriptor& descriptor, const nn::Network& net);

/// Emit the network source. Runs check_emittable first.
std::string generate_cpp(const NetworkDescriptor& descriptor, const nn::Network& net,
                         const CodegenOptions& options = {});

/// Render one float as a C literal that round-trips the exact float32 value.
std::string float_literal(float value);

}  // namespace cnn2fpga::core
