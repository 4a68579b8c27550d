// The body of POST /api/v1/deploy, parsed once for both sides of a fleet:
// ServingRuntime::handle_deploy deploys what the parser returns, and the shard
// router hashes the same result (shard::compute_design_key) to place the
// design. With one parser the router's placement key is the worker's design
// id, and a body one side rejects gets the same 400 from the other.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/descriptor.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "web/http.hpp"

namespace cnn2fpga::serve {

/// What a deploy body asks for: DesignRegistry::deploy's arguments.
struct DeployRequest {
  core::NetworkDescriptor descriptor;
  std::vector<std::uint8_t> weights;  ///< CNN2FPGAW1 blob, decoded or seed-expanded
  nn::ServePrecision precision = nn::ServePrecision::kFloat32;
  /// The descriptor's network holding `weights`, when the parse built one: a
  /// "seed" body, or a Q4.4 descriptor's clamp check. A registry miss takes
  /// it instead of building and loading a second copy.
  std::optional<nn::Network> network;
};

/// Parse a deploy body: the descriptor JSON at the top level, an optional
/// serve-level string "precision" (float32 | int16 | int8), and the weights
/// as "weights_base64" or as a "seed" (default 1) expanded by
/// seeded_network(). A fixed-point precision object is the descriptor's, and
/// it also picks the serving precision that computes it: Q8.8 serves as
/// int16, Q4.4 as int8, any other format is a 400, and so is a Q4.4
/// descriptor with a weight past the int8 engine's +/-1.9375 clamp. On a bad
/// body returns std::nullopt and, if `error` is set, the 400 envelope.
/// Weights that do not fit the architecture are detected here only for a
/// Q4.4 descriptor; otherwise the registry rejects them when it loads them.
std::optional<DeployRequest> parse_deploy_request(const std::string& body,
                                                  web::HttpResponse* error);

}  // namespace cnn2fpga::serve
