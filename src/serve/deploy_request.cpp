#include "serve/deploy_request.hpp"

#include <stdexcept>

#include "nn/kernels/kernels_int.hpp"
#include "nn/serialize.hpp"
#include "serve/registry.hpp"
#include "util/base64.hpp"
#include "util/strings.hpp"
#include "web/envelope.hpp"

namespace cnn2fpga::serve {

using web::api_error;

std::optional<DeployRequest> parse_deploy_request(const std::string& body,
                                                  web::HttpResponse* error) {
  const auto reject = [error](web::HttpResponse response) -> std::optional<DeployRequest> {
    if (error) *error = std::move(response);
    return std::nullopt;
  };

  json::Value doc;
  try {
    doc = json::parse(body);
  } catch (const json::JsonError& e) {
    return reject(api_error(400, "bad_json", "request body is not valid JSON", e.what()));
  }

  // A string "precision" selects the serving arithmetic; the descriptor
  // parser keeps its own "precision" key for codegen ("float32" or a fixed
  // object), so the serve-level string is consumed here and the descriptor
  // sees the spelling it understands. Fixed objects pass through untouched.
  DeployRequest request;
  if (const json::Value* requested = doc.find("precision");
      requested != nullptr && requested->is_string()) {
    if (!nn::parse_serve_precision(requested->as_string(), request.precision)) {
      return reject(api_error(400, "bad_request",
                              "deploy: precision must be one of float32, int16, int8"));
    }
    doc.as_object()["precision"] = "float32";
  }

  try {
    request.descriptor = core::NetworkDescriptor::from_json(doc);
  } catch (const core::DescriptorError& e) {
    return reject(api_error(400, "bad_descriptor", e.what()));
  }

  // A fixed-point descriptor serves on the integer engine that computes its
  // format (the inverse of serve_precision_format); no engine computes any
  // other format, so those are refused rather than served in another one.
  if (const nn::NumericFormat& numeric = request.descriptor.precision; numeric.is_fixed) {
    if (numeric.fixed == nn::serve_precision_format(nn::ServePrecision::kInt16)) {
      request.precision = nn::ServePrecision::kInt16;
    } else if (numeric.fixed == nn::serve_precision_format(nn::ServePrecision::kInt8)) {
      request.precision = nn::ServePrecision::kInt8;
    } else {
      return reject(api_error(
          400, "bad_request",
          util::format("deploy: no serving engine computes fixed precision %s; use Q8.8 "
                       "(served as int16) or Q4.4 (served as int8)",
                       numeric.fixed.name().c_str())));
    }
  }

  try {
    if (const json::Value* encoded = doc.find("weights_base64"); encoded != nullptr) {
      auto bytes = util::base64_decode(encoded->as_string());
      if (!bytes) {
        return reject(api_error(400, "bad_request", "weights_base64 is not valid base64"));
      }
      request.weights = std::move(*bytes);
    } else {
      const std::uint64_t seed = static_cast<std::uint64_t>(doc.get_int("seed", 1));
      request.network = seeded_network(request.descriptor, seed);
      request.weights = nn::serialize_weights(*request.network);
    }
  } catch (const json::JsonError& e) {
    // weights_base64 that is not a string, a seed that is not an integer.
    return reject(api_error(400, "bad_request", e.what()));
  }

  // The int8 engine clamps the weights kernels::int8_weight_clamped names. With
  // one of them a Q4.4 descriptor would serve arithmetic that neither its
  // generated IP nor forward_fixed computes, so it is refused; a plain
  // "precision": "int8" deploy asks for the clamped engine itself and is served.
  if (request.descriptor.precision.is_fixed &&
      request.precision == nn::ServePrecision::kInt8) {
    const nn::FixedPointFormat& format = request.descriptor.precision.fixed;
    if (!request.network) {
      nn::Network net = request.descriptor.build_network();
      try {
        nn::deserialize_weights(net, request.weights);
      } catch (const std::runtime_error& e) {
        return reject(api_error(400, "bad_request", e.what()));  // as the registry answers
      }
      request.network = std::move(net);
    }
    const double bound = static_cast<double>(nn::kernels::kInt8WeightClamp) /
                         static_cast<double>(1 << format.frac_bits);
    for (const nn::Param& param : request.network->params()) {
      if (!param.name.ends_with(".weights")) continue;  // biases are not clamped
      for (std::size_t i = 0; i < param.value->size(); ++i) {
        const float w = (*param.value)[i];
        if (!nn::kernels::int8_weight_clamped(w, format)) continue;
        return reject(api_error(
            400, "bad_request",
            util::format("deploy: weight %g is outside +/-%g, the int8 engine's clamp, so "
                         "it cannot compute %s; keep weights within +/-%g or deploy with "
                         "\"precision\": \"int8\" to serve clamped weights",
                         static_cast<double>(w), bound, format.name().c_str(), bound)));
      }
    }
  }
  return request;
}

}  // namespace cnn2fpga::serve
