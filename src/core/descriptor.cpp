#include "core/descriptor.hpp"

#include <cmath>
#include <limits>

#include "hls/device.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::core {

using cnn2fpga::util::format;

namespace {

std::size_t require_positive(const json::Value& obj, const std::string& key,
                             const std::string& context) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw DescriptorError(format("%s: missing required field '%s'", context.c_str(),
                                 key.c_str()));
  }
  long value;
  try {
    value = v->as_int();
  } catch (const json::JsonError&) {
    throw DescriptorError(format("%s: field '%s' must be an integer", context.c_str(),
                                 key.c_str()));
  }
  if (value <= 0) {
    throw DescriptorError(format("%s: field '%s' must be positive, got %ld", context.c_str(),
                                 key.c_str(), value));
  }
  return static_cast<std::size_t>(value);
}

/// A fixed-point precision's bit count. A missing or non-numeric field keeps
/// the default; a non-integer or one outside int's range is rejected by name.
int precision_bits(const json::Value& precision, const std::string& key, int fallback) {
  const json::Value* v = precision.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double value = v->as_double();
  if (std::nearbyint(value) != value) {
    throw DescriptorError(format("descriptor: precision field '%s' must be an integer, got %g",
                                 key.c_str(), value));
  }
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    throw DescriptorError(format("descriptor: precision field '%s' is out of range, got %g",
                                 key.c_str(), value));
  }
  return static_cast<int>(value);
}

std::optional<nn::ActKind> parse_activation(const json::Value& obj,
                                            const std::string& context) {
  const json::Value* act = obj.find("activation");
  if (act == nullptr || act->is_null()) return std::nullopt;
  if (!act->is_string()) {
    throw DescriptorError(context + ": 'activation' must be a string");
  }
  const std::string name = act->as_string();
  if (name == "none") return std::nullopt;
  if (name == "tanh") return nn::ActKind::kTanh;
  if (name == "relu") return nn::ActKind::kReLU;
  if (name == "sigmoid") return nn::ActKind::kSigmoid;
  throw DescriptorError(format("%s: activation '%s' unknown (none, tanh, relu, sigmoid)",
                               context.c_str(), name.c_str()));
}

PoolSpec parse_pool(const json::Value& obj, const std::string& context) {
  PoolSpec pool;
  const std::string type = obj.get_string("type", "max");
  if (type == "max") {
    pool.kind = nn::PoolKind::kMax;
  } else if (type == "mean") {
    pool.kind = nn::PoolKind::kMean;
  } else {
    throw DescriptorError(format("%s: pool type '%s' unknown (use 'max' or 'mean')",
                                 context.c_str(), type.c_str()));
  }
  pool.kernel = require_positive(obj, "kernel", context + ".pool");
  pool.step = obj.find("step") != nullptr
                  ? require_positive(obj, "step", context + ".pool")
                  : pool.kernel;  // default: non-overlapping windows
  return pool;
}

LayerSpec parse_layer(const json::Value& obj, std::size_t index) {
  const std::string context = format("layers[%zu]", index);
  if (!obj.is_object()) throw DescriptorError(context + ": must be an object");

  const std::string type = obj.get_string("type", "");
  LayerSpec spec;
  if (type == "conv") {
    spec.type = LayerSpec::Type::kConv;
    spec.conv.feature_maps_out = require_positive(obj, "feature_maps_out", context);
    if (obj.find("kernel") != nullptr) {
      spec.conv.kernel_h = spec.conv.kernel_w = require_positive(obj, "kernel", context);
    } else {
      spec.conv.kernel_h = require_positive(obj, "kernel_h", context);
      spec.conv.kernel_w = require_positive(obj, "kernel_w", context);
    }
    spec.conv.activation = parse_activation(obj, context);
    if (const json::Value* pool = obj.find("pool"); pool != nullptr && !pool->is_null()) {
      spec.conv.pool = parse_pool(*pool, context);
    }
  } else if (type == "linear") {
    spec.type = LayerSpec::Type::kLinear;
    spec.linear.neurons = require_positive(obj, "neurons", context);
    spec.linear.activation = parse_activation(obj, context);
    // Back-compat with the paper's GUI flag.
    if (!spec.linear.activation && obj.get_bool("tanh", false)) {
      spec.linear.activation = nn::ActKind::kTanh;
    }
  } else {
    throw DescriptorError(format("%s: layer type '%s' unknown (use 'conv' or 'linear')",
                                 context.c_str(), type.c_str()));
  }
  return spec;
}

}  // namespace

NetworkDescriptor NetworkDescriptor::from_json(const json::Value& doc) {
  if (!doc.is_object()) throw DescriptorError("descriptor: document must be a JSON object");

  NetworkDescriptor d;
  if (const json::Value* version = doc.find("schema_version"); version != nullptr) {
    long declared;
    try {
      declared = version->as_int();
    } catch (const json::JsonError&) {
      throw DescriptorError("descriptor: 'schema_version' must be an integer");
    }
    if (declared != NetworkDescriptor::kSchemaVersion) {
      throw DescriptorError(format(
          "descriptor: schema_version %ld is not supported (this build reads version %d)",
          declared, NetworkDescriptor::kSchemaVersion));
    }
    d.schema_version = static_cast<int>(declared);
  }
  d.name = doc.get_string("name", "cnn");
  d.board = doc.get_string("board", "zedboard");
  d.optimize = doc.get_bool("optimize", false);
  d.logsoftmax = doc.get_bool("logsoftmax", true);

  if (const json::Value* precision = doc.find("precision"); precision != nullptr) {
    if (precision->is_string()) {
      const std::string name = precision->as_string();
      if (name != "float32" && name != "float") {
        throw DescriptorError(format(
            "descriptor: precision '%s' unknown (use \"float32\" or a fixed object)",
            name.c_str()));
      }
      d.precision = nn::NumericFormat::float32();
    } else if (precision->is_object()) {
      if (precision->get_string("type", "") != "fixed") {
        throw DescriptorError("descriptor: precision object requires \"type\": \"fixed\"");
      }
      const int total = precision_bits(*precision, "total_bits", 16);
      const int frac = precision_bits(*precision, "frac_bits", 8);
      try {
        d.precision = nn::NumericFormat::fixed_point(total, frac);
      } catch (const std::invalid_argument& e) {
        throw DescriptorError(format("descriptor: %s", e.what()));
      }
    } else {
      throw DescriptorError("descriptor: 'precision' must be a string or object");
    }
  }

  const json::Value* input = doc.find("input");
  if (input == nullptr || !input->is_object()) {
    throw DescriptorError("descriptor: missing 'input' object");
  }
  d.input_channels = require_positive(*input, "channels", "input");
  d.input_height = require_positive(*input, "height", "input");
  d.input_width = require_positive(*input, "width", "input");

  if (const json::Value* clock = doc.find("clock_mhz"); clock != nullptr) {
    if (!clock->is_number()) throw DescriptorError("descriptor: 'clock_mhz' must be a number");
    d.clock_mhz = clock->as_double();
    if (d.clock_mhz < 50.0 || d.clock_mhz > 250.0) {
      throw DescriptorError(format(
          "descriptor: clock_mhz %.1f outside the supported 50..250 MHz range", d.clock_mhz));
    }
  }

  if (const json::Value* mode = doc.find("weights_mode"); mode != nullptr) {
    const std::string name = mode->is_string() ? mode->as_string() : "";
    if (name == "hardcoded") {
      d.streamed_weights = false;
    } else if (name == "streamed") {
      d.streamed_weights = true;
    } else {
      throw DescriptorError(
          "descriptor: weights_mode must be \"hardcoded\" or \"streamed\"");
    }
  }

  const json::Value* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array()) {
    throw DescriptorError("descriptor: missing 'layers' array");
  }
  for (std::size_t i = 0; i < layers->as_array().size(); ++i) {
    d.layers.push_back(parse_layer(layers->as_array()[i], i));
  }

  d.validate();
  return d;
}

NetworkDescriptor NetworkDescriptor::from_json_text(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::JsonError& e) {
    throw DescriptorError(format("descriptor: %s", e.what()));
  }
  return from_json(doc);
}

json::Value NetworkDescriptor::to_json() const {
  json::Object doc;
  doc["schema_version"] = kSchemaVersion;
  doc["name"] = name;
  doc["board"] = board;
  doc["optimize"] = optimize;
  doc["logsoftmax"] = logsoftmax;
  if (precision.is_fixed) {
    json::Object prec;
    prec["type"] = "fixed";
    prec["total_bits"] = precision.fixed.total_bits;
    prec["frac_bits"] = precision.fixed.frac_bits;
    doc["precision"] = std::move(prec);
  } else {
    doc["precision"] = "float32";
  }
  doc["weights_mode"] = streamed_weights ? "streamed" : "hardcoded";
  if (clock_mhz > 0.0) doc["clock_mhz"] = clock_mhz;
  json::Object input;
  input["channels"] = input_channels;
  input["height"] = input_height;
  input["width"] = input_width;
  doc["input"] = std::move(input);

  json::Array layer_array;
  for (const LayerSpec& spec : layers) {
    json::Object layer;
    const auto activation_name = [](nn::ActKind kind) {
      switch (kind) {
        case nn::ActKind::kTanh: return "tanh";
        case nn::ActKind::kReLU: return "relu";
        case nn::ActKind::kSigmoid: return "sigmoid";
      }
      return "none";
    };
    if (spec.type == LayerSpec::Type::kConv) {
      layer["type"] = "conv";
      layer["feature_maps_out"] = spec.conv.feature_maps_out;
      layer["kernel_h"] = spec.conv.kernel_h;
      layer["kernel_w"] = spec.conv.kernel_w;
      if (spec.conv.activation) layer["activation"] = activation_name(*spec.conv.activation);
      if (spec.conv.pool) {
        json::Object pool;
        pool["type"] = spec.conv.pool->kind == nn::PoolKind::kMax ? "max" : "mean";
        pool["kernel"] = spec.conv.pool->kernel;
        pool["step"] = spec.conv.pool->step;
        layer["pool"] = std::move(pool);
      }
    } else {
      layer["type"] = "linear";
      layer["neurons"] = spec.linear.neurons;
      if (spec.linear.activation) {
        layer["activation"] = activation_name(*spec.linear.activation);
      }
    }
    layer_array.push_back(std::move(layer));
  }
  doc["layers"] = std::move(layer_array);
  return json::Value(std::move(doc));
}

void NetworkDescriptor::validate() const {
  if (name.empty()) throw DescriptorError("descriptor: 'name' must not be empty");
  if (!hls::find_device(board)) {
    std::string known;
    for (const hls::FpgaDevice& dev : hls::device_catalog()) {
      if (!known.empty()) known += ", ";
      known += dev.board;
    }
    throw DescriptorError(format("descriptor: board '%s' not supported (available: %s)",
                                 board.c_str(), known.c_str()));
  }
  if (layers.empty()) throw DescriptorError("descriptor: at least one layer is required");

  // The paper's CNN structure: the convolutional part strictly precedes the
  // linear part (Fig. 1), and the network must end in a linear layer so the
  // LogSoftMax output has class scores to normalize.
  bool seen_linear = false;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].type == LayerSpec::Type::kLinear) {
      seen_linear = true;
    } else if (seen_linear) {
      throw DescriptorError(format(
          "layers[%zu]: convolutional layer after a linear layer; the "
          "convolutional part must precede the linear part", i));
    }
  }
  if (layers.back().type != LayerSpec::Type::kLinear) {
    throw DescriptorError("descriptor: the last layer must be linear (class scores)");
  }

  // Shape feasibility: building the network performs per-layer checks and
  // throws std::invalid_argument on e.g. a kernel larger than its input;
  // rewrap as DescriptorError for a uniform error surface.
  try {
    (void)build_network_unchecked_();
  } catch (const std::invalid_argument& e) {
    throw DescriptorError(format("descriptor: infeasible network shape: %s", e.what()));
  }
}

nn::Network NetworkDescriptor::build_network() const {
  validate();
  return build_network_unchecked_();
}

nn::Network NetworkDescriptor::build_network_unchecked_() const {
  nn::Network net(nn::Shape{input_channels, input_height, input_width}, name);
  for (const LayerSpec& spec : layers) {
    if (spec.type == LayerSpec::Type::kConv) {
      net.add_conv(spec.conv.feature_maps_out, spec.conv.kernel_h, spec.conv.kernel_w);
      if (spec.conv.activation) net.add_activation(*spec.conv.activation);
      if (spec.conv.pool) {
        if (spec.conv.pool->kind == nn::PoolKind::kMax) {
          net.add_max_pool(spec.conv.pool->kernel, spec.conv.pool->step);
        } else {
          net.add_mean_pool(spec.conv.pool->kernel, spec.conv.pool->step);
        }
      }
    } else {
      net.add_linear(spec.linear.neurons);
      if (spec.linear.activation) net.add_activation(*spec.linear.activation);
    }
  }
  if (logsoftmax) net.add_logsoftmax();
  return net;
}

std::size_t NetworkDescriptor::num_classes() const {
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (it->type == LayerSpec::Type::kLinear) return it->linear.neurons;
  }
  return 0;
}

}  // namespace cnn2fpga::core
