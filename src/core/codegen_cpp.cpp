#include "core/codegen_cpp.hpp"

#include <cmath>
#include <cstdio>

#include "nn/fixed_inference.hpp"
#include "util/strings.hpp"

namespace cnn2fpga::core {

using cnn2fpga::util::format;
using nn::FixedPointFormat;
using nn::Shape;

std::string float_literal(float value) {
  if (!std::isfinite(value)) return "0.0f /* non-finite weight replaced */";
  // %.9g prints enough significant digits to round-trip any float32.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  std::string text = buf;
  // Ensure the literal parses as floating (avoid "3" becoming an int literal).
  if (text.find('.') == std::string::npos && text.find('e') == std::string::npos &&
      text.find("inf") == std::string::npos) {
    text += ".0";
  }
  return text + "f";
}

namespace {

void emit_float_array(std::string& out, const std::string& name, const nn::Tensor& tensor) {
  out += format("static const float %s[%zu] = {\n", name.c_str(), tensor.size());
  std::string line = "  ";
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    line += float_literal(tensor[i]);
    if (i + 1 != tensor.size()) line += ", ";
    if (line.size() > 90 || i + 1 == tensor.size()) {
      out += line + "\n";
      line = "  ";
    }
  }
  out += "};\n";
}

void emit_fixed_array(std::string& out, const std::string& name, const nn::Tensor& tensor,
                      const FixedPointFormat& fmt) {
  out += format("static const fixed_t %s[%zu] = {  // %s raw values\n", name.c_str(),
                tensor.size(), fmt.name().c_str());
  std::string line = "  ";
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    line += format("%d", nn::fixed_quantize(tensor[i], fmt));
    if (i + 1 != tensor.size()) line += ", ";
    if (line.size() > 90 || i + 1 == tensor.size()) {
      out += line + "\n";
      line = "  ";
    }
  }
  out += "};\n";
}

struct EmitContext {
  bool optimize = false;
  bool streamed = false;       ///< weights uploaded over the stream at start-up
  nn::NumericFormat numeric;
  std::string current_buffer;  ///< name of the buffer holding the last output
  Shape current_shape;
  std::string blocks;          ///< accumulated layer code
  std::string weight_decls;    ///< accumulated weight arrays
  /// (array name, element count) in upload order -- matches Network::params().
  std::vector<std::pair<std::string, std::size_t>> weight_arrays;

  bool fixed() const { return numeric.is_fixed; }
  const char* value_type() const { return fixed() ? "fixed_t" : "float"; }
};

void emit_one_weight_array(EmitContext& ctx, const std::string& name,
                           const nn::Tensor& tensor) {
  if (ctx.streamed) {
    ctx.weight_decls += format("static %s %s[%zu];  // loaded at start-up\n",
                               ctx.value_type(), name.c_str(), tensor.size());
    ctx.weight_arrays.emplace_back(name, tensor.size());
    return;
  }
  if (ctx.fixed()) {
    emit_fixed_array(ctx.weight_decls, name, tensor, ctx.numeric.fixed);
  } else {
    emit_float_array(ctx.weight_decls, name, tensor);
  }
}

void emit_weight_pair(EmitContext& ctx, const std::string& wname, const nn::Tensor& weights,
                      const std::string& bname, const nn::Tensor& bias) {
  emit_one_weight_array(ctx, wname, weights);
  emit_one_weight_array(ctx, bname, bias);
}

void emit_conv(EmitContext& ctx, const nn::Conv2D& conv, const Shape& out_shape,
               std::size_t index) {
  const std::string w = format("w_conv%zu", index);
  const std::string b = format("b_conv%zu", index);
  const std::string buf = format("buf_conv%zu", index);
  emit_weight_pair(ctx, w, conv.weights(), b, conv.bias());

  const std::size_t K = conv.out_channels(), C = conv.in_channels();
  const std::size_t KH = conv.kernel_h(), KW = conv.kernel_w();
  const std::size_t OH = out_shape.height(), OW = out_shape.width();
  const std::size_t IH = ctx.current_shape.height(), IW = ctx.current_shape.width();

  std::string& s = ctx.blocks;
  s += format("  // layer %zu: convolution, %zu kernels of %zux%zux%zu (Eq. 1)\n", index, K, C,
              KH, KW);
  s += format("  static %s %s[%zu];\n", ctx.value_type(), buf.c_str(), out_shape.elements());
  s += format("L%zu_k: for (int k = 0; k < %zu; ++k) {\n", index, K);
  s += format("  L%zu_i: for (int i = 0; i < %zu; ++i) {\n", index, OH);
  s += format("    L%zu_j: for (int j = 0; j < %zu; ++j) {\n", index, OW);
  if (ctx.fixed()) {
    s += format("        acc_t acc = ((acc_t)%s[k]) << FRAC_BITS;\n", b.c_str());
  } else {
    s += format("        float acc = %s[k];\n", b.c_str());
  }
  s += format("      L%zu_c: for (int c = 0; c < %zu; ++c) {\n", index, C);
  if (ctx.optimize) s += "#pragma HLS PIPELINE II=1\n";
  s += format("        L%zu_m: for (int m = 0; m < %zu; ++m) {\n", index, KH);
  s += format("          L%zu_n: for (int n = 0; n < %zu; ++n) {\n", index, KW);
  if (ctx.fixed()) {
    s += format("            acc += (acc_t)%s[((k * %zu + c) * %zu + m) * %zu + n] *\n",
                w.c_str(), C, KH, KW);
    s += format("                   (acc_t)%s[(c * %zu + (i + m)) * %zu + (j + n)];\n",
                ctx.current_buffer.c_str(), IH, IW);
  } else {
    s += format("            acc += %s[((k * %zu + c) * %zu + m) * %zu + n] *\n", w.c_str(), C,
                KH, KW);
    s += format("                   %s[(c * %zu + (i + m)) * %zu + (j + n)];\n",
                ctx.current_buffer.c_str(), IH, IW);
  }
  s += "          }\n        }\n      }\n";
  if (ctx.fixed()) {
    s += format("      %s[(k * %zu + i) * %zu + j] = renorm(acc);\n", buf.c_str(), OH, OW);
  } else {
    s += format("      %s[(k * %zu + i) * %zu + j] = acc;\n", buf.c_str(), OH, OW);
  }
  s += "    }\n  }\n}\n\n";

  ctx.current_buffer = buf;
  ctx.current_shape = out_shape;
}

void emit_pool(EmitContext& ctx, const nn::Pool2D& pool, const Shape& out_shape,
               std::size_t index) {
  const std::string buf = format("buf_pool%zu", index);
  const bool is_max = pool.pool_kind() == nn::PoolKind::kMax;
  const std::size_t C = out_shape.channels(), OH = out_shape.height(), OW = out_shape.width();
  const std::size_t KH = pool.kernel_h(), KW = pool.kernel_w(), S = pool.step();
  const std::size_t IH = ctx.current_shape.height(), IW = ctx.current_shape.width();

  std::string& s = ctx.blocks;
  s += format("  // layer %zu: %s-pooling %zux%zu stride %zu (Eq. 4/5)\n", index,
              is_max ? "max" : "mean", KH, KW, S);
  s += format("  static %s %s[%zu];\n", ctx.value_type(), buf.c_str(), out_shape.elements());
  s += format("L%zu_c: for (int c = 0; c < %zu; ++c) {\n", index, C);
  s += format("  L%zu_i: for (int i = 0; i < %zu; ++i) {\n", index, OH);
  s += format("    L%zu_j: for (int j = 0; j < %zu; ++j) {\n", index, OW);
  if (is_max) {
    s += format("        %s best = %s[(c * %zu + i * %zu) * %zu + j * %zu];\n",
                ctx.value_type(), ctx.current_buffer.c_str(), IH, S, IW, S);
  } else {
    s += ctx.fixed() ? "        acc_t acc = 0;\n" : "        float acc = 0.0f;\n";
  }
  s += format("      L%zu_m: for (int m = 0; m < %zu; ++m) {\n", index, KH);
  s += format("        L%zu_n: for (int n = 0; n < %zu; ++n) {\n", index, KW);
  s += format("          const %s v = %s[(c * %zu + (i * %zu + m)) * %zu + (j * %zu + n)];\n",
              ctx.value_type(), ctx.current_buffer.c_str(), IH, S, IW, S);
  if (is_max) {
    s += "          if (v > best) best = v;\n";
  } else {
    s += ctx.fixed() ? "          acc += (acc_t)v;\n" : "          acc += v;\n";
  }
  s += "        }\n      }\n";
  if (is_max) {
    s += format("      %s[(c * %zu + i) * %zu + j] = best;\n", buf.c_str(), OH, OW);
  } else if (ctx.fixed()) {
    // Symmetric round-half-away integer mean (mirrors nn::forward_fixed).
    const std::size_t window = KH * KW;
    s += format("      const acc_t mean = acc >= 0 ? (acc + %zu) / %zu : -((-acc + %zu) / %zu);\n",
                window / 2, window, window / 2, window);
    s += format("      %s[(c * %zu + i) * %zu + j] = sat(mean);\n", buf.c_str(), OH, OW);
  } else {
    s += format("      %s[(c * %zu + i) * %zu + j] = acc * %s;\n", buf.c_str(), OH, OW,
                float_literal(1.0f / static_cast<float>(KH * KW)).c_str());
  }
  s += "    }\n  }\n}\n\n";

  ctx.current_buffer = buf;
  ctx.current_shape = out_shape;
}

void emit_linear(EmitContext& ctx, const nn::Linear& linear, std::size_t index) {
  const std::string w = format("w_linear%zu", index);
  const std::string b = format("b_linear%zu", index);
  const std::string buf = format("buf_linear%zu", index);
  emit_weight_pair(ctx, w, linear.weights(), b, linear.bias());

  const std::size_t J = linear.out_features(), I = linear.in_features();

  std::string& s = ctx.blocks;
  s += format("  // layer %zu: linear, %zu -> %zu neurons (Eq. 6)\n", index, I, J);
  s += format("  static %s %s[%zu];\n", ctx.value_type(), buf.c_str(), J);
  s += format("L%zu_j: for (int j = 0; j < %zu; ++j) {\n", index, J);
  if (ctx.fixed()) {
    s += format("      acc_t acc = ((acc_t)%s[j]) << FRAC_BITS;\n", b.c_str());
  } else {
    s += format("      float acc = %s[j];\n", b.c_str());
  }
  s += format("  L%zu_i: for (int i = 0; i < %zu; ++i) {\n", index, I);
  if (ctx.optimize) s += "#pragma HLS PIPELINE II=1\n";
  if (ctx.fixed()) {
    s += format("    acc += (acc_t)%s[j * %zu + i] * (acc_t)%s[i];\n", w.c_str(), I,
                ctx.current_buffer.c_str());
  } else {
    s += format("    acc += %s[j * %zu + i] * %s[i];\n", w.c_str(), I,
                ctx.current_buffer.c_str());
  }
  s += "  }\n";
  s += format("  %s[j] = %s;\n", buf.c_str(), ctx.fixed() ? "renorm(acc)" : "acc");
  s += "}\n\n";

  ctx.current_buffer = buf;
  ctx.current_shape = Shape{J};
}

void emit_activation(EmitContext& ctx, const nn::Activation& act, std::size_t index) {
  const std::string buf = format("buf_act%zu", index);
  const std::size_t N = ctx.current_shape.elements();
  const std::string prev = ctx.current_buffer;

  std::string& s = ctx.blocks;
  s += format("  // layer %zu: %s non-linearity\n", index, act.kind().c_str());
  s += format("  static %s %s[%zu];\n", ctx.value_type(), buf.c_str(), N);
  s += format("L%zu_e: for (int e = 0; e < %zu; ++e) {\n", index, N);
  switch (act.act()) {
    case nn::ActKind::kTanh:
      if (ctx.fixed()) {
        s += format("  %s[e] = q(tanhf(dq(%s[e])));\n", buf.c_str(), prev.c_str());
      } else {
        s += format("  %s[e] = tanhf(%s[e]);\n", buf.c_str(), prev.c_str());
      }
      break;
    case nn::ActKind::kSigmoid:
      if (ctx.fixed()) {
        s += format("  %s[e] = q(1.0f / (1.0f + expf(-dq(%s[e]))));\n", buf.c_str(),
                    prev.c_str());
      } else {
        s += format("  %s[e] = 1.0f / (1.0f + expf(-%s[e]));\n", buf.c_str(), prev.c_str());
      }
      break;
    case nn::ActKind::kReLU:
      s += format("  %s[e] = %s[e] > 0 ? %s[e] : 0;\n", buf.c_str(), prev.c_str(),
                  prev.c_str());
      break;
  }
  s += "}\n\n";

  ctx.current_buffer = buf;
}

/// LogSoftMax block writing float log-probabilities into `scores`, identical
/// arithmetic order to nn::LogSoftMax / nn::forward_fixed.
void emit_logsoftmax(EmitContext& ctx, std::size_t classes, const std::string& scores) {
  std::string& s = ctx.blocks;
  const std::string prev = ctx.current_buffer;
  s += "  // output block: LogSoftMax normalization (Eq. 7)\n";
  if (ctx.fixed()) {
    // The normalizer evaluates in float on dequantized logits (the fixed
    // design instantiates one small float datapath here, as the reference
    // fixed-point model does).
    s += format("  static float ls_logits[%zu];\n", classes);
    s += format("LS_dq: for (int k = 0; k < %zu; ++k) {\n", classes);
    s += format("  ls_logits[k] = dq(%s[k]);\n}\n", prev.c_str());
    s += format("  float ls_max = ls_logits[0];\n");
    s += format("LS_max: for (int k = 1; k < %zu; ++k) {\n", classes);
    s += "  if (ls_logits[k] > ls_max) ls_max = ls_logits[k];\n}\n";
    s += "  float ls_sum = 0.0f;\n";
    s += format("LS_sum: for (int k = 0; k < %zu; ++k) {\n", classes);
    s += "  ls_sum += expf(ls_logits[k] - ls_max);\n}\n";
    s += "  const float ls_log = logf(ls_sum);\n";
    s += format("LS_out: for (int k = 0; k < %zu; ++k) {\n", classes);
    s += format("  %s[k] = (ls_logits[k] - ls_max) - ls_log;\n}\n\n", scores.c_str());
  } else {
    s += format("  float ls_max = %s[0];\n", prev.c_str());
    s += format("LS_max: for (int k = 1; k < %zu; ++k) {\n", classes);
    s += format("  if (%s[k] > ls_max) ls_max = %s[k];\n}\n", prev.c_str(), prev.c_str());
    s += "  float ls_sum = 0.0f;\n";
    s += format("LS_sum: for (int k = 0; k < %zu; ++k) {\n", classes);
    s += format("  ls_sum += expf(%s[k] - ls_max);\n}\n", prev.c_str());
    s += "  const float ls_log = logf(ls_sum);\n";
    s += format("LS_out: for (int k = 0; k < %zu; ++k) {\n", classes);
    s += format("  %s[k] = (%s[k] - ls_max) - ls_log;\n}\n\n", scores.c_str(), prev.c_str());
  }
  ctx.current_buffer = scores;
}

void emit_fixed_helpers(std::string& out, const FixedPointFormat& fmt) {
  out += format("// fixed-point plumbing: %s, scale 2^%d, saturating, round-half-up\n",
                fmt.name().c_str(), fmt.frac_bits);
  out += "typedef int fixed_t;       // raw Q values (synthesis: ap_int<TOTAL_BITS>)\n";
  out += "typedef long long acc_t;   // dot-product accumulator\n";
  out += format("#define FRAC_BITS %d\n", fmt.frac_bits);
  out += format("#define FIXED_MAX %lldLL\n", static_cast<long long>(fmt.max_raw()));
  out += format("#define FIXED_MIN (%lldLL)\n", static_cast<long long>(fmt.min_raw()));
  out += format("#define FIXED_SCALE %lldLL\n\n", static_cast<long long>(fmt.scale()));
  out += "static fixed_t sat(acc_t v) {\n";
  out += "  if (v > FIXED_MAX) return (fixed_t)FIXED_MAX;\n";
  out += "  if (v < FIXED_MIN) return (fixed_t)FIXED_MIN;\n";
  out += "  return (fixed_t)v;\n";
  out += "}\n";
  out += "static fixed_t renorm(acc_t a) {\n";
  out += format("  return sat((a + (1LL << (FRAC_BITS - 1))) >> FRAC_BITS);\n");
  out += "}\n";
  out += "static fixed_t q(float v) {\n";
  out += format("  const float s = v * %s;\n",
                float_literal(static_cast<float>(fmt.scale())).c_str());
  out += format("  if (!(s < %s)) return (fixed_t)FIXED_MAX;\n",
                float_literal(static_cast<float>(fmt.max_raw())).c_str());
  out += format("  if (s < %s) return (fixed_t)FIXED_MIN;\n",
                float_literal(static_cast<float>(fmt.min_raw())).c_str());
  out += "  return (fixed_t)lrintf(s);\n";
  out += "}\n";
  out += "static float dq(acc_t v) { return (float)((double)v / (double)FIXED_SCALE); }\n\n";
}

}  // namespace

void check_emittable(const NetworkDescriptor& descriptor, const nn::Network& net) {
  // The trained network must have exactly the architecture the descriptor
  // describes (the weight file belongs to this design).
  const nn::Network expected = descriptor.build_network();
  bool mismatch = expected.layer_count() != net.layer_count() ||
                  expected.input_shape() != net.input_shape();
  for (std::size_t i = 0; !mismatch && i < expected.layer_count(); ++i) {
    mismatch = expected.layer(i).kind() != net.layer(i).kind() ||
               expected.shape_after(i) != net.shape_after(i);
  }
  if (mismatch) {
    throw DescriptorError(format(
        "generate_cpp: network does not match descriptor '%s' (layer structure or "
        "shapes differ); re-train or fix the descriptor", descriptor.name.c_str()));
  }
  if (descriptor.precision.is_fixed) descriptor.precision.fixed.validate();
}

std::string generate_cpp(const NetworkDescriptor& descriptor, const nn::Network& net,
                         const CodegenOptions& options) {
  check_emittable(descriptor, net);

  const std::size_t in_elems = net.input_shape().elements();
  const std::size_t classes = net.output_shape().elements();

  EmitContext ctx;
  ctx.optimize = descriptor.optimize;
  ctx.streamed = descriptor.streamed_weights;
  ctx.numeric = descriptor.precision;
  ctx.current_buffer = "in";
  ctx.current_shape = net.input_shape();

  bool logsoftmax_emitted = false;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const nn::Layer& layer = net.layer(i);
    const Shape& out_shape = net.shape_after(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
      emit_conv(ctx, *conv, out_shape, i);
    } else if (const auto* pool = dynamic_cast<const nn::Pool2D*>(&layer)) {
      emit_pool(ctx, *pool, out_shape, i);
    } else if (const auto* linear = dynamic_cast<const nn::Linear*>(&layer)) {
      emit_linear(ctx, *linear, i);
    } else if (const auto* act = dynamic_cast<const nn::Activation*>(&layer)) {
      emit_activation(ctx, *act, i);
    } else if (dynamic_cast<const nn::LogSoftMax*>(&layer) != nullptr) {
      emit_logsoftmax(ctx, classes, "scores");
      logsoftmax_emitted = true;
    } else {
      throw DescriptorError(format("generate_cpp: unsupported layer kind '%s'",
                                   layer.kind().c_str()));
    }
  }

  std::string out;
  out += "// =====================================================================\n";
  out += format("// %s.cpp -- synthesizable CNN generated by cnn2fpga\n",
                util::sanitize_identifier(descriptor.name).c_str());
  out += format("// network: %s   input: %zux%zux%zu   classes: %zu   precision: %s\n",
                descriptor.name.c_str(), descriptor.input_channels, descriptor.input_height,
                descriptor.input_width, classes, descriptor.precision.name().c_str());
  out += format("// board: %s   directives: %s   weights: %s\n", descriptor.board.c_str(),
                descriptor.optimize ? "HLS DATAFLOW + HLS PIPELINE" : "none (naive)",
                descriptor.streamed_weights ? "streamed at start-up" : "hard-coded");
  out += "// Generated file: do not edit. Loop/accumulation order matches the\n";
  out += "// cnn2fpga reference library bit-for-bit.\n";
  out += "// =====================================================================\n";
  out += "#include <math.h>\n\n";

  if (ctx.fixed()) emit_fixed_helpers(out, ctx.numeric.fixed);

  out += "// ---- network parameters (trained offline, hard-coded) ----\n";
  out += ctx.weight_decls;
  out += "\n";

  out += "// ---- feed-forward core: one code block per layer ----\n";
  out += format("int %s(const %s in[%zu], float scores[%zu]) {\n", options.core_function.c_str(),
                ctx.fixed() ? "fixed_t" : "float", in_elems, classes);
  if (descriptor.optimize) out += "#pragma HLS DATAFLOW\n";
  out += ctx.blocks;

  if (!logsoftmax_emitted) {
    out += "  // no LogSoftMax requested: raw class scores\n";
    out += format("RAW_out: for (int k = 0; k < %zu; ++k) {\n", classes);
    if (ctx.fixed()) {
      out += format("  scores[k] = dq(%s[k]);\n}\n\n", ctx.current_buffer.c_str());
    } else {
      out += format("  scores[k] = %s[k];\n}\n\n", ctx.current_buffer.c_str());
    }
  }

  out += "  // predicted class: argmax over the normalized scores\n";
  out += "  int best = 0;\n";
  out += format("ARGMAX: for (int k = 1; k < %zu; ++k) {\n", classes);
  out += "  if (scores[k] > scores[best]) best = k;\n}\n";
  out += "  return best;\n";
  out += "}\n\n";

  out += "// ---- AXI4-Stream top-level wrapper (DMA-facing interface) ----\n";
  out += "#ifdef __SYNTHESIS__\n";
  out += "#include \"hls_stream.h\"\n";
  out += "typedef hls::stream<float> float_stream;\n";
  out += "#else\n";
  out += "#include <deque>\n";
  out += "struct float_stream {  // simulation substitute for hls::stream\n";
  out += "  std::deque<float> q;\n";
  out += "  void write(float v) { q.push_back(v); }\n";
  out += "  float read() { float v = q.front(); q.pop_front(); return v; }\n";
  out += "};\n";
  out += "#endif\n\n";

  std::size_t total_weights = 0;
  for (const auto& [name, count] : ctx.weight_arrays) total_weights += count;

  if (ctx.streamed) {
    out += format("int %s(float_stream &in_stream, float_stream &out_stream, "
                  "int load_weights) {\n",
                  options.top_function.c_str());
  } else {
    out += format("int %s(float_stream &in_stream, float_stream &out_stream) {\n",
                  options.top_function.c_str());
  }
  out += "#pragma HLS INTERFACE axis port=in_stream\n";
  out += "#pragma HLS INTERFACE axis port=out_stream\n";
  out += "#pragma HLS INTERFACE s_axilite port=return\n";
  if (ctx.streamed) {
    out += "#pragma HLS INTERFACE s_axilite port=load_weights\n";
    out += format("  // start-up weight upload: %zu words in Network::params() order\n",
                  total_weights);
    out += "  if (load_weights) {\n";
    for (const auto& [name, count] : ctx.weight_arrays) {
      out += format("  WLOAD_%s: for (int e = 0; e < %zu; ++e) {\n", name.c_str(), count);
      out += format("    %s[e] = %s;\n  }\n", name.c_str(),
                    ctx.fixed() ? "q(in_stream.read())" : "in_stream.read()");
    }
    out += "    return 0;\n";
    out += "  }\n";
  }
  out += format("  %s in[%zu];\n", ctx.fixed() ? "fixed_t" : "float", in_elems);
  out += format("READ_in: for (int e = 0; e < %zu; ++e) {\n", in_elems);
  out += ctx.fixed() ? "  in[e] = q(in_stream.read());\n}\n" : "  in[e] = in_stream.read();\n}\n";
  out += format("  float scores[%zu];\n", classes);
  out += format("  const int predicted = %s(in, scores);\n", options.core_function.c_str());
  out += format("WRITE_out: for (int k = 0; k < %zu; ++k) {\n", classes);
  out += "  out_stream.write(scores[k]);\n}\n";
  out += "  out_stream.write((float)predicted);\n";
  out += "  return predicted;\n";
  out += "}\n";

  if (options.emit_testbench) {
    out += "\n// ---- host testbench (not synthesized) ----\n";
    out += "#ifdef CNN2FPGA_TESTBENCH\n";
    out += "#include <stdio.h>\n";
    out += "int main() {\n";
    out += "  float_stream in_stream, out_stream;\n";
    if (ctx.streamed) {
      out += format("  // streamed-weights design: the first %zu stdin values are the\n",
                    total_weights);
      out += "  // parameter upload (Network::params() order), then the image.\n";
      out += format("  for (int e = 0; e < %zu; ++e) {\n", total_weights);
      out += "    float v;\n";
      out +=
          "    if (scanf(\"%a\", &v) != 1) { fprintf(stderr, \"short weights\\n\"); return 2; }\n";
      out += "    in_stream.write(v);\n";
      out += "  }\n";
      out += format("  (void)%s(in_stream, out_stream, /*load_weights=*/1);\n",
                    options.top_function.c_str());
    }
    out += format("  for (int e = 0; e < %zu; ++e) {\n", in_elems);
    out += "    float v;\n";
    out += "    if (scanf(\"%a\", &v) != 1) { fprintf(stderr, \"short input\\n\"); return 2; }\n";
    out += "    in_stream.write(v);\n";
    out += "  }\n";
    if (ctx.streamed) {
      out += format("  const int predicted = %s(in_stream, out_stream, 0);\n",
                    options.top_function.c_str());
    } else {
      out += format("  const int predicted = %s(in_stream, out_stream);\n",
                    options.top_function.c_str());
    }
    out += format("  for (int k = 0; k < %zu; ++k) printf(\"%%a\\n\", out_stream.read());\n",
                  classes);
    out += "  (void)out_stream.read();  // predicted index echoed on the stream\n";
    out += "  printf(\"%d\\n\", predicted);\n";
    out += "  return 0;\n";
    out += "}\n";
    out += "#endif  // CNN2FPGA_TESTBENCH\n";
  }

  return out;
}

}  // namespace cnn2fpga::core
