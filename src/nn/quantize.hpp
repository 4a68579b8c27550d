// Fixed-point numeric formats and quantization helpers.
//
// The paper uses 32-bit floating point throughout and notes that "from the
// FPGA prospective, this reasonably implies a higher usage of resources"
// (Sec. V). Fixed-point inference is the canonical remedy (the paper's
// Sankaradas et al. baseline [8] packs low-precision words for exactly this
// reason); this module provides the Q(m,n) arithmetic the generator's fixed
// mode emits, bit-exactly mirrored between the reference model and the
// generated C++.
//
// Representation: two's-complement integers of `total_bits` with `frac_bits`
// fractional bits (scale 2^frac_bits), saturating arithmetic, round-half-up
// on the post-multiply shift.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cnn2fpga::nn {

struct FixedPointFormat {
  int total_bits = 16;
  int frac_bits = 8;

  int integer_bits() const { return total_bits - frac_bits; }
  std::int64_t scale() const { return std::int64_t{1} << frac_bits; }
  std::int64_t max_raw() const { return (std::int64_t{1} << (total_bits - 1)) - 1; }
  std::int64_t min_raw() const { return -(std::int64_t{1} << (total_bits - 1)); }

  /// Smallest representable step.
  double resolution() const { return 1.0 / static_cast<double>(scale()); }

  /// "Q8.8"-style name.
  std::string name() const;

  /// Validates 2 <= total_bits <= 32, 1 <= frac_bits < total_bits.
  /// Throws std::invalid_argument otherwise.
  void validate() const;

  bool operator==(const FixedPointFormat&) const = default;
};

/// Float -> raw fixed value (round to nearest, saturate). The generated C++
/// uses the identical expression, so quantization is bit-exact across the
/// reference model and the emitted design.
std::int32_t fixed_quantize(float value, const FixedPointFormat& format);

/// Raw fixed value -> float.
float fixed_dequantize(std::int64_t raw, const FixedPointFormat& format);

/// Saturating right-shift with round-half-up: the post-multiply renormalizer
/// applied to a 2*frac_bits-scaled accumulator.
std::int32_t fixed_renormalize(std::int64_t accumulator, const FixedPointFormat& format);

/// Saturate an already frac_bits-scaled value into the representable range.
std::int32_t fixed_saturate(std::int64_t raw, const FixedPointFormat& format);

/// Numeric precision a design is *served* at by the CPU engine. Separate from
/// NumericFormat (the HLS codegen format below): a float32-codegen design can
/// be deployed for int8 serving, and a fixed-point one serves at the precision
/// that computes its format (serve/deploy_request.hpp). The quantized
/// precisions map onto fixed formats whose raw values fit the native integer
/// width:
///   kInt16 -> Q8.8  (total 16, frac 8) — bit-identical to forward_fixed
///   kInt8  -> Q4.4  (total 8,  frac 4) — forward_fixed semantics with the
///             SIMD engine's +/-kInt8WeightClamp weight clamp (kernels_int.hpp)
enum class ServePrecision { kFloat32 = 0, kInt16 = 1, kInt8 = 2 };

inline constexpr std::size_t kServePrecisionCount = 3;

inline constexpr std::size_t serve_precision_index(ServePrecision p) {
  return static_cast<std::size_t>(p);
}

/// "float32" | "int16" | "int8" — the deploy API's wire names.
const char* serve_precision_name(ServePrecision precision);

/// Parse a wire name; returns false (out untouched) for unknown strings.
bool parse_serve_precision(std::string_view name, ServePrecision& out);

/// The fixed-point format a quantized serving precision computes in.
/// Throws std::invalid_argument for kFloat32 (no fixed format).
FixedPointFormat serve_precision_format(ServePrecision precision);

/// The numeric format of a generated design: either the paper's float32 or a
/// fixed-point configuration.
struct NumericFormat {
  bool is_fixed = false;
  FixedPointFormat fixed;

  static NumericFormat float32() { return {}; }
  static NumericFormat fixed_point(int total_bits, int frac_bits) {
    NumericFormat f;
    f.is_fixed = true;
    f.fixed = {total_bits, frac_bits};
    f.fixed.validate();
    return f;
  }

  std::string name() const { return is_fixed ? fixed.name() : "float32"; }
  bool operator==(const NumericFormat&) const = default;
};

}  // namespace cnn2fpga::nn
