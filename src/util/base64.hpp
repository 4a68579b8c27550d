// Base64 encoding/decoding (RFC 4648, with padding).
//
// Used by the web API to carry binary weight files inside JSON documents —
// the transport for the paper's future-work "train the designed CNN online
// ... provided the dataset for training and testing".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cnn2fpga::util {

std::string base64_encode(const std::vector<std::uint8_t>& bytes);

/// Returns nullopt on invalid input (bad characters, bad padding).
std::optional<std::vector<std::uint8_t>> base64_decode(std::string_view text);

/// Decodes `text` straight into `out`. True iff `text` is valid base64 that
/// decodes to exactly `out.size()` bytes; on false the contents of `out` are
/// unspecified. A caller that must tell bad input from a wrong size decodes
/// again with base64_decode.
bool base64_decode_into(std::string_view text, std::span<std::uint8_t> out);

}  // namespace cnn2fpga::util
