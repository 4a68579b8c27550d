#include "util/base64.hpp"

#include <array>

namespace cnn2fpga::util {

namespace {
constexpr char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Set in a decoded group when any of its characters is outside the alphabet;
/// it sits above the group's 24 data bits.
constexpr std::uint32_t kInvalid = 1u << 24;

/// kDecode[p][c] is character c's 6-bit value already shifted to place p
/// (0-3) of a 24-bit group, or kInvalid; OR-ing four lookups decodes a group.
using DecodeTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr DecodeTables build_decode_tables() {
  DecodeTables tables{};
  for (auto& table : tables) table.fill(kInvalid);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto c = static_cast<unsigned char>(kAlphabet[i]);
    for (std::size_t p = 0; p < 4; ++p) tables[p][c] = i << (18 - 6 * p);
  }
  return tables;
}

constexpr DecodeTables kDecode = build_decode_tables();

std::uint32_t decode_group(const char* in) {
  return kDecode[0][static_cast<unsigned char>(in[0])] |
         kDecode[1][static_cast<unsigned char>(in[1])] |
         kDecode[2][static_cast<unsigned char>(in[2])] |
         kDecode[3][static_cast<unsigned char>(in[3])];
}

/// Bytes `text` decodes to, judged from its length and trailing '=' alone;
/// 0 when the length is not a multiple of four.
std::size_t decoded_size(std::string_view text) {
  if (text.empty() || text.size() % 4 != 0) return 0;
  const std::size_t padding = text.back() != '=' ? 0 : (text[text.size() - 2] == '=' ? 2 : 1);
  return text.size() / 4 * 3 - padding;
}
}  // namespace

std::string base64_encode(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= bytes.size()) {
    const std::uint32_t triple = (static_cast<std::uint32_t>(bytes[i]) << 16) |
                                 (static_cast<std::uint32_t>(bytes[i + 1]) << 8) |
                                 bytes[i + 2];
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 6) & 0x3F]);
    out.push_back(kAlphabet[triple & 0x3F]);
    i += 3;
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const std::uint32_t triple = static_cast<std::uint32_t>(bytes[i]) << 16;
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back('=');
    out.push_back('=');
  } else if (rest == 2) {
    const std::uint32_t triple = (static_cast<std::uint32_t>(bytes[i]) << 16) |
                                 (static_cast<std::uint32_t>(bytes[i + 1]) << 8);
    out.push_back(kAlphabet[(triple >> 18) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 12) & 0x3F]);
    out.push_back(kAlphabet[(triple >> 6) & 0x3F]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> base64_decode(std::string_view text) {
  std::vector<std::uint8_t> out(decoded_size(text));
  if (!base64_decode_into(text, out)) return std::nullopt;
  return out;
}

bool base64_decode_into(std::string_view text, std::span<std::uint8_t> out) {
  if (text.size() % 4 != 0 || decoded_size(text) != out.size()) return false;
  if (text.empty()) return true;
  // Every group but the last holds four alphabet characters: one validity
  // test per group, since '=' is outside the alphabet too.
  const char* in = text.data();
  const char* const last = in + text.size() - 4;
  std::uint8_t* dst = out.data();
  for (; in != last; in += 4, dst += 3) {
    const std::uint32_t bits = decode_group(in);
    if (bits >= kInvalid) return false;
    dst[0] = static_cast<std::uint8_t>(bits >> 16);
    dst[1] = static_cast<std::uint8_t>(bits >> 8);
    dst[2] = static_cast<std::uint8_t>(bits);
  }
  // The last group ends in as many '=' as it is short of three bytes. They
  // decode as 'A' (zero bits); a '=' anywhere else stays invalid.
  const std::size_t tail = out.size() - static_cast<std::size_t>(dst - out.data());
  const char group[4] = {in[0], in[1], tail >= 2 ? in[2] : 'A', tail >= 3 ? in[3] : 'A'};
  const std::uint32_t bits = decode_group(group);
  if (bits >= kInvalid) return false;
  dst[0] = static_cast<std::uint8_t>(bits >> 16);
  if (tail >= 2) dst[1] = static_cast<std::uint8_t>(bits >> 8);
  if (tail >= 3) dst[2] = static_cast<std::uint8_t>(bits);
  return true;
}

}  // namespace cnn2fpga::util
