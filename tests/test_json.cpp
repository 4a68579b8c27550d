// Unit tests for the JSON substrate (descriptor transport format).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>

#include "json/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace json = cnn2fpga::json;
namespace util = cnn2fpga::util;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("3.25").as_double(), 3.25);
  EXPECT_EQ(json::parse("-17").as_int(), -17);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NumbersEdgeCases) {
  EXPECT_DOUBLE_EQ(json::parse("0").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(json::parse("-0.5").as_double(), -0.5);
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("2.5E-2").as_double(), 0.025);
  EXPECT_THROW(json::parse("01"), json::JsonError);     // leading zero
  EXPECT_THROW(json::parse("1."), json::JsonError);     // digit after point
  EXPECT_THROW(json::parse("1e"), json::JsonError);     // exponent digits
  EXPECT_THROW(json::parse("+1"), json::JsonError);     // leading plus
  EXPECT_THROW(json::parse("NaN"), json::JsonError);
}

TEST(JsonParse, StringsAndEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(json::parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");          // e-acute UTF-8
  EXPECT_EQ(json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // emoji pair
  EXPECT_THROW(json::parse(R"("\ud83d")"), json::JsonError);   // unpaired surrogate
  EXPECT_THROW(json::parse(R"("\x41")"), json::JsonError);     // bad escape
  EXPECT_THROW(json::parse("\"raw\ncontrol\""), json::JsonError);
}

TEST(JsonParse, ArraysAndObjects) {
  const auto v = json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), 3);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), json::JsonError);
}

TEST(JsonParse, WhitespaceTolerant) {
  const auto v = json::parse(" \n\t{ \"k\" :\r\n [ ] } ");
  EXPECT_TRUE(v.at("k").as_array().empty());
}

TEST(JsonParse, Malformed) {
  EXPECT_THROW(json::parse(""), json::JsonError);
  EXPECT_THROW(json::parse("{"), json::JsonError);
  EXPECT_THROW(json::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::JsonError);
  EXPECT_THROW(json::parse("{1: 2}"), json::JsonError);
  EXPECT_THROW(json::parse("[1] trailing"), json::JsonError);
}

TEST(JsonParse, ErrorMessagesCarryPosition) {
  try {
    json::parse("{\n  \"a\": bogus\n}");
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(JsonParse, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "[";
  for (int i = 0; i < 400; ++i) deep += "]";
  EXPECT_THROW(json::parse(deep), json::JsonError);
  // 100 levels is fine.
  std::string ok;
  for (int i = 0; i < 100; ++i) ok += "[";
  for (int i = 0; i < 100; ++i) ok += "]";
  EXPECT_NO_THROW(json::parse(ok));
}

TEST(JsonDump, RoundTripsCompact) {
  const std::string text =
      R"({"arr":[1,2.5,"s",null,true],"num":-3,"obj":{"nested":[{"x":1}]}})";
  const auto v = json::parse(text);
  EXPECT_EQ(json::parse(v.dump()), v);
  EXPECT_EQ(v.dump(), text);  // std::map keys already sorted in input
}

TEST(JsonDump, PrettyRoundTrips) {
  const auto v = json::parse(R"({"a":[1,2],"b":{"c":"x"}})");
  const std::string pretty = v.dump(/*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(pretty), v);
}

TEST(JsonDump, EscapesControlCharacters) {
  json::Value v(std::string("a\nb\x01"));
  const std::string out = v.dump();
  EXPECT_EQ(out, "\"a\\nb\\u0001\"");
  EXPECT_EQ(json::parse(out), v);
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(json::Value(42).dump(), "42");
  EXPECT_EQ(json::Value(-1.0).dump(), "-1");
  EXPECT_EQ(json::Value(0.5).dump(), "0.5");
}

TEST(JsonDump, DoubleRoundTripExact) {
  const double tricky = 0.1 + 0.2;
  json::Value v(tricky);
  EXPECT_DOUBLE_EQ(json::parse(v.dump()).as_double(), tricky);
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(json::Value(std::nan("")).dump(), "null");
}

TEST(JsonValue, TypedAccessErrors) {
  const json::Value v(1.5);
  EXPECT_THROW(v.as_string(), json::JsonError);
  EXPECT_THROW(v.as_array(), json::JsonError);
  EXPECT_THROW(v.as_bool(), json::JsonError);
  EXPECT_THROW(v.as_int(), json::JsonError);  // non-integral
  EXPECT_NO_THROW(json::Value(2.0).as_int());
}

TEST(JsonValue, AsIntAcceptsExactlyTheLongRange) {
  // Every integer-valued double in [-2^63, 2^63) converts; nothing outside.
  EXPECT_EQ(json::Value(-0x1p63).as_int(), std::numeric_limits<long>::min());
  const double largest_below = std::nextafter(0x1p63, 0.0);
  EXPECT_EQ(json::Value(largest_below).as_int(), static_cast<long>(largest_below));
  EXPECT_THROW(json::Value(0x1p63).as_int(), json::JsonError);
  EXPECT_THROW(json::Value(1e300).as_int(), json::JsonError);
  EXPECT_THROW(json::Value(-1e300).as_int(), json::JsonError);
  // INT64_MAX as JSON text parses to the double 2^63.
  EXPECT_THROW(json::parse("9223372036854775807").as_int(), json::JsonError);
  EXPECT_THROW(json::parse(R"({"seed": 1e19})").get_int("seed", 1), json::JsonError);
}

TEST(JsonValue, TypedLookupsWithDefaults) {
  const auto v = json::parse(R"({"i": 3, "d": 1.5, "b": true, "s": "x"})");
  EXPECT_EQ(v.get_int("i", 0), 3);
  EXPECT_EQ(v.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0), 1.5);
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_EQ(v.get_string("i", "fallback"), "fallback");  // wrong type -> default
}

TEST(JsonValue, MutableObjectBuilding) {
  json::Value v;  // null
  v["a"] = json::Value(1);
  v["b"]["c"] = json::Value("deep");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("c").as_string(), "deep");
}

// ------------------------------------- differential: the byte-loop oracles

namespace {

/// The parser's string handling as it was when it took one byte per step,
/// kept as the oracle for json::parse's run scan. It parses documents that
/// hold one string, and throws the same messages with the same line and
/// column as json::parse.
class ByteLoopStringParser {
 public:
  explicit ByteLoopStringParser(std::string_view text) : text_(text) {}

  std::string parse_document() {
    skip_ws();
    if (peek() != '"') fail("the oracle parses string documents only");
    std::string value = parse_string();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw json::JsonError(util::format("JSON parse error at line %zu, column %zu: %s", line, col,
                                       msg.c_str()));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string() {
    ++pos_;  // the opening quote
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (take() != '\\' || take() != 'u') fail("unpaired surrogate in \\u escape");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Accepted value, or the error message, of one parse.
struct StringOutcome {
  bool ok = false;
  std::string text;
  bool operator==(const StringOutcome&) const = default;
};

StringOutcome parse_with_json(std::string_view doc) {
  try {
    return {true, json::parse(doc).as_string()};
  } catch (const json::JsonError& e) {
    return {false, e.what()};
  }
}

StringOutcome parse_with_oracle(std::string_view doc) {
  try {
    return {true, ByteLoopStringParser(doc).parse_document()};
  } catch (const json::JsonError& e) {
    return {false, e.what()};
  }
}

/// Escape sequences, well formed and not; a prefix of one ends the input
/// inside the escape.
constexpr const char* kEscapes[] = {
    "\\n",      "\\\"",     "\\\\",           "\\/",     "\\b",           "\\f",
    "\\r",      "\\t",      "\\u00e9",        "\\u20AC", "\\ud83d\\ude00", "\\ud83d",
    "\\ude00",  "\\ud83dx", "\\ud83d\\u0041", "\\u12",   "\\uZZZZ",       "\\x41"};

/// A byte biased toward those that end a plain run: quotes, backslashes,
/// control and non-ASCII bytes.
char biased_byte(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return '"';
    case 1: return '\\';
    case 2: return static_cast<char>(rng.next_below(0x20));
    case 3: return static_cast<char>(0x80 + rng.next_below(0x80));
    default: return static_cast<char>(0x20 + rng.next_below(0x5F));
  }
}

std::string random_string_document(util::Rng& rng) {
  std::string doc;
  // Leading whitespace, newlines included, moves the line and column.
  for (std::uint64_t n = rng.next_below(4); n > 0; --n) doc += " \n\t\r"[rng.next_below(4)];
  doc += '"';
  for (std::uint64_t piece = rng.next_below(8); piece > 0; --piece) {
    // Plain runs of 0-19 bytes put what follows at every offset in a word.
    for (std::uint64_t n = rng.next_below(20); n > 0; --n) {
      doc += static_cast<char>('a' + rng.next_below(26));
    }
    switch (rng.next_below(4)) {
      case 0: doc += kEscapes[rng.next_below(std::size(kEscapes))]; break;
      case 1: doc += biased_byte(rng); break;
      case 2: doc += "\xC3\xA9"; break;  // UTF-8 e-acute
      default: break;
    }
  }
  switch (rng.next_below(4)) {
    case 0: break;  // the input ends inside the string
    case 1: doc += std::string("\"") + biased_byte(rng); break;
    case 2: doc += "\"\n "; break;
    default: doc += '"'; break;
  }
  return doc;
}

/// The number format from before std::to_chars: integral values below 1e15
/// through "%lld", everything else through "%.17g".
std::string printf_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  const double rounded = std::nearbyint(d);
  if (rounded == d && std::fabs(d) < 1e15) {
    return util::format("%lld", static_cast<long long>(rounded));
  }
  return util::format("%.17g", d);
}

}  // namespace

TEST(JsonDifferential, StringScanMatchesTheByteLoop) {
  std::size_t checked = 0, mismatches = 0;
  const auto check = [&](const std::string& doc) {
    ++checked;
    const StringOutcome got = parse_with_json(doc);
    const StringOutcome want = parse_with_oracle(doc);
    if (got == want || ++mismatches > 5) return;
    ADD_FAILURE() << "document " << ::testing::PrintToString(doc) << "\n  json::parse: "
                  << (got.ok ? "ok " : "error ") << ::testing::PrintToString(got.text)
                  << "\n  byte loop:   " << (want.ok ? "ok " : "error ")
                  << ::testing::PrintToString(want.text);
  };
  // Every escape after 0-16 plain bytes, so at every offset mod 8, whole and
  // cut short at each of its bytes (the input ends inside the escape).
  for (std::size_t offset = 0; offset <= 16; ++offset) {
    for (const std::string_view escape : kEscapes) {
      for (std::size_t cut = 0; cut <= escape.size(); ++cut) {
        std::string doc(1, '"');
        doc.append(offset, 'x');
        doc.append(escape.substr(0, cut));
        check(doc);
        check(doc + "\"");
        check(doc + "tail\"");
      }
    }
  }
  util::Rng rng(2024);
  for (int i = 0; i < 10000; ++i) check(random_string_document(rng));
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
  EXPECT_GT(checked, 10000u);
}

TEST(JsonDifferential, NumberOutputMatchesPrintf) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.5, 1e15, -1e15, 1e16, 1e300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                9007199254740992.0, 9007199254740993.0};
  util::Rng rng(17);
  // Logits: floats widened to double, as the predict response prints them.
  for (const double scale : {1e-6, 1e-3, 1.0, 10.0, 1e4, 1e9}) {
    for (int i = 0; i < 2000; ++i) {
      values.push_back(static_cast<double>(static_cast<float>(rng.uniform(-scale, scale))));
    }
  }
  // Integers and near-integers on both sides of the 1e15 switch-over.
  for (long long k = -1000; k <= 1000; ++k) {
    values.push_back(1e15 + static_cast<double>(k));
    values.push_back(-1e15 + static_cast<double>(k));
    values.push_back(1e15 + static_cast<double>(k) + 0.5);
    values.push_back(static_cast<double>(k));
    values.push_back(static_cast<double>(k) + 0.25);
  }
  // Subnormals and arbitrary finite bit patterns.
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t mantissa = rng.next_u64() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t sign = rng.next_below(2) << 63;
    double subnormal = 0.0;
    const std::uint64_t subnormal_bits = sign | mantissa;
    std::memcpy(&subnormal, &subnormal_bits, sizeof(subnormal));
    values.push_back(subnormal);
    double any = 0.0;
    const std::uint64_t any_bits = rng.next_u64();
    std::memcpy(&any, &any_bits, sizeof(any));
    if (std::isfinite(any)) values.push_back(any);
  }
  std::size_t mismatches = 0;
  for (const double d : values) {
    const std::string got = json::Value(d).dump();
    const std::string want = printf_number(d);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << util::format("%a", d) << ": dump " << got << ", printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}
