#include "json/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/strings.hpp"

namespace cnn2fpga::json {

using cnn2fpga::util::format;

Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

namespace {
const char* type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(Type want, Type got) {
  throw JsonError(format("JSON type mismatch: wanted %s, got %s", type_name(want), type_name(got)));
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error(Type::kBool, type());
  return std::get<bool>(data_);
}

double Value::as_double() const {
  if (!is_number()) type_error(Type::kNumber, type());
  return std::get<double>(data_);
}

long Value::as_int() const {
  const double d = as_double();
  const double rounded = std::nearbyint(d);
  if (rounded != d) throw JsonError(format("expected integer, got %g", d));
  // [-2^63, 2^63): both bounds are exact doubles, and every double in the
  // range converts to long without overflow.
  static_assert(std::numeric_limits<long>::digits == 63, "long must be 64-bit");
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    throw JsonError(format("integer %g is outside the 64-bit range", d));
  }
  return static_cast<long>(rounded);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error(Type::kString, type());
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error(Type::kArray, type());
  return std::get<Array>(data_);
}

Array& Value::as_array() {
  if (!is_array()) type_error(Type::kArray, type());
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error(Type::kObject, type());
  return std::get<Object>(data_);
}

Object& Value::as_object() {
  if (!is_object()) type_error(Type::kObject, type());
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError(format("missing JSON key '%s'", key.c_str()));
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(data_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

long Value::get_int(const std::string& key, long fallback) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_int() : fallback;
}

double Value::get_double(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_double() : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v && v->is_bool() ? v->as_bool() : fallback;
}

std::string Value::get_string(const std::string& key, const std::string& fallback) const {
  const Value* v = find(key);
  return v && v->is_string() ? v->as_string() : fallback;
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

namespace {

void escape_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Integral values below 1e15 print as integers, everything else in the
/// general format at 17 significant digits, which round-trips every IEEE-754
/// double. std::to_chars with an explicit format and precision prints what
/// printf's "%lld" and "%.17g" print, byte for byte; the output must not
/// change, because design ids hash dumped descriptors.
void number_into(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON cannot represent non-finite numbers; null is the conventional stand-in.
    out += "null";
    return;
  }
  char buf[32] = {};  // "%.17g" needs at most 24 bytes: sign, 17 digits, '.', "e-308"
  const double rounded = std::nearbyint(d);
  const std::to_chars_result printed =
      rounded == d && std::fabs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(rounded))
          : std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  out.append(buf, printed.ptr);
}

void dump_into(std::string& out, const Value& v, bool pretty, int depth);

void dump_array(std::string& out, const Array& arr, bool pretty, int depth) {
  if (arr.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  const std::string pad(pretty ? static_cast<std::size_t>(2 * (depth + 1)) : 0, ' ');
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (i) out.push_back(',');
    if (pretty) {
      out.push_back('\n');
      out += pad;
    }
    dump_into(out, arr[i], pretty, depth + 1);
  }
  if (pretty) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(2 * depth), ' ');
  }
  out.push_back(']');
}

void dump_object(std::string& out, const Object& obj, bool pretty, int depth) {
  if (obj.empty()) {
    out += "{}";
    return;
  }
  out.push_back('{');
  const std::string pad(pretty ? static_cast<std::size_t>(2 * (depth + 1)) : 0, ' ');
  bool first = true;
  for (const auto& [key, value] : obj) {
    if (!first) out.push_back(',');
    first = false;
    if (pretty) {
      out.push_back('\n');
      out += pad;
    }
    escape_into(out, key);
    out += pretty ? ": " : ":";
    dump_into(out, value, pretty, depth + 1);
  }
  if (pretty) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(2 * depth), ' ');
  }
  out.push_back('}');
}

void dump_into(std::string& out, const Value& v, bool pretty, int depth) {
  switch (v.type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Type::kNumber: number_into(out, v.as_double()); break;
    case Type::kString: escape_into(out, v.as_string()); break;
    case Type::kArray: dump_array(out, v.as_array(), pretty, depth); break;
    case Type::kObject: dump_object(out, v.as_object(), pretty, depth); break;
  }
}

}  // namespace

std::string Value::dump(bool pretty) const {
  std::string out;
  dump_into(out, *this, pretty, 0);
  if (pretty) out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    // Compute 1-based line/column from the byte offset for the error message.
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError(format("JSON parse error at line %zu, column %zu: %s", line, col, msg.c_str()));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(format("expected '%c'", c));
    }
  }

  void expect_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) fail(format("invalid literal (expected '%s')", std::string(kw).c_str()));
    pos_ += kw.size();
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting depth exceeds limit");
    Value result = parse_value_inner();
    --depth_;
    return result;
  }

  Value parse_value_inner() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't': expect_keyword("true"); return Value(true);
      case 'f': expect_keyword("false"); return Value(false);
      case 'n': expect_keyword("null"); return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Value(std::move(arr));
  }

  /// True when byte `c` ends a run of plain string content: a closing quote,
  /// an escape, or a raw control byte (an error).
  static bool ends_run(unsigned char c) { return c == '"' || c == '\\' || c < 0x20; }

  /// True when any of the 8 bytes packed in `w` ends a run. (x - 0x01..01) &
  /// ~x & 0x80..80 is non-zero iff some byte of x is zero, so w XOR a
  /// repeated '"' or '\\' finds those bytes; with 0x20..20 subtracted instead
  /// it finds bytes below 0x20. The test says only whether a byte matches,
  /// not which one, so it holds for either byte order.
  static bool word_ends_run(std::uint64_t w) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t backslash = w ^ (kOnes * '\\');
    const std::uint64_t found = ((quote - kOnes) & ~quote) | ((backslash - kOnes) & ~backslash) |
                                ((w - kOnes * 0x20) & ~w);
    return (found & kHigh) != 0;
  }

  /// Offset of the first byte at or after `i` that ends a run, or the end of
  /// the text: whole words at a time, then bytes within the word that matched.
  std::size_t run_end(std::size_t i) const {
    while (i + sizeof(std::uint64_t) <= text_.size()) {
      std::uint64_t w = 0;
      std::memcpy(&w, text_.data() + i, sizeof(w));
      if (word_ends_run(w)) break;
      i += sizeof(w);
    }
    while (i < text_.size() && !ends_run(static_cast<unsigned char>(text_[i]))) ++i;
    return i;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Plain content up to the next quote, escape or control byte is
      // copied in one append.
      const std::size_t end = run_end(pos_);
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      const char c = take();
      if (c == '"') break;
      if (c != '\\') {
        --pos_;
        fail("raw control character in string");
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
      // High surrogate: a low surrogate must follow.
      if (take() != '\\' || take() != 'u') {
        fail("unpaired surrogate in \\u escape");
      }
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // Encode as UTF-8.
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

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    if (peek() == '0') {
      ++pos_;  // leading zero must not be followed by more digits
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) fail("leading zero in number");
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("digit required after decimal point");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("digit required in exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    return Value(std::strtod(token.c_str(), nullptr));
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace cnn2fpga::json
