// Self-contained JSON value model, parser and serializer.
//
// The framework's network descriptor (Sec. IV-A of the paper) is a JSON
// document produced by the GUI and consumed by the generator back-end; this
// module implements RFC 8259 JSON with precise error positions so malformed
// descriptors are reported usefully.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cnn2fpga::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps keys ordered, which makes serialization deterministic —
// important because generated artifacts are compared against goldens in tests.
using Object = std::map<std::string, Value>;

/// Error thrown by the parser (with 1-based line/column) and by typed accessors.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(long l) : data_(static_cast<double>(l)) {}
  Value(unsigned u) : data_(static_cast<double>(u)) {}
  Value(std::size_t s) : data_(static_cast<double>(s)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_double() const;
  /// as_int additionally rejects non-integral numbers and any number
  /// outside [-2^63, 2^63).
  long as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; `at` throws on a missing key, `find` returns null.
  const Value& at(const std::string& key) const;
  const Value* find(const std::string& key) const;
  Value& operator[](const std::string& key);  // inserts null if missing

  /// Convenience typed lookups with defaults (object only).
  long get_int(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;

  /// Serialize. `pretty` uses 2-space indentation and newlines.
  std::string dump(bool pretty = false) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parse a complete JSON document. Trailing non-whitespace is an error.
Value parse(std::string_view text);

}  // namespace cnn2fpga::json
