// String formatting and manipulation helpers shared across the framework.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cnn2fpga::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split on a single-character delimiter; empty fields preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Case-sensitive prefix / suffix tests.
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// An unsigned decimal as HTTP header fields spell one: one or more ASCII
/// digits and nothing else (no sign, whitespace or suffix). A value past the
/// range of uint64 reads as its maximum. nullopt when `text` is not a digit
/// string.
std::optional<std::uint64_t> parse_digits(std::string_view text);

/// Join the elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Replace every occurrence of `from` with `to` (non-overlapping, left to right).
std::string replace_all(std::string_view text, std::string_view from, std::string_view to);

/// Indent every line of `text` by `spaces` spaces (including the first).
std::string indent(std::string_view text, int spaces);

/// Human-readable byte count, e.g. "1.5 KiB".
std::string human_bytes(std::size_t bytes);

/// Seconds rendered with sensible precision, e.g. "0.53 s", "223 s", "1.2 ms".
std::string human_seconds(double seconds);

/// True iff `name` is a valid C identifier (codegen uses this to sanitize
/// user-provided network names).
bool is_c_identifier(std::string_view name);

/// Turn an arbitrary string into a valid C identifier (invalid chars -> '_',
/// leading digit prefixed with '_'; empty input becomes "_").
std::string sanitize_identifier(std::string_view name);

}  // namespace cnn2fpga::util
