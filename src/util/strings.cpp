#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace cnn2fpga::util {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

std::optional<std::uint64_t> parse_digits(std::string_view text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const std::from_chars_result parsed =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (parsed.ec == std::errc::result_out_of_range) return std::numeric_limits<std::uint64_t>::max();
  return value;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string replace_all(std::string_view text, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(text.substr(start));
      break;
    }
    out.append(text.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::string indent(std::string_view text, int spaces) {
  const std::string pad(static_cast<std::size_t>(spaces < 0 ? 0 : spaces), ' ');
  std::string out;
  out.reserve(text.size() + pad.size() * 8);
  bool at_line_start = true;
  for (char c : text) {
    if (at_line_start && c != '\n') {
      out.append(pad);
      at_line_start = false;
    }
    out.push_back(c);
    if (c == '\n') at_line_start = true;
  }
  return out;
}

std::string human_bytes(std::size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 3) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return format("%zu B", bytes);
  return format("%.2f %s", value, units[unit]);
}

std::string human_seconds(double seconds) {
  if (seconds < 0) return format("-%s", human_seconds(-seconds).c_str());
  if (seconds == 0.0) return "0 s";
  if (seconds < 1e-6) return format("%.1f ns", seconds * 1e9);
  if (seconds < 1e-3) return format("%.2f us", seconds * 1e6);
  if (seconds < 1.0) return format("%.2f ms", seconds * 1e3);
  if (seconds < 100.0) return format("%.2f s", seconds);
  return format("%.0f s", seconds);
}

bool is_c_identifier(std::string_view name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) return false;
  for (char c : name.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

std::string sanitize_identifier(std::string_view name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  if (std::isdigit(static_cast<unsigned char>(name[0]))) out.push_back('_');
  for (char c : name) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_');
  }
  return out;
}

}  // namespace cnn2fpga::util
