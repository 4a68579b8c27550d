#include "util/cli.hpp"

#include <cstdlib>

#include "util/strings.hpp"

namespace cnn2fpga::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token if it is not itself an option.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[body] = argv[i + 1];
      ++i;
    } else {
      options_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return options_.count(name) != 0; }

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> CliArgs::names() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [name, value] : options_) out.push_back(name);
  return out;
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto value = get(name);
  return value ? *value : fallback;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto value = get(name);
  if (!value || value->empty()) return fallback;
  return std::strtol(value->c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value || value->empty()) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  if (value->empty()) return true;  // bare --flag
  const std::string lower = to_lower(*value);
  return lower == "1" || lower == "true" || lower == "yes" || lower == "on";
}

}  // namespace cnn2fpga::util
