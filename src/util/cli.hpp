// Minimal command-line argument parser used by the example binaries and the
// benchmark harnesses. Supports `--flag`, `--key value`, and `--key=value`.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cnn2fpga::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// The value of `--name value` / `--name=value`, if given.
  std::optional<std::string> get(const std::string& name) const;

  /// Typed getters with defaults.
  std::string get_string(const std::string& name, const std::string& fallback) const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Arguments that were not options (no leading `--`).
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of every option given, sorted.
  std::vector<std::string> names() const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace cnn2fpga::util
