// Minimal command-line flag parser for examples and benchmark binaries.
// Supports `--name value`, `--name=value`, and boolean `--flag`.
// Positional (non-flag) arguments are ignored.
#pragma once

#include <map>
#include <string>

namespace ftm {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace ftm
