#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace amtfmm {

/// Minimal command-line flag parser shared by the bench and example binaries.
///
/// Flags are declared with a default and a help string, then parsed from
/// `--name=value` or `--name value` arguments.  Unknown flags are an error
/// (so typos in experiment scripts fail loudly), except that flags consumed
/// by google-benchmark (`--benchmark_*`) are passed through untouched.
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Declare flags before calling parse().
  void add_flag(const std::string& name, std::int64_t def, const std::string& help);
  void add_flag(const std::string& name, double def, const std::string& help);
  void add_flag(const std::string& name, const std::string& def, const std::string& help);
  void add_flag(const std::string& name, bool def, const std::string& help);

  /// Parses argv.  Prints help and exits on --help.  Throws config_error on
  /// unknown flags or malformed values.
  void parse(int argc, char** argv);

  std::int64_t i64(const std::string& name) const;
  double f64(const std::string& name) const;
  const std::string& str(const std::string& name) const;
  bool flag(const std::string& name) const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Entry {
    Kind kind;
    std::string help;
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
    bool b = false;
  };
  const Entry& lookup(const std::string& name, Kind kind) const;
  void print_help() const;

  std::string description_;
  std::map<std::string, Entry> entries_;
};

}  // namespace amtfmm
