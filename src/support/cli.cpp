#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace amtfmm {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_flag(const std::string& name, std::int64_t def,
                   const std::string& help) {
  Entry e;
  e.kind = Kind::kInt;
  e.help = help;
  e.i = def;
  entries_[name] = std::move(e);
}

void Cli::add_flag(const std::string& name, double def,
                   const std::string& help) {
  Entry e;
  e.kind = Kind::kDouble;
  e.help = help;
  e.d = def;
  entries_[name] = std::move(e);
}

void Cli::add_flag(const std::string& name, const std::string& def,
                   const std::string& help) {
  Entry e;
  e.kind = Kind::kString;
  e.help = help;
  e.s = def;
  entries_[name] = std::move(e);
}

void Cli::add_flag(const std::string& name, bool def, const std::string& help) {
  Entry e;
  e.kind = Kind::kBool;
  e.help = help;
  e.b = def;
  entries_[name] = std::move(e);
}

void Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      std::exit(0);
    }
    // google-benchmark parses its own --benchmark_* flags.
    if (arg.rfind("--benchmark_", 0) == 0) continue;
    if (arg.rfind("--", 0) != 0) {
      throw config_error("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) throw config_error("unknown flag: --" + name);
    Entry& e = it->second;
    if (!have_value) {
      if (e.kind == Kind::kBool) {
        e.b = true;
        continue;
      }
      if (i + 1 >= argc) throw config_error("flag --" + name + " needs a value");
      value = argv[++i];
    }
    try {
      switch (e.kind) {
        case Kind::kInt:
          e.i = std::stoll(value);
          break;
        case Kind::kDouble:
          e.d = std::stod(value);
          break;
        case Kind::kString:
          e.s = value;
          break;
        case Kind::kBool:
          e.b = (value == "1" || value == "true" || value == "yes");
          break;
      }
    } catch (const std::exception&) {
      throw config_error("bad value for --" + name + ": " + value);
    }
  }
}

const Cli::Entry& Cli::lookup(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  AMTFMM_ASSERT_MSG(it != entries_.end(), name.c_str());
  AMTFMM_ASSERT(it->second.kind == kind);
  return it->second;
}

std::int64_t Cli::i64(const std::string& name) const {
  return lookup(name, Kind::kInt).i;
}
double Cli::f64(const std::string& name) const {
  return lookup(name, Kind::kDouble).d;
}
const std::string& Cli::str(const std::string& name) const {
  return lookup(name, Kind::kString).s;
}
bool Cli::flag(const std::string& name) const {
  return lookup(name, Kind::kBool).b;
}

void Cli::print_help() const {
  std::printf("%s\n\nFlags:\n", description_.c_str());
  for (const auto& [name, e] : entries_) {
    std::string def;
    switch (e.kind) {
      case Kind::kInt: def = std::to_string(e.i); break;
      case Kind::kDouble: def = std::to_string(e.d); break;
      case Kind::kString: def = e.s; break;
      case Kind::kBool: def = e.b ? "true" : "false"; break;
    }
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), e.help.c_str(),
                def.c_str());
  }
}

}  // namespace amtfmm
