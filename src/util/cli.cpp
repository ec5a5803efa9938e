#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace fascia {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_flag(const std::string& name, const std::string& help) {
  order_.push_back(name);
  specs_[name] = Spec{.help = help, .is_flag = true, .value = "0"};
}

void Cli::add_option(const std::string& name, const std::string& help,
                     const std::string& default_value) {
  Spec spec;
  spec.help = help;
  spec.value = default_value;
  order_.push_back(name);
  specs_[name] = std::move(spec);
}

void Cli::add_common() {
  add_flag("full", "run at paper scale instead of container scale");
  add_option("seed", "base RNG seed", "42");
  add_option("scale", "workload scale multiplier (1.0 = default)", "1.0");
  add_option("threads", "OpenMP threads (0 = runtime default)", "0");
  add_option("csv", "also write results to this CSV file", "");
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = specs_.find(arg);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown option --" + arg + "\n" + usage());
    }
    Spec& spec = it->second;
    if (spec.is_flag) {
      if (has_value) {
        throw std::invalid_argument("flag --" + arg + " takes no value");
      }
      spec.value = '1';
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          throw std::invalid_argument("option --" + arg + " needs a value");
        }
        value = argv[++i];
      }
      spec.value = value;
    }
    spec.seen = true;
  }
  return true;
}

bool Cli::flag(const std::string& name) const {
  return str(name) == "1";
}

std::string Cli::str(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::logic_error("Cli: option not registered: " + name);
  }
  return it->second.value;
}

long long Cli::integer(const std::string& name) const {
  return std::stoll(str(name));
}

double Cli::real(const std::string& name) const { return std::stod(str(name)); }

bool Cli::full_scale() const {
  if (specs_.count("full") && flag("full")) return true;
  const char* env = std::getenv("FASCIA_FULL");
  return env != nullptr && env[0] == '1';
}

std::string Cli::usage() const {
  std::string out = description_ + "\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out += "  --" + name;
    if (!spec.is_flag) out += " <value> (default: " + spec.value + ")";
    out += "\n      " + spec.help + "\n";
  }
  out += "  --help\n      show this message\n";
  return out;
}

}  // namespace fascia
