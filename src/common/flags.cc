#include "common/flags.h"

#include <cstdlib>
#include <sstream>

#include "common/error.h"

namespace ksum {

FlagParser& FlagParser::declare(const std::string& name,
                                const std::string& help, bool takes_value) {
  KSUM_REQUIRE(!name.empty() && name[0] != '-',
               "declare flags without leading dashes");
  KSUM_REQUIRE(decls_.emplace(name, Decl{help, takes_value}).second,
               "flag declared twice: " + name);
  return *this;
}

const FlagParser::Decl& FlagParser::decl_of(const std::string& name) const {
  const auto it = decls_.find(name);
  KSUM_REQUIRE(it != decls_.end(), "unknown flag: --" + name);
  return it->second;
}

void FlagParser::parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      have_value = true;
    }
    const Decl& decl = decl_of(arg);
    if (decl.takes_value && !have_value) {
      KSUM_REQUIRE(i + 1 < argc, "flag --" + arg + " needs a value");
      value = argv[++i];
      have_value = true;
    }
    if (!decl.takes_value && !have_value) {
      value = "true";
    }
    values_[arg] = value;
  }
}

bool FlagParser::declared(const std::string& name) const {
  return decls_.count(name) != 0;
}

bool FlagParser::has(const std::string& name) const {
  decl_of(name);
  return values_.count(name) != 0;
}

std::string FlagParser::get_string(const std::string& name,
                                   const std::string& fallback) const {
  decl_of(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long FlagParser::get_int(const std::string& name,
                              long long fallback) const {
  const auto it = values_.find(name);
  decl_of(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  KSUM_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "flag --" + name + " expects an integer, got '" + it->second +
                   "'");
  return v;
}

std::size_t FlagParser::get_size(const std::string& name,
                                 std::size_t fallback) const {
  const long long v = get_int(name, static_cast<long long>(fallback));
  KSUM_REQUIRE(v >= 0, "flag --" + name + " must be non-negative");
  return static_cast<std::size_t>(v);
}

double FlagParser::get_double(const std::string& name,
                              double fallback) const {
  const auto it = values_.find(name);
  decl_of(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  KSUM_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "flag --" + name + " expects a number, got '" + it->second +
                   "'");
  return v;
}

bool FlagParser::get_bool(const std::string& name) const {
  const auto it = values_.find(name);
  decl_of(name);
  if (it == values_.end()) return false;
  return it->second == "true" || it->second == "1" || it->second.empty();
}

std::string FlagParser::usage() const {
  std::ostringstream os;
  for (const auto& [name, decl] : decls_) {
    os << "  --" << name << (decl.takes_value ? "=<value>" : "") << "\n      "
       << decl.help << "\n";
  }
  return os.str();
}

}  // namespace ksum
