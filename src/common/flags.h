// Minimal command-line flag parser for the CLI tool.
//
// Supported syntax: `--name=value`, `--name value`, bare `--name` for
// booleans, and positional arguments. Flags must be declared before
// parsing; unknown flags are an error (so typos fail loudly).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ksum {

class FlagParser {
 public:
  /// Declares a flag. `takes_value=false` makes it a boolean switch.
  FlagParser& declare(const std::string& name, const std::string& help,
                      bool takes_value = true);

  /// Parses argv after the program name (and optional subcommand). Throws
  /// ksum::Error on unknown flags or missing values.
  void parse(int argc, const char* const* argv, int first = 1);

  /// True when the flag was declared (given or not).
  bool declared(const std::string& name) const;
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  long long get_int(const std::string& name, long long fallback) const;
  std::size_t get_size(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// True when the switch was given (or --name=true/1).
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// One line per declared flag, for --help output.
  std::string usage() const;

 private:
  struct Decl {
    std::string help;
    bool takes_value = true;
  };

  const Decl& decl_of(const std::string& name) const;

  std::map<std::string, Decl> decls_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ksum
