// Minimal command-line flag parser for bench/example binaries.
//
//   util::Flags flags(argc, argv);
//   const int seeds = flags.get_int("seeds", 5);
//   const std::string csv = flags.get_string("csv", "");
//   flags.finish();   // rejects unknown flags
//
// Accepted syntaxes: --name value, --name=value, and bare boolean --name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace manet::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string get_string(const std::string& name, const std::string& def);
  int get_int(const std::string& name, int def);
  /// Whole-string unsigned 64-bit integer: "-1", "2.5" and out-of-range
  /// values are rejected, never wrapped or truncated.
  std::uint64_t get_u64(const std::string& name, std::uint64_t def);
  /// Finite numbers only: empty, "inf" and "nan" are rejected.
  double get_double(const std::string& name, double def);
  bool get_bool(const std::string& name, bool def);

  /// True if the flag was present on the command line.
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Throws CheckError if any provided flag was never queried — catches typos.
  void finish() const;

 private:
  std::optional<std::string> raw(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace manet::util
