// Minimal command-line flag parser for bench/example binaries.
//
// Accepts --key=value and --key value pairs plus bare --key booleans.
// Every other token is an error, so a stray value cannot be silently lost.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace rrnet::util {

class Flags {
 public:
  /// Parse argv; throws ContractViolation on malformed input (e.g. "--=x")
  /// and on a token that is neither a flag nor a flag's value.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace rrnet::util
