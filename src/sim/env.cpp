#include "sim/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace perfcloud::sim {

std::optional<unsigned> count_from_env(const char* name, unsigned max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::string s(env);
  const bool digits_only = !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
  // Digits only, so a count too long for strtol saturates to LONG_MAX and
  // fails the range check below.
  const long v = digits_only ? std::strtol(env, nullptr, 10) : 0;
  if (v < 1 || v > static_cast<long>(max)) {
    throw std::invalid_argument(std::string(name) + "='" + s +
                                "' is not a valid count (expected an integer in [1, " +
                                std::to_string(max) + "])");
  }
  return static_cast<unsigned>(v);
}

}  // namespace perfcloud::sim
