#include "sim/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfcloud::sim {

namespace {

/// Counts above this are certainly a typo, not a machine.
constexpr long kMaxThreads = 4096;
constexpr const char* kThreadsVar = "PERFCLOUD_THREADS";

}  // namespace

std::optional<unsigned> thread_override() {
  const char* env = std::getenv(kThreadsVar);
  if (env == nullptr) return std::nullopt;
  const std::string s(env);
  const bool digits_only = !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
  // Digits only, so a count too long for strtol saturates to LONG_MAX and
  // fails the range check below.
  const long v = digits_only ? std::strtol(env, nullptr, 10) : 0;
  if (v < 1 || v > kMaxThreads) {
    throw std::invalid_argument(std::string(kThreadsVar) + "='" + s +
                                "' is not a valid count (expected an integer in [1, " +
                                std::to_string(kMaxThreads) + "])");
  }
  return static_cast<unsigned>(v);
}

unsigned thread_budget() {
  if (const std::optional<unsigned> n = thread_override()) return *n;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfcloud::sim
