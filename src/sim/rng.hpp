// Deterministic random number generation for reproducible experiments.
#pragma once

#include <array>
#include <cstdint>

namespace perfcloud::sim {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state. Public because tests and stream-splitting use it directly.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo-random generator (Blackman & Vigna).
///
/// Chosen over std::mt19937 for speed (the arbitration loop draws jitter for
/// every cgroup every tick) and for cheap, well-defined stream splitting:
/// `split()` derives an independent child stream, so every VM / device /
/// workload gets its own generator and experiments stay reproducible even
/// when the set of entities changes.
///
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Derive an independent child stream. Mixing in `salt` lets callers create
  /// stable per-entity streams (e.g. salt = VM id) regardless of call order.
  [[nodiscard]] Rng split(std::uint64_t salt);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via a 128-strip ziggurat (Doornik's ZIGNOR). Takes one
  /// or more draws per variate: one on ~97% of calls, more in a wedge or the
  /// tail. Nothing is cached between calls, so the state stays trivially
  /// copyable.
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Log-normal such that the *median* of the distribution is `median` and
  /// sigma is the shape parameter. Used for multiplicative latency jitter.
  double lognormal_median(double median, double sigma);
  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Bounded Pareto on [lo, hi] with tail index alpha; used for heavy-tailed
  /// job-size mixes.
  double pareto(double lo, double hi, double alpha);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace perfcloud::sim
