#include "sim/rng.hpp"

#include <array>
#include <cassert>
#include <cmath>

namespace perfcloud::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t salt) {
  std::uint64_t sm = (*this)() ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(sm));
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is < 2^-40 for the span sizes used here (task counts, node
  // indices); acceptable for simulation workload draws.
  return lo + static_cast<std::int64_t>((*this)() % span);
}

namespace {

// Doornik's ZIGNOR ziggurat (2005): 128 strips of equal area kZigV under the
// standard normal density, the bottom one carrying the tail beyond kZigR.
constexpr int kZigStrips = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct Ziggurat {
  /// x[i]: right edge of strip i; x[0] is the bottom strip's virtual width
  /// kZigV / f(kZigR), x[1] = kZigR, x[kZigStrips] = 0.
  std::array<double, kZigStrips + 1> x{};
  /// ratio[i] = x[i + 1] / x[i]: |u| below it lies wholly under the curve.
  std::array<double, kZigStrips> ratio{};

  Ziggurat() {
    double f = std::exp(-0.5 * kZigR * kZigR);
    x[0] = kZigV / f;
    x[1] = kZigR;
    for (int i = 2; i < kZigStrips; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kZigV / x[i - 1] + f));
      f = std::exp(-0.5 * x[i] * x[i]);
    }
    x[kZigStrips] = 0.0;
    for (int i = 0; i < kZigStrips; ++i) ratio[i] = x[i + 1] / x[i];
  }
};

/// Built on first use, so a static initializer elsewhere may draw normals.
const Ziggurat& ziggurat() {
  static const Ziggurat table;
  return table;
}

}  // namespace

double Rng::normal() {
  const Ziggurat& zig = ziggurat();
  for (;;) {
    // One draw gives both the strip (low 7 bits) and a signed uniform in
    // [-1, 1) (top 53 bits); the two bit ranges are disjoint.
    const std::uint64_t bits = (*this)();
    const auto i = static_cast<std::size_t>(bits & (kZigStrips - 1));
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    if (std::abs(u) < zig.ratio[i]) return u * zig.x[i];
    if (i == 0) {
      // Tail beyond kZigR: Marsaglia's exponential method. 1 - uniform() is
      // in (0, 1], so the logs stay finite.
      double x;
      double y;
      do {
        x = std::log(1.0 - uniform()) / kZigR;
        y = std::log(1.0 - uniform());
      } while (-2.0 * y < x * x);
      return u < 0.0 ? x - kZigR : kZigR - x;
    }
    // Wedge: accept x if a uniform point over the strip falls under f(x).
    const double x = u * zig.x[i];
    const double f0 = std::exp(-0.5 * (zig.x[i] * zig.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (zig.x[i + 1] * zig.x[i + 1] - x * x));
    if (f1 + uniform() * (f0 - f1) < 1.0) return x;
  }
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(sigma * normal());
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::pareto(double lo, double hi, double alpha) {
  assert(lo > 0.0 && hi > lo && alpha > 0.0);
  // Inverse-CDF sampling of the bounded Pareto distribution.
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

}  // namespace perfcloud::sim
