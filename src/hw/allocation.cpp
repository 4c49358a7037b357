#include "hw/allocation.hpp"

#include <algorithm>
#include <cassert>

namespace perfcloud::hw {

namespace {

/// A claimant's effective demand. Recomputed where needed instead of stored:
/// the same expression yields the same double every time.
double want(const Claim& c) { return std::min(c.demand, std::max(0.0, c.cap)); }

}  // namespace

void weighted_fair_allocate(double capacity, std::span<const Claim> claims,
                            std::span<double> granted) {
  assert(granted.size() == claims.size());
  const std::size_t n = claims.size();
  std::fill(granted.begin(), granted.end(), 0.0);
  if (n == 0 || capacity <= 0.0) return;
  assert(std::all_of(claims.begin(), claims.end(),
                     [](const Claim& c) { return c.demand >= 0.0 && c.weight > 0.0; }));

  double remaining = capacity;
  // Each round freezes at least one claimant, so at most n rounds. A frozen
  // claimant holds exactly its want, so the `granted >= want` test skips it.
  for (std::size_t round = 0; round < n; ++round) {
    double active_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (granted[i] < want(claims[i])) active_weight += claims[i].weight;
    }
    if (active_weight <= 0.0 || remaining <= 1e-15) break;

    bool any_frozen = false;
    bool all_frozen = true;
    double handed_out = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = want(claims[i]);
      if (granted[i] >= w) continue;
      const double share = remaining * claims[i].weight / active_weight;
      const double room = w - granted[i];
      if (share >= room) {
        granted[i] = w;
        handed_out += room;
        any_frozen = true;
      } else {
        granted[i] += share;
        handed_out += share;
        all_frozen = false;
      }
    }
    // Everyone got exactly their proportional share, or every active
    // claimant now holds its want (the usual CPU shape), in which case the
    // next round would find no active weight and stop anyway.
    if (!any_frozen || all_frozen) break;
    remaining -= handed_out;
  }
}

}  // namespace perfcloud::hw
