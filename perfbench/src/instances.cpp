#include "instances.h"

#include "graph/rng.h"
#include "platform/delta.h"

namespace perfbench {

using ssco::num::Rational;

ssco::platform::Platform drift_step(const ssco::platform::Platform& platform,
                                    std::uint64_t step_seed) {
  ssco::graph::Rng rng(step_seed);
  const auto e = static_cast<ssco::graph::EdgeId>(
      rng.uniform(0, platform.num_edges() - 1));
  ssco::platform::PlatformDelta delta;
  delta.cost_changes.push_back(
      {e, platform.edge_cost(e) *
              (rng.bernoulli(0.5) ? Rational(21, 20) : Rational(19, 20))});
  return ssco::platform::apply_delta(platform, delta).platform;
}

std::string label(const char* family, std::size_t n, std::size_t k,
                  std::uint64_t seed) {
  return std::string(family) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k) + " seed=" + std::to_string(seed);
}

}  // namespace perfbench
