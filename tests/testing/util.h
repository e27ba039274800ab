#pragma once
// Shared helpers for the ssco test suite.

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/generators.h"
#include "graph/rng.h"
#include "num/rational.h"
#include "obs/metrics.h"
#include "platform/paper_instances.h"
#include "platform/platform.h"

namespace ssco::testing {

/// Shorthand exact-rational literal: R("2/9"), R("-3").
inline num::Rational R(std::string_view text) { return num::Rational(text); }

/// Growth of obs::Registry::global() counters since construction — how a
/// test reads the solver_* telemetry its own solves published.
class GlobalMetricsDelta {
 public:
  GlobalMetricsDelta() : before_(obs::Registry::global().snapshot()) {}
  [[nodiscard]] std::uint64_t operator()(std::string_view name) const {
    const auto now = obs::Registry::global().snapshot().value(name);
    return static_cast<std::uint64_t>(now - before_.value(name));
  }

 private:
  obs::Snapshot before_;
};

/// Deterministic random platform: connected symmetric topology with small
/// rational link costs (numerators 1..6, denominators 1..4) and integer
/// speeds 1..10. Same seed -> same platform.
inline platform::Platform random_platform(std::uint64_t seed, std::size_t n,
                                          double extra_edge_prob = 0.3) {
  graph::Rng rng(seed);
  graph::Digraph topo = graph::random_connected(n, extra_edge_prob, rng);
  std::vector<num::Rational> costs;
  costs.reserve(topo.num_edges());
  // Symmetric costs: both directions of a physical link get the same value.
  std::vector<num::Rational> by_pair(topo.num_edges());
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    graph::EdgeId reverse =
        topo.find_edge(topo.edge(e).dst, topo.edge(e).src);
    if (reverse != graph::kInvalidId && reverse < e) {
      by_pair[e] = by_pair[reverse];
    } else {
      by_pair[e] = num::Rational(
          static_cast<std::int64_t>(rng.uniform(1, 6)),
          static_cast<std::int64_t>(rng.uniform(1, 4)));
    }
  }
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    costs.push_back(by_pair[e]);
  }
  std::vector<num::Rational> speeds;
  speeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    speeds.emplace_back(static_cast<std::int64_t>(rng.uniform(1, 10)));
  }
  return platform::Platform(std::move(topo), std::move(costs),
                            std::move(speeds));
}

/// Scatter instance on random_platform(seed, n): node 0 scatters to the
/// last `num_targets` nodes.
inline platform::ScatterInstance random_scatter_instance(
    std::uint64_t seed, std::size_t n, std::size_t num_targets) {
  platform::ScatterInstance inst;
  inst.platform = random_platform(seed, n);
  inst.source = 0;
  for (std::size_t i = 0; i < num_targets; ++i) {
    inst.targets.push_back(n - 1 - i);
  }
  return inst;
}

/// Reduce instance on random_platform(seed, n): the last `participants`
/// nodes reduce toward node n-1.
inline platform::ReduceInstance random_reduce_instance(
    std::uint64_t seed, std::size_t n, std::size_t participants) {
  platform::ReduceInstance inst;
  inst.platform = random_platform(seed, n);
  for (std::size_t i = 0; i < participants; ++i) {
    inst.participants.push_back(n - participants + i);
  }
  inst.target = inst.participants.back();
  return inst;
}

}  // namespace ssco::testing
