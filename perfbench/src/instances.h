#pragma once
// Instance helpers on top of the repository's seeded generators
// (bench/testing_support.h: random_sparse_scatter_instance,
// random_sparse_reduce_instance, random_scatter_instance), which every
// workload draws its platforms from.

#include <cstdint>
#include <string>

#include "platform/platform.h"
#include "testing_support.h"

namespace perfbench {

/// `platform` with one edge's cost scaled by 21/20 or 19/20 (drawn from
/// `step_seed`): one step of a chained drift walk.
[[nodiscard]] ssco::platform::Platform drift_step(
    const ssco::platform::Platform& platform, std::uint64_t step_seed);

/// Reference-table label of a generated instance, e.g.
/// "sparse-scatter n=128 k=16 seed=3".
[[nodiscard]] std::string label(const char* family, std::size_t n,
                                std::size_t k, std::uint64_t seed);

}  // namespace perfbench
