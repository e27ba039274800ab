#pragma once
// Workload factories (internal to the benchmark).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

/// scatter-deploy, reduce-colgen, reduce-exec; nullptr for other names.
[[nodiscard]] std::unique_ptr<Workload> make_cold_workload(
    const std::string& name, std::uint64_t seed, const References& refs);

/// drift-serve.
[[nodiscard]] std::unique_ptr<Workload> make_drift_workload(
    std::uint64_t seed);

/// Labels and exact TPs of every instance the cold workloads request,
/// computed by fresh solves (regenerates references.txt).
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
compute_references();

}  // namespace perfbench
