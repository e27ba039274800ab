#pragma once
// Shared vocabulary of the benchmark: the workload interface, the result
// of one timed window (metrics plus the correctness gate's bookkeeping)
// and the percentile definition every metric uses.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one timed window produced.
struct WindowResult {
  double seconds = 0.0;         // wall time of the window
  std::size_t attempted = 0;
  std::size_t completed = 0;    // requests that finished the full path
  /// Failure reason -> count. Every failed request has exactly one.
  std::map<std::string, std::size_t> failures;
  /// Wrong outputs (TP mismatch, nondeterminism, invalid plans). A wrong
  /// output is also a failure; this keeps the first message of each kind.
  std::vector<std::string> wrong;
  std::vector<Metric> end_to_end;  // every metric that applies, raw
  std::vector<Metric> per_layer;   // filled on traced windows
  std::vector<double> probe_ms;    // host-probe slices (host_probe.h)
  // Traced windows: completed requests and seconds of the untraced and the
  // traced stretches (trace.overhead_pct), and requests in traced ones.
  std::size_t plain_completed = 0, traced_completed = 0, traced_attempted = 0;
  double plain_seconds = 0.0, traced_seconds = 0.0;

  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& [reason, count] : failures) n += count;
    return n;
  }
  void fail(const std::string& reason) { ++failures[reason]; }
  void wrong_output(const std::string& reason, const std::string& detail) {
    fail(reason);
    if (wrong.size() < 16) wrong.push_back(reason + ": " + detail);
  }
  /// Adds another result's gate bookkeeping (attempts, failures).
  void add_gate(const WindowResult& other) {
    attempted += other.attempted;
    for (const auto& [reason, n] : other.failures) failures[reason] += n;
    wrong.insert(wrong.end(), other.wrong.begin(), other.wrong.end());
  }
};

/// A traced window alternates untraced and traced stretches in the order
/// A B B A A B B A ...: any steady drift of speed within the run then
/// weighs both kinds equally and cancels out of the tracing overhead.
[[nodiscard]] inline bool traced_stretch(std::size_t k) {
  return k % 4 == 1 || k % 4 == 2;
}

class HostProbe;

/// A workload after set-up: ready to run timed windows.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Whether the host probe (host_probe.h) tracks this workload's speed;
  /// when it does not, the workload takes no probe slices in its window
  /// and its times are reported raw.
  [[nodiscard]] virtual bool host_scaled() const { return true; }

  /// Requests every instance once with the full plan validation, outside
  /// set-up and outside the window; the gate counts these requests too.
  [[nodiscard]] virtual WindowResult prepare() { return {}; }

  /// Runs requests for at least `seconds` (whole passes over the instance
  /// set for the closed-loop cold workloads) and takes `probe` slices
  /// while no request runs. A `traced` window alternates untraced and
  /// traced stretches (traced_stretch), records spans in the traced ones
  /// and fills per_layer from their returned structs.
  [[nodiscard]] virtual WindowResult run(double seconds, bool traced,
                                         const HostProbe& probe) = 0;
};

/// Exact TPs stored with the benchmark, keyed by instance label.
using References = std::map<std::string, std::string>;

/// q-quantile by the library's nearest-rank definition (obs/stats.h).
[[nodiscard]] inline double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return ssco::obs::percentile_of_sorted(samples, q);
}

}  // namespace perfbench
