#pragma once
// Host-speed probe. The shared host this benchmark runs on changes speed by
// tens of percent within minutes (other tenants' load), and that drift, not
// the code, dominated run-to-run spread. The probe times a fixed kernel that
// does not use the library -- sparse matrix-vector products over a small
// random matrix plus binary-heap traffic, a mix like the solver's and the
// twin's -- in short slices taken only while no request runs: between
// set-ups and between the cold workloads' requests. drift-serve is not
// probed (Workload::host_scaled). Every pause runs the same fixed number of
// slices, so how often the probe pauses (which depends on the speed of the
// code under test) does not change the distribution of slice times. Times
// are reported both raw and scaled to the reference host speed, at which
// one slice takes kReferenceSliceMs.

#include <cstdint>
#include <vector>

#include "bench.h"

namespace perfbench {

inline constexpr double kReferenceSliceMs = 5.0;

class HostProbe {
 public:
  HostProbe();

  /// Runs and records slices on the calling thread.
  class Runner {
   public:
    explicit Runner(const HostProbe& probe);
    /// One pause: an unrecorded slice (it runs with the probe's data out
    /// of cache), then `n` recorded ones.
    void slices(std::size_t n);
    [[nodiscard]] const std::vector<double>& slices_ms() const {
      return slices_ms_;
    }

   private:
    double slice();

    const HostProbe& probe_;
    std::vector<double> y_;
    std::vector<double> slices_ms_;
    std::uint64_t sink_ = 0;
  };

 private:
  std::vector<std::uint32_t> row_start_, col_;
  std::vector<double> val_, x_;
};

/// Scale turning a raw duration into reference-host time: the reference
/// slice time over the median measured slice (1 when nothing was probed).
[[nodiscard]] double host_scale(const std::vector<double>& slices_ms);

}  // namespace perfbench
