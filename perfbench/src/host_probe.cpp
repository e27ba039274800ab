#include "host_probe.h"

#include <queue>

namespace perfbench {
namespace {

// A 64K-nonzero matrix (under 1 MB, so it stays in cache) swept 16 times
// per slice. Over a 4-minute series in which the host's speed varied 2.2x,
// slice times tracked n=128 scatter requests interleaved with them at a
// log-log slope of 0.97 (correlation 0.97). A 1M-nonzero matrix swept once
// also measured memory-bandwidth contention, which slowed it more than the
// requests: slope 0.81, so scaling by it over-corrected.
constexpr std::size_t kRows = std::size_t{1} << 13;
constexpr std::size_t kPerRow = 8;
constexpr int kSweeps = 16;
constexpr int kHeapOps = 50000;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

HostProbe::HostProbe() {
  std::uint64_t s = 12345;
  x_.resize(kRows);
  for (double& v : x_) v = static_cast<double>(xorshift(s) % 1000) * 1e-3;
  row_start_.reserve(kRows + 1);
  col_.reserve(kRows * kPerRow);
  val_.reserve(kRows * kPerRow);
  row_start_.push_back(0);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t k = 0; k < kPerRow; ++k) {
      col_.push_back(static_cast<std::uint32_t>(xorshift(s) % kRows));
      val_.push_back(static_cast<double>(xorshift(s) % 1000) * 1e-3);
    }
    row_start_.push_back(static_cast<std::uint32_t>(col_.size()));
  }
}

HostProbe::Runner::Runner(const HostProbe& probe)
    : probe_(probe), y_(kRows, 0.0) {}

double HostProbe::Runner::slice() {
  const auto t = Clock::now();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t r = 0; r < kRows; ++r) {
      double acc = 0.0;
      for (std::uint32_t k = probe_.row_start_[r];
           k < probe_.row_start_[r + 1]; ++k) {
        acc += probe_.val_[k] * probe_.x_[probe_.col_[k]];
      }
      y_[r] = acc;
    }
  }
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t s = 7;
  for (int i = 0; i < kHeapOps; ++i) {
    heap.push(xorshift(s) >> 20);
    if (heap.size() > 4096) heap.pop();
  }
  sink_ += heap.top() + static_cast<std::uint64_t>(y_[sink_ % kRows] > 2.0);
  return ms_since(t);
}

void HostProbe::Runner::slices(std::size_t n) {
  (void)slice();
  for (std::size_t i = 0; i < n; ++i) slices_ms_.push_back(slice());
}

double host_scale(const std::vector<double>& slices_ms) {
  if (slices_ms.empty()) return 1.0;
  return kReferenceSliceMs / quantile(slices_ms, 0.5);
}

}  // namespace perfbench
