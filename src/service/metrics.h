#pragma once
// Observability surface of the plan service.
//
// Since the unified-registry migration the service counters live in an
// obs::Registry owned by the PlanService: related counters are bumped
// inside one Registry::Batch, and metrics() / metrics_snapshot() read a
// single coherent Snapshot — so cross-counter invariants like
// `cache_hits + cache_misses == cache_lookups` hold in EVERY snapshot,
// not just after drain() (the old relaxed-atomics surface could
// momentarily show hits > lookups mid-load). Shard counters are still
// read under their shard locks.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats.h"

namespace ssco::service {

/// The one nearest-rank quantile definition, shared with the executor's
/// summaries and the registry histograms (obs/stats.h) — the PR-7
/// off-by-one lived in a duplicated copy of exactly this function.
using obs::nearest_rank_index;

/// Bounded latency sample store with deterministic replacement: fills to
/// capacity, then overwrites in strict arrival order (the slot cursor wraps
/// from capacity-1 back to 0), so after k > capacity records the reservoir
/// holds exactly the most recent `capacity` samples. Not synchronized —
/// callers bring their own lock.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 1 << 14)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(double ms) {
    if (samples_.size() < capacity_) {
      samples_.push_back(ms);
      return;
    }
    samples_[next_] = ms;
    next_ = (next_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Samples in storage order (unsorted).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<double> samples_;
};

/// One cache shard's view (see plan_cache.h).
struct CacheShardMetrics {
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::size_t exact_hits = 0;
  std::size_t warm_hits = 0;    // warm candidates handed out
  std::size_t misses = 0;       // exact lookups that found nothing
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t expirations = 0;    // TTL-expired on an exact lookup
  std::size_t invalidations = 0;  // drift-invalidated entries
};

struct ServiceMetrics {
  std::vector<CacheShardMetrics> shards;

  // Request accounting (whole service). Invariant in every snapshot:
  // accepted + shed == submitted (both sides of each admission decision
  // are bumped in one Registry::Batch).
  std::size_t submitted = 0;
  std::size_t accepted = 0;      // passed admission (incl. exact hits)
  std::size_t shed = 0;          // rejected typed kOverloaded at submit()
  std::size_t deduplicated = 0;  // attached to an identical in-flight solve
  std::size_t exact_hits = 0;    // answered from cache (inline or queued)
  std::size_t warm_hits = 0;     // solved incrementally from a cached basis
  std::size_t cold_solves = 0;   // solved from scratch
  std::size_t failed = 0;        // solve threw; exception forwarded

  // Graceful degradation.
  std::size_t deadline_misses = 0;  // request deadline fired pre-solve
  std::size_t degraded_served = 0;  // stale/degraded plans handed out

  // Queue health (warm + cold lanes combined).
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;

  // Submit-to-fulfillment latency over a bounded reservoir of recent
  // requests (exact hits included — they are what a client sees).
  std::size_t latency_samples = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;

  // Execution data plane (PlanService::execute): cumulative counters plus
  // the most recent run's achieved-vs-certified snapshot.
  std::size_t executions = 0;       // plans run through an executor
  std::size_t drift_resolves = 0;   // observed drift -> warm re-solve
  std::size_t exec_oneport_violations = 0;  // summed over all runs
  std::size_t exec_delivery_errors = 0;     // summed over all runs
  std::size_t exec_faults_injected = 0;     // summed over all runs
  std::size_t exec_retransmits = 0;         // summed over all runs
  double last_efficiency = 0.0;
  double last_achieved_bytes_per_sec = 0.0;
  double last_certified_bytes_per_sec = 0.0;

  /// (exact + warm) / solved-or-served requests; the bench's headline.
  [[nodiscard]] double hit_rate() const {
    const std::size_t served = exact_hits + warm_hits + cold_solves;
    return served == 0
               ? 0.0
               : static_cast<double>(exact_hits + warm_hits) /
                     static_cast<double>(served);
  }
};

/// The metrics as registry entries (counters/gauges named service_*): the
/// SAME view PlanService::metrics_snapshot() exposes. format_metrics
/// renders its tables from exactly this snapshot, so the human-readable
/// table and the Prometheus/JSON expositions cannot drift apart.
[[nodiscard]] obs::Snapshot snapshot_of(const ServiceMetrics& metrics);

/// Renders the metrics as io/report tables (shard table + totals) for
/// benches and examples. Table values are read back from snapshot_of().
[[nodiscard]] std::string format_metrics(const ServiceMetrics& metrics);

/// Renders the solver_* entries ExactSolver publishes to a registry —
/// solve/pivot/warm/colgen counters plus the FTRAN/BTRAN/pricing/
/// factorization wall-clock breakdown — as an io/report table for benches
/// and examples (pass obs::Registry::global().snapshot()).
[[nodiscard]] std::string format_solver_stats(const obs::Snapshot& snap);

}  // namespace ssco::service
