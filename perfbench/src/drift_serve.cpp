// drift-serve: two closed-loop clients against one PlanService (2 workers,
// 1 solve thread each). The request stream walks chained one-edge ±5%
// drifts over four n=32 scatter platforms; reduce drift variants (n=16,
// p=4) and ~1% fresh platforms are mixed in. The platforms are fixed (walk
// bases from instance seeds 1-4, and 1 for reduce; drift steps and fresh
// platforms from kInstanceSeed); the run seed draws the interleaving. With
// seed-drawn platforms, one seed's stream was slower in every run (p99 58
// and 67 ms against ~32 ms), which dominated the spread between runs.
// Repeats are exact cache hits, each new drift step a warm dual-simplex
// re-solve, fresh platforms cold solves that write to the cache beside the
// read traffic. The stream has no end: drift variants are generated a walk
// segment at a time as the clients reach them, so neither set-up time nor
// memory depends on how far a run gets.

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <variant>

#include "bench.h"
#include "core/steady_state.h"
#include "host_probe.h"
#include "instances.h"
#include "platform/fingerprint.h"
#include "service/errors.h"
#include "service/plan_service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ssco::service::PlanRequest;
using ssco::service::PlanResult;

constexpr std::size_t kScatterNodes = 32;
constexpr std::size_t kScatterTargets = 16;
constexpr std::size_t kReduceNodes = 16;
constexpr std::size_t kReduceParticipants = 4;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWalks = 4;
// Each scatter walk takes one drift step per 21 of its requests; requests
// come in blocks of 100 holding one fresh platform and four reduce
// requests (the reduce walk takes one step per block).
constexpr std::size_t kStepEvery = 21;
// Walks restart from their base platform every 48 steps: each ±5% step
// multiplies a cost by 21/20 or 19/20, so an unbounded walk grows the
// costs' numerators and denominators, and the exact certificate with them
// (a 40 s window served 430 requests/s against 776 in a 10 s one).
constexpr std::size_t kSegment = 48;
constexpr std::size_t kBlock = 100;
constexpr std::size_t kReducePerBlock = 4;
constexpr double kDeadlineMs = 2000;
constexpr std::size_t kScrapeEvery = 256;
constexpr std::uint64_t kInstanceSeed = 1;
constexpr std::size_t kFingerprintEvery = 16;
// Stretches of a traced window (traced_stretch order).
constexpr std::size_t kTracedStretches = 8;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class Kind : std::uint8_t { kScatter, kReduce, kFresh };

struct Slot {
  Kind kind;
  std::size_t index;  // variant / fresh-platform index
  std::size_t walk = 0;
};

/// Served-plan identity: kind, walk, variant / fresh-platform index.
using Key = std::tuple<Kind, std::size_t, std::size_t>;

/// Served-plan record kept for the post-window correctness sample.
struct Served {
  std::string tp;
  bool sampled = false;  // validated when served, cold-solved after
};

struct Sample {
  double ms;
  PlanResult::Source source;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<double> fingerprint_us, snapshot_us, warm_pivots;
  std::map<Key, Served> served;
  std::map<std::string, std::size_t> failures;
  std::vector<std::string> wrong;
  std::size_t attempted = 0;
  std::uint64_t fingerprint_sink = 0;  // keeps the timed call observable
};

bool sampled(Slot s) {
  switch (s.kind) {
    case Kind::kScatter: return s.index % 64 == 7;
    case Kind::kReduce: return s.index % 16 == 3;
    case Kind::kFresh: return s.index % 32 == 5;
  }
  return false;
}

/// Variants of one walk segment: the walk's base after each step of the
/// segment in turn. Walks restart from the base every kSegment steps.
template <class Instance, class StepSeed>
std::vector<Instance> drift_segment(const Instance& base, std::size_t segment,
                                    StepSeed step_seed) {
  std::vector<Instance> out;
  out.reserve(kSegment);
  Instance current = base;
  for (std::size_t k = 0; k < kSegment; ++k) {
    current.platform =
        drift_step(current.platform, step_seed(segment * kSegment + k));
    out.push_back(current);
  }
  return out;
}

/// Generated segments of one walk, by segment index.
template <class Instance>
using Segments =
    std::map<std::size_t, std::shared_ptr<const std::vector<Instance>>>;

/// Segment `segment` of a walk, generated on first use. Clients move
/// forward through the stream, so segments older than the previous one are
/// dropped (and regenerated if the post-window check needs them).
template <class Instance, class StepSeed>
std::shared_ptr<const std::vector<Instance>> segment_of(
    Segments<Instance>& cache, std::mutex& mu, const Instance& base,
    std::size_t segment, StepSeed step_seed) {
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(segment);
    if (it != cache.end()) return it->second;
  }
  auto made = std::make_shared<const std::vector<Instance>>(
      drift_segment(base, segment, step_seed));
  std::lock_guard<std::mutex> lock(mu);
  while (!cache.empty() && cache.begin()->first + 1 < segment) {
    cache.erase(cache.begin());
  }
  return cache.try_emplace(segment, std::move(made)).first->second;
}

/// One stretch of a window: its client logs and the service's counters
/// around it.
struct Stretch {
  bool traced = false;
  double seconds = 0.0;
  std::vector<ClientLog> logs;
  ssco::service::ServiceMetrics before, after;
};

class DriftServe final : public Workload {
 public:
  explicit DriftServe(std::uint64_t seed) : seed_(seed) {
    for (std::size_t w = 0; w < kWalks; ++w) {
      scatter_base_[w] = bench_support::random_scatter_instance(
          w + 1, kScatterNodes, kScatterTargets);
    }
    reduce_base_ = bench_support::random_sparse_reduce_instance(
        1, kReduceNodes, kReduceParticipants);

    ssco::service::PlanServiceOptions options;
    options.num_workers = 2;
    options.solve_threads = 1;
    options.serve_stale = false;  // a missed deadline is a typed failure
    // A small cache, which the fresh platforms (spread over all shards)
    // fill within about 10 s, so memory does not track how far a run gets;
    // the walks never revisit old variants. Peak RSS between a 10 s and a
    // 40 s window grew from 165 to 246 MB with 32 entries per shard, from
    // 102 to 124 MB with 8.
    options.shard_capacity = 8;
    service_ = std::make_unique<ssco::service::PlanService>(options);
    // Warm-up: the walks' first platforms, solved cold.
    std::vector<Slot> starts{Slot{Kind::kReduce, 0}};
    for (std::size_t w = 0; w < kWalks; ++w) {
      starts.push_back(Slot{Kind::kScatter, 0, w});
    }
    for (Slot s : starts) {
      const PlanResult r = service_->submit(request(s)).get();
      if (!r.payload->certified()) {
        throw std::runtime_error("warm-up plan is not certified");
      }
    }
  }

  // The probe does not track this workload's speed, whose work is spread
  // over four threads. Five runs with probe pauses on the calling thread
  // between eight stretches of the window: requests_per_s spread 0.031
  // raw, 0.171 scaled. Over ten runs, scaling widened the setup_s spread
  // from 0.11 to 0.26 (with the earlier, memory-bound probe kernel).
  [[nodiscard]] bool host_scaled() const override { return false; }

  WindowResult run(double seconds, bool traced,
                   const HostProbe& probe) override;

 private:
  [[nodiscard]] Slot slot(std::size_t i) const {
    const std::size_t b = i / kBlock, r = i % kBlock;
    const std::uint64_t h = mix(seed_ ^ (b * 0x632be59bd9b4e019ull));
    if (r == h % kBlock) return {Kind::kFresh, b};
    if ((r + (h >> 32)) % (kBlock / kReducePerBlock) == 0) {
      return {Kind::kReduce, b};
    }
    return {Kind::kScatter, i / (kStepEvery * kWalks), mix(h + r) % kWalks};
  }

  [[nodiscard]] PlanRequest request(Slot s) const {
    PlanRequest req;
    const std::size_t segment = s.index / kSegment, step = s.index % kSegment;
    switch (s.kind) {
      case Kind::kScatter: {
        const std::size_t w = s.walk;
        req.instance = (*segment_of(scatter_segments_[w], segments_mu_,
                                    scatter_base_[w], segment,
                                    [w](std::size_t v) {
                                      return mix(kInstanceSeed ^
                                                 (v * kWalks + w));
                                    }))[step];
        break;
      }
      case Kind::kReduce:
        req.instance =
            (*segment_of(reduce_segments_, segments_mu_, reduce_base_, segment,
                         [](std::size_t v) {
                           return mix(~kInstanceSeed ^ v);
                         }))[step];
        break;
      case Kind::kFresh:
        req.instance = bench_support::random_scatter_instance(
            mix(kInstanceSeed + 2 + s.index), kScatterNodes, kScatterTargets);
        break;
    }
    req.deadline_ms = kDeadlineMs;
    return req;
  }

  void client(Clock::time_point deadline, bool traced, ClientLog& log);
  /// Exact validation of a served plan against its platform.
  [[nodiscard]] std::string validate(
      Slot s, const ssco::service::PlanPayload& payload) const;
  void verify(const std::map<Key, Served>& served,
              WindowResult& w) const;

  std::uint64_t seed_;
  ssco::platform::ScatterInstance scatter_base_[kWalks];
  ssco::platform::ReduceInstance reduce_base_;
  mutable std::mutex segments_mu_;
  mutable Segments<ssco::platform::ScatterInstance> scatter_segments_[kWalks];
  mutable Segments<ssco::platform::ReduceInstance> reduce_segments_;
  std::atomic<std::size_t> next_{0};
  std::unique_ptr<ssco::service::PlanService> service_;
};

void DriftServe::client(Clock::time_point deadline, bool traced,
                        ClientLog& log) {
  while (Clock::now() < deadline) {
    const std::size_t i = next_.fetch_add(1);
    Spans::set_request(i + 1);
    Spans::Scope span("client", "request");
    const Slot s = slot(i);
    PlanRequest req = request(s);
    ++log.attempted;
    // The extra fingerprint call, for platform.fingerprint_us, on a sample
    // of the traced requests (it costs about as much as an exact hit).
    if (traced && i % kFingerprintEvery == 0) {
      Spans::Scope f("platform", "fingerprint");
      const auto t = Clock::now();
      const auto fp = std::visit(
          [](const auto& inst) { return ssco::platform::fingerprint(inst); },
          req.instance);
      log.fingerprint_us.push_back(ms_since(t) * 1e3);
      log.fingerprint_sink ^= fp.full;
    }
    try {
      const auto t = Clock::now();
      std::future<PlanResult> fut;
      {
        Spans::Scope sub("service", "PlanService::submit");
        fut = service_->submit(std::move(req));
      }
      PlanResult r;
      {
        Spans::Scope wait("service", "future.get");
        r = fut.get();
      }
      const double ms = ms_since(t);
      if (!r.payload->certified() || r.degraded) {
        ++log.failures["uncertified"];
      } else {
        log.samples.push_back({ms, r.source});
        if (r.source == PlanResult::Source::kWarmHit) {
          log.warm_pivots.push_back(
              static_cast<double>(r.payload->lp_pivots()));
        }
        const std::string tp = r.throughput().to_string();
        auto [it, inserted] =
            log.served.try_emplace(Key{s.kind, s.walk, s.index});
        if (inserted) {
          it->second.tp = tp;
          if (sampled(s)) {
            // Validated now rather than after the window, so the benchmark
            // holds no payloads and peak_rss_mb is the service's.
            it->second.sampled = true;
            const std::string invalid = validate(s, *r.payload);
            if (!invalid.empty()) {
              ++log.failures["invalid-plan"];
              log.wrong.push_back("invalid-plan: " + invalid);
            }
          }
        } else if (it->second.tp != tp) {
          ++log.failures["tp-inconsistent"];
          log.wrong.push_back("two TPs served for one platform");
        }
      }
    } catch (const ssco::service::ServiceError& e) {
      ++log.failures[e.code() == ssco::service::ServiceErrorCode::kOverloaded
                         ? "shed"
                         : e.code() == ssco::service::ServiceErrorCode::
                                           kDeadlineExceeded
                               ? "deadline-miss"
                               : "service-error"];
    } catch (const std::exception&) {
      ++log.failures["exception"];
    } catch (...) {
      ++log.failures["exception"];
    }
    if (i % kScrapeEvery == 0) {  // a monitoring scrape
      Spans::Scope o("obs", "metrics_snapshot");
      const auto t = Clock::now();
      const auto snap = service_->metrics_snapshot();
      log.snapshot_us.push_back(ms_since(t) * 1e3);
      if (snap.entries.empty()) ++log.failures["empty-snapshot"];
    }
  }
}

WindowResult DriftServe::run(double seconds, bool traced,
                             const HostProbe& /*probe*/) {
  WindowResult w;
  const std::size_t stretches = traced ? kTracedStretches : 1;
  std::vector<Stretch> done(stretches);
  for (std::size_t k = 0; k < stretches; ++k) {
    Stretch& st = done[k];
    st.traced = traced && traced_stretch(k);
    st.logs.resize(kClients);
    Spans::enable(st.traced);
    st.before = service_->metrics();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds / stretches));
    {
      std::vector<std::thread> threads;
      for (ClientLog& log : st.logs) {
        threads.emplace_back([this, deadline, &st, &log] {
          client(deadline, st.traced, log);
        });
      }
      for (auto& t : threads) t.join();
    }
    st.seconds = ms_since(start) * 1e-3;
    st.after = service_->metrics();
    Spans::enable(false);
  }

  std::vector<double> all, hit, warm, cold, fp_us, snap_us, warm_pivots;
  std::map<Key, Served> served;
  double accepted = 0, exact = 0, warm_hits = 0, dedup = 0, cold_solves = 0,
         shed = 0;
  for (Stretch& st : done) {
    const std::size_t completed = all.size();
    for (ClientLog& log : st.logs) {
      w.attempted += log.attempted;
      if (st.traced) w.traced_attempted += log.attempted;
      for (const auto& [reason, n] : log.failures) w.failures[reason] += n;
      for (auto& msg : log.wrong) w.wrong.push_back(std::move(msg));
      for (const Sample& s : log.samples) {
        all.push_back(s.ms);
        if (!st.traced) continue;
        switch (s.source) {
          case PlanResult::Source::kExactHit: hit.push_back(s.ms); break;
          case PlanResult::Source::kWarmHit: warm.push_back(s.ms); break;
          case PlanResult::Source::kColdSolve: cold.push_back(s.ms); break;
          case PlanResult::Source::kStale: break;
        }
      }
      if (st.traced) {
        fp_us.insert(fp_us.end(), log.fingerprint_us.begin(),
                     log.fingerprint_us.end());
        snap_us.insert(snap_us.end(), log.snapshot_us.begin(),
                       log.snapshot_us.end());
        warm_pivots.insert(warm_pivots.end(), log.warm_pivots.begin(),
                           log.warm_pivots.end());
      }
      for (auto& [key, s] : log.served) {
        auto [it, inserted] = served.try_emplace(key, s);
        if (!inserted && it->second.tp != s.tp) {
          w.wrong_output("tp-inconsistent", "clients saw two TPs");
        }
        if (!inserted) it->second.sampled = it->second.sampled || s.sampled;
      }
    }
    w.seconds += st.seconds;
    (st.traced ? w.traced_seconds : w.plain_seconds) += st.seconds;
    (st.traced ? w.traced_completed : w.plain_completed) +=
        all.size() - completed;
    if (st.traced) {
      auto delta = [&](std::size_t ssco::service::ServiceMetrics::*field) {
        return static_cast<double>(st.after.*field - st.before.*field);
      };
      accepted += delta(&ssco::service::ServiceMetrics::accepted);
      exact += delta(&ssco::service::ServiceMetrics::exact_hits);
      warm_hits += delta(&ssco::service::ServiceMetrics::warm_hits);
      dedup += delta(&ssco::service::ServiceMetrics::deduplicated);
      cold_solves += delta(&ssco::service::ServiceMetrics::cold_solves);
      shed += delta(&ssco::service::ServiceMetrics::shed);
    }
  }
  w.completed = all.size();
  verify(served, w);

  auto& e = w.end_to_end;
  e.push_back({"requests_per_s", static_cast<double>(w.completed) / w.seconds,
               "1/s"});
  e.push_back({"plan_ms_p50", quantile(all, 0.5), "ms"});
  // p99 only where at least ten samples lie beyond it.
  if (all.size() >= 1000) {
    e.push_back({"plan_ms_p99", quantile(all, 0.99), "ms"});
  }
  e.push_back({"plan_ms_samples", static_cast<double>(all.size()), "count"});
  if (!traced) return w;

  auto& l = w.per_layer;
  l.push_back({"service.exact_hits", exact, "count"});
  l.push_back({"service.warm_hits", warm_hits, "count"});
  l.push_back({"service.cold_solves", cold_solves, "count"});
  l.push_back({"service.dedup", dedup, "count"});
  l.push_back({"service.shed", shed, "count"});
  l.push_back({"service.hit_ratio",
               accepted > 0 ? (exact + warm_hits + dedup) / accepted : 0.0,
               "ratio"});
  l.push_back({"service.hit_ms_p50", quantile(hit, 0.5), "ms"});
  l.push_back({"service.warm_ms_p50", quantile(warm, 0.5), "ms"});
  l.push_back({"service.cold_ms_p50", quantile(cold, 0.5), "ms"});
  double pivots = 0;
  for (double p : warm_pivots) pivots += p;
  l.push_back({"lp.warm_pivots",
               warm_pivots.empty() ? 0.0 : pivots / warm_pivots.size(),
               "count"});
  l.push_back({"platform.fingerprint_us", quantile(fp_us, 0.5), "us"});
  l.push_back({"obs.snapshot_us", quantile(snap_us, 0.5), "us"});
  return w;
}

std::string DriftServe::validate(
    Slot s, const ssco::service::PlanPayload& payload) const {
  const PlanRequest req = request(s);
  if (s.kind == Kind::kReduce) {
    return payload.reduce->solution.validate(
        std::get<ssco::platform::ReduceInstance>(req.instance));
  }
  return payload.flow->flow.validate(
      std::get<ssco::platform::ScatterInstance>(req.instance).platform);
}

/// Post-window gate: sampled served plans must match a cold solve of the
/// same platform exactly.
void DriftServe::verify(
    const std::map<Key, Served>& served,
    WindowResult& w) const {
  for (const auto& [key, s] : served) {
    if (!s.sampled) continue;
    const Slot slot{std::get<0>(key), std::get<2>(key), std::get<1>(key)};
    const PlanRequest req = request(slot);
    const std::string cold =
        slot.kind == Kind::kReduce
            ? ssco::core::solve_reduce(
                  std::get<ssco::platform::ReduceInstance>(req.instance))
                  .throughput.to_string()
            : ssco::core::solve_scatter(
                  std::get<ssco::platform::ScatterInstance>(req.instance))
                  .throughput.to_string();
    if (cold != s.tp) w.wrong_output("tp-mismatch", s.tp + " != cold " + cold);
  }
}

}  // namespace

std::unique_ptr<Workload> make_drift_workload(std::uint64_t seed) {
  return std::make_unique<DriftServe>(seed);
}

}  // namespace perfbench
