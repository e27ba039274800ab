// perfbench: one workload of the plan -> deploy -> run benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--references perfbench/references.txt]
//             [--out .bench_build/perfbench/out]
//   perfbench --print-references
//
// Set-up (instance generation, service construction, warm-up) runs nine
// times, with host-probe slices between; setup_s is the median, at the
// reference host speed of those slices for the workloads the probe tracks
// (Workload::host_scaled). The last set-up's state first
// serves every instance once with full plan validation (cold workloads;
// gated, untimed), then is measured for --seconds. With --trace 1 the
// window alternates untraced and traced stretches (A B B A ...), records
// spans around every layer call in the traced ones, and compares the two
// kinds' requests_per_s for the tracing overhead.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}: the gated end-to-end
// metrics (times at reference host speed, host_probe.h) with --trace 0,
// the per-layer metrics with --trace 1. The full
// metric set of the run is also written to <out>/<workload>-seed<n>-
// trace<t>.json, and a traced run writes its spans to
// <out>/<workload>-seed<n>.trace.json (Chrome trace-event format).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "host_probe.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Process peak resident set size in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    refs[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return refs;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const References& references) {
  if (name == "drift-serve") return make_drift_workload(seed);
  return make_cold_workload(name, seed, references);
}

constexpr int kSetups = 9;
constexpr std::size_t kSetupSlices = 3;

// The metrics BENCHMARK.json lists: end-to-end ones apply to every
// workload; per-layer ones are reported as 0 where a workload does not
// cross the layer.
const std::vector<std::pair<const char*, const char*>> kGatedEndToEnd = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"plan_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"lp.solve_ms", "ms"},           {"lp.pivots", "count"},
    {"lp.fallbacks", "count"},       {"lp.colgen_rounds", "count"},
    {"lp.columns_generated", "count"}, {"lp.rows_active", "count"},
    {"lp.factor_fill", "count"},     {"lp.btran_ms", "ms"},
    {"lp.ftran_ms", "ms"},           {"lp.factor_ms", "ms"},
    {"lp.pricing_ms", "ms"},         {"lp.certify_ms", "ms"},
    {"lp.warm_pivots", "count"},     {"core.build_ms", "ms"},
    {"core.lp_rows", "count"},       {"core.lp_cols", "count"},
    {"core.extract_ms", "ms"},       {"core.trees", "count"},
    {"core.schedule_ms", "ms"},      {"core.activities", "count"},
    {"core.period_digits", "digits"}, {"exec.compile_ms", "ms"},
    {"exec.transfers", "count"},     {"exec.chunks_per_period", "count"},
    {"sim.twin_ms", "ms"},           {"sim.chunk_admissions", "count"},
    {"sim.chunks_per_s", "1/s"},     {"sim.wire_mb", "MB"},
    {"service.exact_hits", "count"}, {"service.warm_hits", "count"},
    {"service.cold_solves", "count"}, {"service.dedup", "count"},
    {"service.shed", "count"},       {"service.hit_ratio", "ratio"},
    {"service.hit_ms_p50", "ms"},    {"service.warm_ms_p50", "ms"},
    {"service.cold_ms_p50", "ms"},   {"platform.fingerprint_us", "us"},
    {"obs.snapshot_us", "us"},       {"client.self_ms", "ms"},
    {"lp.self_ms", "ms"},            {"core.self_ms", "ms"},
    {"exec.self_ms", "ms"},          {"sim.self_ms", "ms"},
    {"service.self_ms", "ms"},       {"platform.self_ms", "ms"},
    {"obs.self_ms", "ms"},           {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},        {"host.probe_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string references = "perfbench/references.txt";
  std::string out = ".bench_build/perfbench/out";
  bool print_references = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-references") {
      a.print_references = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--references") {
      a.references = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return a.print_references || (!a.workload.empty() && a.seconds > 0);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

/// Picks `wanted` out of `have` in the listed order (0 when absent).
std::vector<Metric> select(
    const std::vector<Metric>& have,
    const std::vector<std::pair<const char*, const char*>>& wanted) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : wanted) {
    double v = 0;
    for (const Metric& m : have) {
      if (m.name == name) v = m.value;
    }
    out.push_back({name, v, unit});
  }
  return out;
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Metrics at reference host speed (host_probe.h): durations times
/// `scale`, rates divided by it; counts, ratios and memory unchanged.
std::vector<Metric> at_reference_speed(std::vector<Metric> metrics,
                                       double scale) {
  for (Metric& m : metrics) {
    if (m.unit == "ms" || m.unit == "s") m.value *= scale;
    if (m.unit == "1/s") m.value /= scale;
  }
  return metrics;
}

int run(const Args& a) {
  const References refs = load_references(a.references);
  const HostProbe probe;

  // Set-up, kSetups times; the median is setup_s, the last one is measured.
  HostProbe::Runner setup_probe(probe);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetups; ++rep) {
    workload.reset();
    setup_probe.slices(kSetupSlices);
    const auto t = Clock::now();
    workload = make_workload(a.workload, a.seed, refs);
    setup_s.push_back(ms_since(t) * 1e-3);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
  }
  const double setup_scale = workload->host_scaled()
                                 ? host_scale(setup_probe.slices_ms())
                                 : 1.0;

  const WindowResult validated = workload->prepare();
  WindowResult result = workload->run(a.seconds, a.trace, probe);
  result.add_gate(validated);
  std::vector<Metric> layer;
  if (a.trace) {
    layer = result.per_layer;
    // Raw rates: the stretches interleave, so host drift hits both alike.
    const double traced_rps =
        static_cast<double>(result.traced_completed) / result.traced_seconds;
    const double plain_rps =
        static_cast<double>(result.plain_completed) / result.plain_seconds;
    const double requests = static_cast<double>(
        std::max<std::size_t>(1, result.traced_attempted));
    for (const auto& [name, ms] : Spans::self_ms_by_layer()) {
      layer.push_back({name + ".self_ms", ms / requests, "ms"});
    }
    const double overhead_pct =
        traced_rps > 0 ? 100.0 * (plain_rps / traced_rps - 1.0) : 0.0;
    layer.push_back({"trace.overhead_pct", overhead_pct, "%"});
    layer.push_back(
        {"trace.spans", static_cast<double>(Spans::count()), "count"});
    layer.push_back({"host.probe_ms", quantile(result.probe_ms, 0.5), "ms"});
    std::filesystem::create_directories(a.out);
    const std::string path = a.out + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".trace.json";
    if (!Spans::write_chrome(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", Spans::count(), path.c_str());
    std::printf("tracing overhead: %.2f%% (untraced %.3f vs traced %.3f "
                "requests/s, raw)\n",
                overhead_pct, plain_rps, traced_rps);
  }

  std::sort(setup_s.begin(), setup_s.end());
  const double setup_raw = setup_s[setup_s.size() / 2];
  std::vector<Metric> raw = result.end_to_end;
  raw.push_back({"failed_ratio",
                 static_cast<double>(result.failed()) /
                     static_cast<double>(
                         std::max<std::size_t>(1, result.attempted)),
                 "ratio"});
  raw.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  const double scale = host_scale(result.probe_ms);
  std::vector<Metric> e2e = at_reference_speed(raw, scale);
  raw.insert(raw.begin(), {"setup_s", setup_raw, "s"});
  e2e.insert(e2e.begin(), {"setup_s", setup_raw * setup_scale, "s"});

  std::printf("workload %s seed %llu: %.2f s window, %zu attempted, %zu "
              "failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              result.seconds, result.attempted, result.failed());
  for (const auto& [reason, n] : result.failures) {
    std::printf("  failed: %-28s %zu\n", reason.c_str(), n);
  }
  for (const std::string& w : result.wrong) {
    std::printf("  wrong output: %s\n", w.c_str());
  }
  if (workload->host_scaled()) {
    std::printf("host probe: window median slice %.3f ms over %zu slices -> "
                "scale %.4f; set-up median slice %.3f ms over %zu slices -> "
                "scale %.4f (reference %.1f ms)\n",
                quantile(result.probe_ms, 0.5), result.probe_ms.size(), scale,
                quantile(setup_probe.slices_ms(), 0.5),
                setup_probe.slices_ms().size(), setup_scale,
                kReferenceSliceMs);
  } else {
    std::printf("host probe: not used, times are raw\n");
  }
  if (workload->host_scaled()) {
    print_metrics("end-to-end, reference host speed", e2e);
  }
  print_metrics("end-to-end, raw wall clock", raw);
  if (a.trace) print_metrics("per-layer", select(layer, kPerLayer));

  std::filesystem::create_directories(a.out);
  std::ofstream(a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                "-trace" + (a.trace ? "1" : "0") + ".json")
      << "{\"end_to_end\": " << metrics_json(e2e)
      << ", \"end_to_end_raw\": " << metrics_json(raw)
      << ", \"per_layer\": " << metrics_json(layer) << "}\n";

  const std::vector<Metric> gated =
      a.trace ? select(layer, kPerLayer) : select(e2e, kGatedEndToEnd);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.wrong.empty() ? "true" : "false", result.attempted,
              result.failed(), metrics_json(gated).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --print-references\n");
    return 2;
  }
  try {
    if (args.print_references) {
      for (const auto& [label, tp] : perfbench::compute_references()) {
        std::printf("%s\t%s\n", label.c_str(), tp.c_str());
      }
      return 0;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
