// The closed-loop cold library-path workloads: scatter-deploy, reduce-colgen
// and reduce-exec. One client sends one request at a time; a request runs
// LP build + solve + certificate, then trees / schedule / compile, then
// (scatter-deploy, reduce-exec) the event twin. The plan service is
// bypassed. Every request passes the correctness gate.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "core/steady_state.h"
#include "exec/program.h"
#include "graph/rng.h"
#include "host_probe.h"
#include "instances.h"
#include "sim/event_exec.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ssco::num::Rational;

/// Twin efficiency band of the correctness gate: a plan must reach at
/// least (1 - kEfficiencyLoss) of its certified rate, and may exceed it
/// only by float rounding (kEfficiencyExcess).
constexpr double kEfficiencyLoss = 0.05;
constexpr double kEfficiencyExcess = 0.001;

/// Intra-solve thread budget: one thread, as drift-serve's workers use
/// (perfbench/README.md, Seeds).
constexpr std::size_t kSolveThreads = 1;

/// Host-probe slices after each request (host_probe.h).
constexpr std::size_t kProbeSlices = 3;

/// One instance of a workload's fixed set.
struct Job {
  std::string label;
  bool reduce = false;
  bool twin = false;
  ssco::platform::ScatterInstance scatter;
  ssco::platform::ReduceInstance red;
  std::string reference;  // exact TP, empty when none is stored
};

/// Deterministic work counts of one request, read from the returned
/// structs. Repeats of an instance must reproduce them exactly.
struct Counts {
  std::string tp;
  std::string method;
  std::size_t pivots = 0;
  std::size_t colgen_rounds = 0;
  std::size_t columns_generated = 0;
  std::size_t rows_active = 0;
  std::size_t factor_fill = 0;
  std::size_t trees = 0;
  std::size_t activities = 0;
  std::size_t period_digits = 0;
  std::size_t transfers = 0;
  std::size_t chunks_per_period = 0;
  std::size_t chunk_admissions = 0;  // computed: chunks/period x periods
  std::uint64_t wire_bytes = 0;
  double efficiency = 0.0;
  bool twin_ran = false;
  bool operator==(const Counts&) const = default;
};

/// Wall times of one request's layers (ms) plus its end-to-end stamps.
struct Timing {
  double plan = -1, deploy = -1, run = -1;  // -1: stage not reached
  double build = 0, solve = 0, extract = 0, schedule = 0, compile = 0,
         twin = 0;
  double btran = 0, ftran = 0, factor = 0, pricing = 0, certify = 0;
  std::size_t lp_rows = 0, lp_cols = 0;
};

struct Outcome {
  std::size_t job = 0;
  Timing t;
  Counts c;
  std::string failure;  // empty when the request passed the gate
  bool wrong = false;   // the failure is a wrong output
  std::string detail;
  bool traced = false;  // served in a traced stretch
};

bool is_fallback(const std::string& method) {
  const std::string ok = "+certificate";
  return method.size() < ok.size() ||
         method.compare(method.size() - ok.size(), ok.size(), ok) != 0 ||
         method.rfind("colgen-fallback", 0) == 0;
}

std::size_t chunks_of(const ssco::exec::ExecProgram& prog) {
  std::size_t n = 0;
  for (const auto& t : prog.transfers) n += t.chunks.size();
  for (const auto& c : prog.comps) n += c.slices.size();
  return n;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

class ColdPath final : public Workload {
 public:
  ColdPath(std::vector<Job> jobs, std::uint64_t seed)
      : jobs_(std::move(jobs)), order_(seed), first_(jobs_.size()) {}

  /// Runs `job` once outside any window: the set-up warm-up.
  void warm_up(const Job& job) {
    Outcome o = serve(job, false, true);
    if (!o.failure.empty()) {
      throw std::runtime_error("warm-up request failed: " + o.failure + " " +
                               o.detail);
    }
  }

  WindowResult prepare() override {
    WindowResult w;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      Spans::set_request(++request_id_);
      Outcome o = serve(jobs_[j], false, true);
      check_repeat(j, o);
      gate(w, j, o);
    }
    return w;
  }

  WindowResult run(double seconds, bool traced,
                   const HostProbe& probe) override {
    WindowResult w;
    std::vector<Outcome> outcomes;
    // Probe slices run between requests; their time is not window time.
    HostProbe::Runner prober(probe);
    double busy_ms = 0.0;
    std::vector<std::size_t> perm(jobs_.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    // Whole passes, each in a seeded order; a traced window ends on an
    // even pass count so untraced and traced passes pair up.
    for (std::size_t pass = 0;
         busy_ms < seconds * 1e3 || (traced && pass % 2 != 0); ++pass) {
      const bool traced_pass = traced && traced_stretch(pass);
      Spans::enable(traced_pass);
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[order_.uniform(0, i - 1)]);
      }
      const std::size_t completed = w.completed, attempted = w.attempted;
      double pass_ms = 0.0;
      for (std::size_t j : perm) {
        const auto t = Clock::now();
        Spans::set_request(++request_id_);
        Outcome o = serve(jobs_[j], traced_pass, false);
        pass_ms += ms_since(t);
        o.job = j;
        o.traced = traced_pass;
        check_repeat(j, o);
        gate(w, j, o);
        outcomes.push_back(std::move(o));
        prober.slices(kProbeSlices);
      }
      busy_ms += pass_ms;
      (traced_pass ? w.traced_seconds : w.plain_seconds) += pass_ms * 1e-3;
      (traced_pass ? w.traced_completed : w.plain_completed) +=
          w.completed - completed;
      if (traced_pass) w.traced_attempted += w.attempted - attempted;
    }
    Spans::enable(false);
    w.seconds = busy_ms * 1e-3;
    w.probe_ms = prober.slices_ms();
    report(w, outcomes, traced);
    return w;
  }

 private:
  /// One request through the gate. `validate`: also run the exact plan
  /// validation (done on each instance's request in prepare(); repeats
  /// must then reproduce its counts and TP, which check_repeat enforces).
  Outcome serve(const Job& job, bool traced, bool validate) {
    Outcome o;
    Spans::Scope request("client", "request");
    try {
      if (job.reduce) {
        serve_reduce(job, traced, validate, o);
      } else {
        serve_scatter(job, traced, validate, o);
      }
    } catch (const std::exception& e) {
      o.failure = "exception";
      o.detail = e.what();
    } catch (...) {
      o.failure = "exception";
      o.detail = "non-standard exception";
    }
    return o;
  }

  /// Gate checks shared by both operations once the plan exists.
  static bool check_plan(const Job& job, bool certified, const Rational& tp,
                         Outcome& o) {
    if (!certified) {
      o.failure = "uncertified";
      return false;
    }
    if (job.reference.empty()) {
      o.failure = "no-reference";
      return false;
    }
    if (o.c.tp != job.reference) {
      o.failure = "tp-mismatch";
      o.wrong = true;
      o.detail = tp.to_string() + " != " + job.reference;
      return false;
    }
    return true;
  }

  /// Gate checks on the compiled program and the twin's report.
  static void check_run(const Job& job, const ssco::exec::ExecProgram& prog,
                        const ssco::exec::ExecOptions& opts,
                        Clock::time_point start, Outcome& o) {
    o.c.transfers = prog.transfers.size();
    o.c.chunks_per_period = chunks_of(prog);
    o.c.chunk_admissions =
        o.c.chunks_per_period * (opts.warmup_periods + opts.measure_periods);
    if (!prog.oneport_error.empty()) {
      o.failure = "oneport-error";
      o.wrong = true;
      o.detail = prog.oneport_error;
      return;
    }
    if (!job.twin) return;
    ssco::exec::ExecReport rep;
    {
      Spans::Scope s("sim", "simulate_execution");
      const auto t = Clock::now();
      rep = ssco::sim::simulate_execution(prog, opts);
      o.t.twin = ms_since(t);
    }
    o.t.run = ms_since(start);
    o.c.twin_ran = true;
    o.c.wire_bytes = rep.wire_bytes;
    o.c.efficiency = rep.efficiency;
    if (!rep.ok()) {
      o.failure = "exec-not-ok";
      o.wrong = true;
      o.detail = rep.fault.ok() ? "one-port or delivery errors"
                                : rep.fault.to_string();
    } else if (rep.efficiency > 1.0 + kEfficiencyExcess) {
      o.failure = "efficiency-above-certified";
      o.wrong = true;
      o.detail = std::to_string(rep.efficiency);
    } else if (rep.efficiency < 1.0 - kEfficiencyLoss) {
      o.failure = "efficiency-below-band";
      o.detail = std::to_string(rep.efficiency);
    }
  }

  static void invalid(const std::string& why, Outcome& o) {
    if (why.empty() || !o.failure.empty()) return;
    o.failure = "invalid-plan";
    o.wrong = true;
    o.detail = why;
  }

  static void serve_scatter(const Job& job, bool traced, bool validate,
                            Outcome& o) {
    const auto& inst = job.scatter;
    if (traced) {  // the extra LP build, for core.build_ms / lp size
      Spans::Scope s("core", "build_scatter_lp");
      const auto t = Clock::now();
      const auto model = ssco::core::build_scatter_lp(inst);
      o.t.build = ms_since(t);
      o.t.lp_rows = model.num_rows();
      o.t.lp_cols = model.num_variables();
    }
    const auto start = Clock::now();
    ssco::core::MultiFlow flow;
    {
      Spans::Scope s("lp", "solve_scatter");
      ssco::core::ScatterLpOptions options;
      options.solver.threads = kSolveThreads;
      flow = ssco::core::solve_scatter(inst, options);
    }
    o.t.solve = o.t.plan = ms_since(start);
    o.c.tp = flow.throughput.to_string();
    o.c.method = flow.lp_method;
    o.c.pivots = flow.lp_pivots;
    if (!check_plan(job, flow.certified, flow.throughput, o)) return;

    ssco::core::PeriodicSchedule schedule;
    {
      Spans::Scope s("core", "build_flow_schedule");
      const auto t = Clock::now();
      schedule = ssco::core::build_flow_schedule(inst.platform, flow);
      o.t.schedule = ms_since(t);
    }
    const ssco::exec::ExecOptions opts;
    ssco::exec::ExecProgram prog;
    {
      Spans::Scope s("exec", "compile_flow_program");
      const auto t = Clock::now();
      prog = ssco::exec::compile_flow_program(inst.platform, flow, schedule,
                                              opts);
      o.t.compile = ms_since(t);
    }
    o.t.deploy = ms_since(start);
    count_schedule(schedule, o);
    check_run(job, prog, opts, start, o);
    if (validate) invalid(flow.validate(inst.platform), o);
  }

  static void serve_reduce(const Job& job, bool traced, bool validate,
                           Outcome& o) {
    const auto& inst = job.red;
    if (traced) {
      Spans::Scope s("core", "build_reduce_lp");
      const auto t = Clock::now();
      const auto model = ssco::core::build_reduce_lp(inst);
      o.t.build = ms_since(t);
      o.t.lp_rows = model.num_rows();
      o.t.lp_cols = model.num_variables();
    }
    const auto start = Clock::now();
    ssco::core::ReduceSolution sol;
    {
      Spans::Scope s("lp", "solve_reduce");
      ssco::core::ReduceLpOptions options;
      options.solver.threads = kSolveThreads;
      sol = ssco::core::solve_reduce(inst, options);
    }
    o.t.solve = o.t.plan = ms_since(start);
    const auto& ph = sol.lp_phase_times;
    o.t.btran = ns_to_ms(ph.btran_ns);
    o.t.ftran = ns_to_ms(ph.ftran_ns);
    o.t.factor = ns_to_ms(ph.factor_ns);
    o.t.pricing = ns_to_ms(ph.pricing_ns + ph.pricing_sweep_ns);
    o.t.certify = ns_to_ms(ph.certify_ns);
    o.c.tp = sol.throughput.to_string();
    o.c.method = sol.lp_method;
    o.c.pivots = sol.lp_pivots;
    o.c.colgen_rounds = sol.lp_colgen_rounds;
    o.c.columns_generated = sol.lp_columns_generated;
    o.c.rows_active = sol.lp_rows_active;
    o.c.factor_fill = ph.factor_fill;
    if (!check_plan(job, sol.certified, sol.throughput, o)) return;

    ssco::core::TreeDecomposition trees;
    {
      Spans::Scope s("core", "extract_trees");
      const auto t = Clock::now();
      trees = ssco::core::extract_trees(inst, sol);
      o.t.extract = ms_since(t);
    }
    o.c.trees = trees.trees.size();
    ssco::core::PeriodicSchedule schedule;
    {
      Spans::Scope s("core", "build_reduce_schedule");
      const auto t = Clock::now();
      schedule = ssco::core::build_reduce_schedule(inst, trees);
      o.t.schedule = ms_since(t);
    }
    const ssco::exec::ExecOptions opts;
    ssco::exec::ExecProgram prog;
    {
      Spans::Scope s("exec", "compile_reduce_program");
      const auto t = Clock::now();
      prog = ssco::exec::compile_reduce_program(inst, sol.throughput, schedule,
                                                opts);
      o.t.compile = ms_since(t);
    }
    o.t.deploy = ms_since(start);
    count_schedule(schedule, o);
    check_run(job, prog, opts, start, o);
    if (validate) {
      invalid(sol.validate(inst), o);
      invalid(trees.verify_reconstitution(inst, sol), o);
      for (const auto& tree : trees.trees) invalid(tree.validate(inst), o);
    }
  }

  static void count_schedule(const ssco::core::PeriodicSchedule& schedule,
                             Outcome& o) {
    o.c.activities = schedule.comms.size() + schedule.comps.size();
    std::string digits = schedule.period.num().to_string();
    if (!digits.empty() && digits[0] == '-') digits.erase(0, 1);
    o.c.period_digits = digits.size();
  }

  /// Determinism gate: every repeat of an instance reproduces the counts
  /// of its first request (the validation request) exactly.
  void check_repeat(std::size_t j, Outcome& o) {
    if (!first_[j]) {
      first_[j] = o.c;
      return;
    }
    if (!(*first_[j] == o.c) && o.failure != "exception") {
      o.failure = "nondeterministic";
      o.wrong = true;
      o.detail = "counts differ from the first request of this instance";
    }
  }

  void gate(WindowResult& w, std::size_t j, const Outcome& o) const {
    ++w.attempted;
    if (o.failure.empty()) {
      ++w.completed;
    } else if (o.wrong) {
      w.wrong_output(o.failure, jobs_[j].label + " " + o.detail);
    } else {
      w.fail(o.failure);
    }
  }

  void report(WindowResult& w, const std::vector<Outcome>& outcomes,
              bool traced) const;

  std::vector<Job> jobs_;
  ssco::graph::Rng order_;
  std::vector<std::optional<Counts>> first_;
  std::uint64_t request_id_ = 0;
};

void ColdPath::report(WindowResult& w, const std::vector<Outcome>& outcomes,
                      bool traced) const {
  std::vector<double> plan, deploy, run;
  double eff_min = 2.0;
  bool any_twin = false;
  for (const Outcome& o : outcomes) {
    if (o.t.plan >= 0) plan.push_back(o.t.plan);
    if (o.t.deploy >= 0) deploy.push_back(o.t.deploy);
    if (o.t.run >= 0) run.push_back(o.t.run);
    if (o.c.twin_ran) {
      any_twin = true;
      eff_min = std::min(eff_min, o.c.efficiency);
    }
  }
  auto& e = w.end_to_end;
  e.push_back({"requests_per_s", static_cast<double>(w.completed) / w.seconds,
               "1/s"});
  e.push_back({"plan_ms_p50", quantile(plan, 0.5), "ms"});
  e.push_back({"plan_ms_samples", static_cast<double>(plan.size()), "count"});
  if (!deploy.empty()) {
    e.push_back({"deploy_ms_p50", quantile(deploy, 0.5), "ms"});
    e.push_back({"deploy_ms_samples", static_cast<double>(deploy.size()),
                 "count"});
  }
  if (!run.empty()) {
    e.push_back({"run_ms_p50", quantile(run, 0.5), "ms"});
    e.push_back({"run_ms_samples", static_cast<double>(run.size()), "count"});
  }
  if (any_twin) {
    e.push_back({"efficiency_permille_min", 1000.0 * eff_min, "permille"});
  }
  if (!traced) return;

  // Per-layer: times are per-request medians over the traced passes;
  // counts are sums over the instance set (one request each, from
  // prepare()), so they repeat exactly.
  std::vector<const Outcome*> traced_outcomes;
  for (const Outcome& o : outcomes) {
    if (o.traced) traced_outcomes.push_back(&o);
  }
  auto median_of = [&](double Timing::*field) {
    std::vector<double> v;
    for (const Outcome* o : traced_outcomes) v.push_back(o->t.*field);
    return quantile(v, 0.5);
  };
  auto& l = w.per_layer;
  l.push_back({"lp.solve_ms", median_of(&Timing::solve), "ms"});
  l.push_back({"lp.btran_ms", median_of(&Timing::btran), "ms"});
  l.push_back({"lp.ftran_ms", median_of(&Timing::ftran), "ms"});
  l.push_back({"lp.factor_ms", median_of(&Timing::factor), "ms"});
  l.push_back({"lp.pricing_ms", median_of(&Timing::pricing), "ms"});
  l.push_back({"lp.certify_ms", median_of(&Timing::certify), "ms"});
  l.push_back({"core.build_ms", median_of(&Timing::build), "ms"});
  l.push_back({"core.extract_ms", median_of(&Timing::extract), "ms"});
  l.push_back({"core.schedule_ms", median_of(&Timing::schedule), "ms"});
  l.push_back({"exec.compile_ms", median_of(&Timing::compile), "ms"});
  l.push_back({"sim.twin_ms", median_of(&Timing::twin), "ms"});

  Counts sum;  // sums, except the maxima of factor fill and period digits
  std::size_t fallbacks = 0, lp_rows = 0, lp_cols = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (!first_[j]) continue;
    const Counts& c = *first_[j];
    sum.pivots += c.pivots;
    sum.colgen_rounds += c.colgen_rounds;
    sum.columns_generated += c.columns_generated;
    sum.rows_active += c.rows_active;
    sum.factor_fill = std::max(sum.factor_fill, c.factor_fill);
    sum.trees += c.trees;
    sum.activities += c.activities;
    sum.period_digits = std::max(sum.period_digits, c.period_digits);
    sum.transfers += c.transfers;
    sum.chunks_per_period += c.chunks_per_period;
    sum.wire_bytes += c.wire_bytes;
    if (!c.method.empty() && is_fallback(c.method)) ++fallbacks;
  }
  double admissions = 0, twin_s = 0;
  std::vector<bool> sized(jobs_.size());
  for (const Outcome* o : traced_outcomes) {
    if (o->t.twin > 0) {
      admissions += static_cast<double>(o->c.chunk_admissions);
      twin_s += o->t.twin * 1e-3;
    }
    if (!sized[o->job]) {
      sized[o->job] = true;
      lp_rows += o->t.lp_rows;
      lp_cols += o->t.lp_cols;
    }
  }
  std::size_t admissions_per_set = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (first_[j] && jobs_[j].twin) {
      admissions_per_set += first_[j]->chunk_admissions;
    }
  }
  auto count = [&](const char* name, double v) {
    l.push_back({name, v, "count"});
  };
  count("lp.pivots", static_cast<double>(sum.pivots));
  count("lp.fallbacks", static_cast<double>(fallbacks));
  count("lp.colgen_rounds", static_cast<double>(sum.colgen_rounds));
  count("lp.columns_generated", static_cast<double>(sum.columns_generated));
  count("lp.rows_active", static_cast<double>(sum.rows_active));
  count("lp.factor_fill", static_cast<double>(sum.factor_fill));
  count("core.lp_rows", static_cast<double>(lp_rows));
  count("core.lp_cols", static_cast<double>(lp_cols));
  count("core.trees", static_cast<double>(sum.trees));
  count("core.activities", static_cast<double>(sum.activities));
  l.push_back({"core.period_digits", static_cast<double>(sum.period_digits),
               "digits"});
  count("exec.transfers", static_cast<double>(sum.transfers));
  count("exec.chunks_per_period", static_cast<double>(sum.chunks_per_period));
  count("sim.chunk_admissions", static_cast<double>(admissions_per_set));
  l.push_back({"sim.chunks_per_s", twin_s > 0 ? admissions / twin_s : 0.0,
               "1/s"});
  l.push_back({"sim.wire_mb", static_cast<double>(sum.wire_bytes) * 1e-6,
               "MB"});
}

std::vector<Job> scatter_jobs() {
  std::vector<Job> jobs;
  // An odd count puts plan_ms_p50 inside one instance's samples rather
  // than on the edge between two instances.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    Job j;
    j.label = label("sparse-scatter", 128, 16, s);
    j.scatter = bench_support::random_sparse_scatter_instance(s, 128, 16);
    j.twin = true;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

Job reduce_job(std::size_t n, std::size_t p, std::uint64_t seed, bool twin) {
  Job j;
  j.label = label("sparse-reduce", n, p, seed);
  j.reduce = true;
  j.twin = twin;
  j.red = bench_support::random_sparse_reduce_instance(seed, n, p);
  return j;
}

std::vector<Job> with_refs(std::vector<Job> jobs, const References& refs) {
  for (Job& j : jobs) {
    auto it = refs.find(j.label);
    if (it != refs.end()) j.reference = it->second;
  }
  return jobs;
}

/// n=128 only: with n=256 seed 1 (an 11 s solve) in the set, a window held
/// a single request of the median instance and plan_ms_p50 spread 0.28
/// between runs; three instances give three passes, so plan_ms_p50 is the
/// middle of three solves of one instance.
std::vector<Job> colgen_jobs() {
  std::vector<Job> jobs;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    jobs.push_back(reduce_job(128, 8, s, false));
  }
  return jobs;
}

std::vector<Job> exec_jobs() {
  std::vector<Job> jobs;
  for (const auto& [n, p] : {std::pair<std::size_t, std::size_t>{16, 4},
                             {16, 6},
                             {24, 4}}) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      jobs.push_back(reduce_job(n, p, s, true));
    }
  }
  return jobs;
}

}  // namespace

std::unique_ptr<Workload> make_cold_workload(const std::string& name,
                                             std::uint64_t seed,
                                             const References& refs) {
  std::vector<Job> jobs;
  Job warm;  // a small instance through the same path, outside the window
  if (name == "scatter-deploy") {
    jobs = with_refs(scatter_jobs(), refs);
    warm.label = "warm-up";
    warm.scatter = bench_support::random_sparse_scatter_instance(1, 32, 8);
    warm.twin = true;
  } else if (name == "reduce-colgen") {
    jobs = with_refs(colgen_jobs(), refs);
    warm = reduce_job(32, 4, 1, false);
  } else if (name == "reduce-exec") {
    jobs = with_refs(exec_jobs(), refs);
    warm = reduce_job(16, 4, 3, true);
  } else {
    return nullptr;
  }
  // The warm-up's TP is checked against a fresh solve of its own instance.
  if (warm.reduce) {
    warm.reference = ssco::core::solve_reduce(warm.red).throughput.to_string();
  } else {
    warm.reference =
        ssco::core::solve_scatter(warm.scatter).throughput.to_string();
  }
  auto w = std::make_unique<ColdPath>(std::move(jobs), seed);
  w->warm_up(warm);
  return w;
}

std::vector<std::pair<std::string, std::string>> compute_references() {
  std::vector<std::pair<std::string, std::string>> out;
  std::vector<Job> all = scatter_jobs();
  for (auto* set : {&colgen_jobs, &exec_jobs}) {
    for (Job& j : (*set)()) all.push_back(std::move(j));
  }
  for (const Job& j : all) {
    const Rational tp =
        j.reduce ? ssco::core::solve_reduce(j.red).throughput
                 : ssco::core::solve_scatter(j.scatter).throughput;
    out.emplace_back(j.label, tp.to_string());
    std::fprintf(stderr, "%s %s\n", j.label.c_str(), tp.to_string().c_str());
  }
  return out;
}

}  // namespace perfbench
