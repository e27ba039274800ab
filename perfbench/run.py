#!/usr/bin/env python3
"""Builds and runs one workload of the plan -> deploy -> run benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scatter-deploy --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library from src/
plus the benchmark program) into .bench_build/perfbench; later runs
rebuild only what changed. Build output goes to stderr. The last line of
stdout is the JSON result; its metric names are checked against
BENCHMARK.json.

    python3 perfbench/run.py --determinism --workload reduce-exec --seed 1 \
        --seconds 10

runs the traced workload twice at one seed and checks that every lp.*,
core.*, exec.* and sim.* count and efficiency_permille_min repeat exactly;
service.* counts and lp.warm_pivots are printed side by side instead: which
requests dedup, hit or warm-solve depends on thread timing.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--references", os.path.join("perfbench", "references.txt"),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        print("perfbench: workload exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]


def check_result(line, trace):
    """The result line: one JSON object {correct, attempted, failed, metrics}."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = set(want) ^ set(result["metrics"])
        raise ValueError("metrics differ from BENCHMARK.json: %s" % missing)
    return result


def full_metrics(args, trace):
    path = os.path.join(OUT_DIR, "%s-seed%s-trace%d.json"
                        % (args.workload, args.seed, trace))
    with open(path) as f:
        data = json.load(f)
    return {**data["end_to_end"], **data["per_layer"]}


def determinism(args):
    """Two traced runs at one seed must reproduce every work count."""
    runs = []
    for _ in range(2):
        code, _ = run_binary(args, 1)
        if code != 0:
            return code
        runs.append(full_metrics(args, 1))
    ok = True
    for name in sorted(runs[0]):
        a, b = runs[0][name], runs[1].get(name, {})
        if name.startswith("service.") or name == "lp.warm_pivots":
            print("%-28s %14.4f %14.4f  (timing-dependent)"
                  % (name, a["value"], b.get("value", float("nan"))))
            continue
        exact = (name == "efficiency_permille_min" or
                 (name.split(".")[0] in ("lp", "core", "exec", "sim") and
                  a["unit"] in ("count", "digits")))
        if exact:
            same = a["value"] == b.get("value")
            ok = ok and same
            print("%-28s %14.4f %14.4f  %s"
                  % (name, a["value"], b.get("value", float("nan")),
                     "same" if same else "DIFFERENT"))
    print("determinism: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.determinism:
        return determinism(args)
    code, lines = run_binary(args, args.trace)
    if code == 0:
        try:
            check_result(lines[-1] if lines else "", args.trace)
        except ValueError as e:  # json.JSONDecodeError is a ValueError
            print("perfbench: bad result line: %s" % e, file=sys.stderr)
            code, lines = 1, lines[:-1]
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
