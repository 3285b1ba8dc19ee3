#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print the result.

Builds the measuring binary (perfbench/CMakeLists.txt) from the
checkout it sits in, runs one workload and prints one JSON result as
the last line of standard output:

    python3 perfbench/run.py --workload evset-cloud --seed 1 \
        --seconds 25 --trace 0

Steadiness mode runs every workload in two sets of runs separated in
time and reports, per metric, each set's median and spread and whether
the two sets agree within the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steadiness

perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "llcf_perfbench")
RUNS_DIR = os.path.join(BUILD, "runs")
SPEC = os.path.join(REPO, "BENCHMARK.json")

BUILD_TIMEOUT_S = 850
STEADY_RUNS = 10   # steadiness: runs per workload per set
STEADY_GAP_S = 60  # steadiness: pause between the two sets
RUN_DEADLINE_S = 175  # every run must end within 180 s of starting


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once) and build; False when either step fails."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache) and configured_source(cache) != BENCH_DIR:
        shutil.rmtree(BUILD)  # a build tree from another checkout
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            if not os.path.exists(BINARY):
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return os.path.exists(BINARY)


def steal_ticks():
    """Host-wide stolen CPU ticks from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace, deadline):
    """Run the binary once; returns (result dict or None, record)."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    out = os.path.join(RUNS_DIR, tag + ".result.json")
    spans = os.path.join(RUNS_DIR, tag + ".spans.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    if trace:
        cmd += ["--spans-out", spans]
    env = dict(os.environ, LLCF_COUNTERS="1", LLCF_THREADS="1")
    steal0 = steal_ticks()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: {tag} exceeded its deadline")
        return None, None
    wall = time.monotonic() - t0
    steal1 = steal_ticks()
    try:
        with open(out) as f:
            result = json.load(f)
    except (OSError, ValueError):
        log(f"perfbench: {tag} exited {code} without a result")
        return None, None
    record = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "seconds": seconds, "exit_code": code, "wall_s": wall,
        "host": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "steal_ticks": (steal1 - steal0
                            if steal0 is not None and steal1 is not None
                            else None),
            "probe_ms": result["diagnostics"]["host_probe_ms"]["value"],
        },
        "result": result,
    }
    with open(os.path.join(RUNS_DIR, tag + ".record.json"), "w") as f:
        json.dump(record, f, indent=1)
    return result, record


def result_line(result):
    return {k: result[k] for k in ("correct", "attempted", "failed")} | {
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()}}


def main_run(args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not build():
        return 1
    result, record = run_once(args.workload, args.seed, args.seconds,
                              args.trace, deadline)
    if result is None:
        return 1
    log("perfbench: host " + json.dumps(record["host"]))
    if not result["correct"]:
        log(f"perfbench: incorrect result: {result['error']}")
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("perfbench: metric set differs from BENCHMARK.json: "
            f"{sorted(result['metrics'])}")
        return 1
    print(json.dumps(result_line(result)))
    return 0 if record["exit_code"] == 0 else 1


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main_steadiness():
    with open(SPEC) as f:
        spec = json.load(f)
    if not build():
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = []
    for s in range(2):
        if s:
            log(f"perfbench: waiting {STEADY_GAP_S} s before the second set")
            time.sleep(STEADY_GAP_S)
        runs = {}
        for w in workloads:
            runs[w] = []
            for i in range(STEADY_RUNS):
                seed = 1 + 100 * s + i
                result, record = run_once(w, seed, seconds, False,
                                          time.monotonic() + RUN_DEADLINE_S)
                if result is None or not result["correct"]:
                    log(f"perfbench: {w} seed {seed} failed")
                    return 1
                runs[w].append(record)
                log(f"perfbench: set {s + 1} {w} seed {seed}: wall "
                    f"{record['wall_s']:.1f} s, host "
                    f"{json.dumps(record['host'])}")
        sets.append(runs)

    all_agree = True
    for w in workloads:
        print(f"\n{w}  (runs per set: {STEADY_RUNS}, {seconds} s each)")
        print(f"  {'metric':<20} {'set1 median':>14} {'iqr%':>7} "
              f"{'set2 median':>14} {'iqr%':>7} {'worse%':>7} "
              f"{'bound%':>7}  agree")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["result"]["metrics"][name]["value"] for r in runs[w]]
                    for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            change = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
            worse = change if m["better"] == "lower" else -change
            agree = worse <= bound and max(spreads) <= bound
            all_agree &= agree
            print(f"  {name:<20} {meds[0]:>14.6g} {100 * spreads[0]:>7.2f} "
                  f"{meds[1]:>14.6g} {100 * spreads[1]:>7.2f} "
                  f"{100 * worse:>7.2f} {100 * bound:>7.1f}  "
                  f"{'yes' if agree else 'NO'}")
        for s, runs in enumerate(sets):
            probes = [r["host"]["probe_ms"] for r in runs[w]]
            steal = [r["host"]["steal_ticks"] for r in runs[w]]
            print(f"  set {s + 1} host: probe ms {min(probes):.2f}-"
                  f"{max(probes):.2f}, steal ticks {steal}")
    print(f"\nsets agree within bounds: {'yes' if all_agree else 'NO'}")
    return 0 if all_agree else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--steadiness", action="store_true",
                   help="two sets of runs of every workload, compared")
    args = p.parse_args()
    if args.steadiness:
        return main_steadiness()
    if (args.workload is None or args.seed is None or args.seed < 0 or
            args.seconds is None or args.seconds < 1 or args.trace is None):
        p.error("--workload, --seed, --seconds and --trace are required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
