#!/usr/bin/env python3
"""Build and run the repo benchmark.

One run:

    python3 perfbench/run.py --workload lc-read --seed 1 --seconds 10 --trace 0

builds perfbench/bench.exe from the checkout's sources (dune, release
profile, build tree under .bench_build/), runs it on one workload in a
fresh process, and forwards its output. The last line of standard output
is the benchmark's JSON result. With --trace 1 the run measures the layer
ladder instead and writes its spans to .bench_build/spans/.

Same-code (A/A) check:

    python3 perfbench/run.py --aa --seeds 1,2,3,4,5 --seconds 10

runs every workload on every seed twice, on one build, and prints for
each end-to-end metric the spread of each set (quartile distance over
median) and the shift between the two medians, against the metric's
bound in BENCHMARK.json. It exits non-zero when any run's checks failed
or any spread or shift is beyond its bound.

Run from the root of the checkout. Exits non-zero, without a result line,
when the sources or the toolchain are missing, the build fails, or the
benchmark does not finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "bench.exe")
WORKLOADS = ["lc-read", "fks-zipf-monitor", "lc-dyn-churn"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s next to perfbench/: run from a full checkout" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", os.path.join(BUILD_DIR, "dune"),
        "--profile", "release", "--cache", "disabled", "-j", "2", "./perfbench/bench.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=700)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Run one workload in a fresh process; return its parsed result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           stderr=None if echo else subprocess.DEVNULL,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("%s seed %d exited with code %d" % (workload, seed, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    if echo:
        print("\n".join(lines[:-1]))
    return lines[-1], result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def aa(seeds, seconds):
    """Two sets of runs of the same build; spreads and median shifts."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {}  # (set, workload, metric) -> [values]
    all_correct = True
    for rep in ("A", "B"):
        for seed in seeds:
            for w in WORKLOADS:
                t0 = time.time()
                _, res = run_once(w, seed, seconds, 0, echo=False)
                print("%s %-17s seed %-4d %5.1fs correct=%s %s" % (
                    rep, w, seed, time.time() - t0, res["correct"],
                    " ".join("%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items())),
                    flush=True)
                all_correct = all_correct and res["correct"] is True and res["failed"] == 0
                for name, m in res["metrics"].items():
                    values.setdefault((rep, w, name), []).append(m["value"])
    print("\n%-17s %-14s %13s %13s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "median A", "median B", "spread A", "spread B", "shift", "bound",
        "verdict"))
    ok = all_correct
    for w in WORKLOADS:
        for name, m in bounds.items():
            a, b = values[("A", w, name)], values[("B", w, name)]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            within = worse <= m["bound"] and max(sa, sb) <= m["bound"]
            steady = max(sa, sb) <= m["bound"] / 3
            verdict = "ok" if within and steady else (
                "within bound" if within else "OUT OF BOUND")
            ok = ok and within
            print("%-17s %-14s %13.6g %13.6g %8.4f %8.4f %+8.4f %6.3f  %s" % (
                w, name, ma, mb, sa, sb, worse, m["bound"], verdict))
    if not all_correct:
        print("\nFAILED: at least one run reported failed checks")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--aa", action="store_true", help="same-code check over --seeds")
    p.add_argument("--seeds", default="1,2,3,4,5")
    args = p.parse_args()
    build()
    if args.aa:
        seeds = [int(s) for s in args.seeds.split(",")]
        sys.exit(aa(seeds, args.seconds))
    if args.workload is None:
        fail("--workload is required")
    line, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(line, flush=True)


if __name__ == "__main__":
    main()
