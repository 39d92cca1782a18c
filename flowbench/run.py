#!/usr/bin/env python3
"""Builds bench_flow from source and runs one benchmark workload.

    python3 flowbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--out FILE]

The first run configures and builds the benchmark (CMake, Release) into
.bench_build/flowbench under the repository root; later runs only check
that the build is current. bench_flow then runs from the repository root
for about S seconds. Its result line is checked against BENCHMARK.json
(every end-to-end metric with --trace 0, every per-layer metric with
--trace 1, each with its declared unit) and printed as the last line of
stdout. --out keeps bench_flow's full result (per-job costs included) for
collect.py and compare.py. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "flowbench"
# Relative to ROOT, where bench_flow runs: the daemon socket lives in here
# and Unix socket paths are limited to 107 bytes.
WORK = Path(".bench_build") / "flowbench-work"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_flow",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "bench_flow"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        fail("a metric value is not a number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write bench_flow's full result here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--workdir={workdir}"]
    if args.trace:
        cmd.append("--traced")
    if args.out:
        cmd.append(f"--out={Path(args.out).resolve()}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_flow did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    if proc.returncode:
        fail(f"bench_flow exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("bench_flow printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unreadable result line: {e}")
    check(result, expected_metrics(args.trace))
    print(lines[-1])


if __name__ == "__main__":
    main()
