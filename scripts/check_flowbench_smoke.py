#!/usr/bin/env python3
"""Pins the cost sums of the flowbench smoke runs (used by CI).

Costs at fixed seeds are deterministic: bit-identical across thread
counts, SIMD tiers and island placement. So one smoke pass of every
workload at the pinned seed must report 0 failed operations and exactly
the n_r/n_g/n_b/jjs sums in scripts/flowbench_smoke_costs.json. A change
that moves a sum on purpose updates that file and says why.

Usage:
    check_flowbench_smoke.py BENCH_FLOW [--costs FILE]

BENCH_FLOW is the bench_flow binary (e.g. .bench_build/flowbench/bench_flow).
Exits 1 on any mismatch or failed operation.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

SUMS = ("n_r_sum", "n_g_sum", "n_b_sum", "jjs_sum")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to the bench_flow binary")
    ap.add_argument("--costs",
                    default=pathlib.Path(__file__).with_name(
                        "flowbench_smoke_costs.json"),
                    help="committed cost sums (default: %(default)s)")
    args = ap.parse_args()

    pinned = json.loads(pathlib.Path(args.costs).read_text())
    ok = True
    with tempfile.TemporaryDirectory(prefix="flowbench-smoke-") as work:
        for workload, want in pinned["workloads"].items():
            run = subprocess.run(
                [args.bench, f"--workload={workload}",
                 f"--seed={pinned['seed']}", "--passes=1", "--smoke",
                 f"--workdir={work}/{workload}"],
                capture_output=True, text=True, check=False)
            if run.returncode != 0:
                print(f"{workload}: bench_flow exited {run.returncode}\n"
                      f"{run.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(run.stdout)
            got = {k: result["metrics"][k]["value"] for k in SUMS}
            bad = [k for k in SUMS if got[k] != want[k]]
            if result["failed"] != 0:
                bad.append(f"failed={result['failed']}")
            print(f"{workload}: " +
                  " ".join(f"{k}={got[k]:g}" for k in SUMS) +
                  ("  OK" if not bad else f"  MISMATCH {bad} (want {want})"))
            ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
