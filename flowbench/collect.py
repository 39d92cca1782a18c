#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

    python3 flowbench/collect.py --runs 10 --out FILE [--seed0 N]
                                 [--workloads a,b] [--seconds S] [--trace]
    python3 flowbench/collect.py --smoke --bench PATH

Each round runs every workload once through run.py, the way an
automated benchmark run calls it, with another seed per round (seed0,
seed0+1, ...).
The table printed per workload gives every metric's median and its
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound in BENCHMARK.json. FILE collects the full results for
compare.py.

--smoke runs every workload once at tiny budgets through a given
bench_flow binary, untraced and traced, and fails unless no operation
failed, every replay matched production, and compare.py accepts the
results compared with themselves.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def run_once(workload, seed, seconds, trace, bench=None, smoke=False):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        if bench:
            cmd = [bench, f"--workload={workload}", f"--seed={seed}",
                   f"--out={out}", f"--workdir={Path(tmp) / 'work'}"]
            cmd += ["--smoke", "--passes=2"] if smoke else [f"--seconds={seconds:g}"]
            if trace:
                cmd.append("--traced")
        else:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", f"{seconds:g}",
                   "--trace", "1" if trace else "0", "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        if proc.returncode:
            raise SystemExit(f"collect.py: {' '.join(cmd)} exited {proc.returncode}")
        return json.loads(out.read_text())


def report(runs, benchmark):
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed ops of "
              f"{sum(r['attempted'] for r in results)})")
        print(f"  {'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            bound = bounds.get(name)
            s = spread(values)
            flag = "" if bound is None or s <= bound / 3 else (
                "  > bound/3" if s <= bound else "  > BOUND")
            print(f"  {name:28} {statistics.median(values):14.6g} {s:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def smoke(bench, benchmark):
    runs = {}
    ok = True
    for w in (w["name"] for w in benchmark["workloads"]):
        untraced = run_once(w, 1, 0, False, bench=bench, smoke=True)
        traced = run_once(w, 1, 0, True, bench=bench, smoke=True)
        identical = traced["metrics"]["trace.replay_identical"]["value"] == 1
        failed = untraced["failed"] + traced["failed"]
        print(f"{w}: failed ops {failed}, replay identical {identical}")
        ok = ok and failed == 0 and identical
        runs[w] = [untraced]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.json"
        path.write_text(json.dumps({"runs": runs}))
        same = subprocess.run([sys.executable, str(HERE / "compare.py"),
                               str(path), str(path)]).returncode == 0
    print(f"compare.py self-comparison: {'accepted' if same else 'REJECTED'}")
    return 0 if ok and same else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bench", help="bench_flow binary (with --smoke)")
    args = ap.parse_args()
    benchmark = load_benchmark()
    if args.smoke:
        if not args.bench:
            ap.error("--smoke needs --bench")
        sys.exit(smoke(args.bench, benchmark))
    if not args.out:
        ap.error("--out is required")

    seconds = args.seconds or benchmark["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in benchmark["workloads"]])
    # Workloads take turns, so a slow spell on the machine lands on all of
    # them instead of on consecutive runs of one.
    runs = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            runs[w].append(run_once(w, args.seed0 + i, seconds, args.trace))
            print(f"{w} seed {args.seed0 + i} done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(
        {"run_seconds": seconds, "traced": args.trace, "runs": runs}, indent=1) + "\n")
    report(runs, benchmark)


if __name__ == "__main__":
    main()
