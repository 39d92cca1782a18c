#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 flowbench/compare.py OLD NEW

OLD and NEW are files written by collect.py (results/BENCH_flow.json is
the committed baseline). For every workload and end-to-end metric it
prints both medians, the change as a share of the old median (positive =
worse), and both spreads (quartile distance / median). Verdicts:

  ok          within the bound
  better      improved by more than the bound
  REGRESSION  worse by more than the bound
  unresolved  either side spreads wider than the bound, so the runs cannot
              tell; not a failure (but every new run beating every old run
              still counts as better)
  CHANGED     a cost sum differs; with the same seeds on both sides costs
              are compared seed by seed and must match exactly

time_to_target_s (table workloads) is judged like suite_s. Exits 1 on a
REGRESSION, a CHANGED cost, or a higher share of failed operations.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COSTS = ("n_r_sum", "n_g_sum", "n_b_sum", "jjs_sum")


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def series(results, name):
    """(seed, value) of a metric over runs; top-level keys are allowed."""
    out = []
    for r in results:
        if name in r["metrics"]:
            out.append((r["seed"], r["metrics"][name]["value"]))
        elif name in r:
            out.append((r["seed"], r[name]))
    return out


def verdict(name, old, new, bound, lower_is_better):
    ov = [v for _, v in old]
    nv = [v for _, v in new]
    om, nm = statistics.median(ov), statistics.median(nv)
    change = (nm - om) / om if om else 0.0
    worse_by = change if lower_is_better else -change
    if name in COSTS:
        if {s for s, _ in old} == {s for s, _ in new}:
            changed = dict(old) != dict(new)
        else:
            changed = abs(change) > bound
        return om, nm, worse_by, "CHANGED" if changed else "ok"
    beats = (max(nv) < min(ov)) if lower_is_better else (min(nv) > max(ov))
    if max(spread(ov), spread(nv)) > bound:
        return om, nm, worse_by, "better" if beats else "unresolved"
    if worse_by > bound:
        return om, nm, worse_by, "REGRESSION"
    if worse_by < -bound:
        return om, nm, worse_by, "better"
    return om, nm, worse_by, "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old_runs = json.loads(Path(sys.argv[1]).read_text())["runs"]
    new_runs = json.loads(Path(sys.argv[2]).read_text())["runs"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in benchmark["end_to_end"]]
    suite_bound = next(b for n, b, _ in metrics if n == "suite_s")
    metrics.append(("time_to_target_s", suite_bound, True))

    failed = False
    for workload in old_runs:
        if workload not in new_runs:
            print(f"{workload}: missing from {sys.argv[2]}")
            failed = True
            continue
        old, new = old_runs[workload], new_runs[workload]
        fail_old = sum(r["failed"] for r in old) / max(1, sum(r["attempted"] for r in old))
        fail_new = sum(r["failed"] for r in new) / max(1, sum(r["attempted"] for r in new))
        print(f"\n{workload}: {len(old)} vs {len(new)} runs, failed ops "
              f"{fail_old:.4f} -> {fail_new:.4f}")
        if fail_new > fail_old:
            print("  FAILED-OP SHARE ROSE")
            failed = True
        print(f"  {'metric':18} {'old':>13} {'new':>13} {'change':>8} "
              f"{'spread':>15} {'bound':>6}  verdict")
        for name, bound, lower in metrics:
            o, n = series(old, name), series(new, name)
            if not o or not n:
                continue
            om, nm, worse_by, v = verdict(name, o, n, bound, lower)
            spreads = f"{spread([x for _, x in o]):.3f}/{spread([x for _, x in n]):.3f}"
            print(f"  {name:18} {om:13.6g} {nm:13.6g} {worse_by:+8.3f} "
                  f"{spreads:>15} {bound:6}  {v}")
            failed = failed or v in ("REGRESSION", "CHANGED")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
