#!/usr/bin/env python3
"""Validates RCGP telemetry outputs (used by CI and local smoke runs).

Usage:
    check_telemetry.py [--trace trace.jsonl] [--metrics metrics.json]
                       [--profile profile.json] [--prom metrics.prom]

Checks performed:
  trace.jsonl
    - every line is a standalone JSON object with `event` and `seq` fields
    - `seq` is the line index (no dropped or reordered events)
    - improvement events are monotone in the lexicographic fitness order
      (success_rate up; then n_r, n_g, n_b down)
    - the final improvement's fitness matches the run_end fitness
  metrics.json
    - parses as JSON with the {"flow": ..., "metrics": ...} shape the CLI
      emits (or the bare registry shape from the bench drivers)
    - flow phase wall-times sum to within 10% of flow.seconds_total
    - when the λ-parallel evaluation pool ran (evolve.pool.* present):
      thread gauge >= 1, utilization gauge in [0, 1], the per-worker
      evaluation counters sum exactly to evolve.pool.tasks, and
      0 <= evolve.pool.early_rejects <= evolve.pool.tasks
    - when the incremental cost path ran (evolve.cost.* present):
      full_recomputes >= 1 (every CostCache starts with a full build),
      delta_updates >= 0, and the scratch_bytes gauge > 0
    - when an island fleet ran (island.fleets present): migration offers
      split exactly into accepted + rejected, the per-island immigrant
      counters sum to the accepted count, and the islands gauge is >= 1
    - when a batch ran (batch.jobs.* present): settled jobs
      (done + failed + interrupted) never exceed the queued count, the
      per-worker job counters sum exactly to the settled count, the worker
      gauge is >= 1, the running gauge is back to 0, and every per-worker
      utilization gauge is in [0, 1]
  profile.json (Chrome trace-event / Perfetto format, from --profile-out)
    - top level is {"traceEvents": [...]} with at least one event
    - every event has a `ph` type; X (complete) events have a name and
      numeric ts/dur >= 0
    - X events on each tid nest properly: sorted by (ts asc, dur desc),
      a child span never outlives the enclosing span on its thread
    - span_id args are unique and span_parent references resolve to a
      span on the same thread (or 0 for roots)
  metrics.prom (Prometheus text exposition, from --prom-out)
    - every non-comment line parses as `name{labels} value`
    - every sample family is announced by a # TYPE line
    - histogram buckets are cumulative (monotone in le order), the +Inf
      bucket equals _count, and _sum/_count are present per histogram

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def fitness_tuple(event: dict):
    """Lexicographic key; lower is better (success_rate negated)."""
    return (
        -event["success_rate"],
        event["n_r"],
        event["n_g"],
        event["n_b"],
    )


def check_trace(path: str) -> None:
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{i + 1}: not valid JSON: {e}")
            if not isinstance(ev, dict):
                fail(f"{path}:{i + 1}: line is not a JSON object")
            if "event" not in ev or "seq" not in ev:
                fail(f"{path}:{i + 1}: missing 'event' or 'seq'")
            if ev["seq"] != len(events):
                fail(
                    f"{path}:{i + 1}: seq {ev['seq']} != line index "
                    f"{len(events)} (dropped/reordered events?)"
                )
            events.append(ev)
    if not events:
        fail(f"{path}: no events")

    improvements = [e for e in events if e["event"] == "improvement"]
    for prev, cur in zip(improvements, improvements[1:]):
        if fitness_tuple(cur) >= fitness_tuple(prev):
            fail(
                f"{path}: improvement seq {cur['seq']} is not strictly "
                f"better than seq {prev['seq']}"
            )
    run_ends = [e for e in events if e["event"] == "run_end"]
    if improvements and run_ends:
        last, end = improvements[-1], run_ends[-1]
        if fitness_tuple(last) != fitness_tuple(end):
            fail(
                f"{path}: final improvement fitness {fitness_tuple(last)} "
                f"!= run_end fitness {fitness_tuple(end)}"
            )
    print(
        f"check_telemetry: {path}: {len(events)} events, "
        f"{len(improvements)} improvements: OK"
    )


def check_metrics(path: str) -> None:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if "flow" in doc:
        flow = doc["flow"]
        phases = flow.get("phases", {})
        if not phases:
            fail(f"{path}: flow.phases is empty")
        total = flow.get("seconds_total", 0.0)
        phase_sum = sum(phases.values())
        if total > 0.01 and abs(phase_sum - total) > 0.10 * total:
            fail(
                f"{path}: phase sum {phase_sum:.4f}s deviates more than "
                f"10% from seconds_total {total:.4f}s"
            )
        if "metrics" not in doc:
            fail(f"{path}: missing 'metrics' registry snapshot")
        registry = doc["metrics"]
    else:
        # Bare registry dump (bench drivers' RCGP_METRICS_OUT).
        registry = doc
    counters = registry.get("counters", {})
    if not counters:
        fail(f"{path}: no counters recorded")
    check_pool_metrics(path, counters, registry.get("gauges", {}))
    check_cost_metrics(path, counters, registry.get("gauges", {}))
    check_batch_metrics(path, counters, registry.get("gauges", {}))
    check_fuzz_metrics(path, counters, registry.get("gauges", {}))
    check_cache_metrics(path, counters, registry.get("gauges", {}))
    check_serve_metrics(path, counters, registry.get("gauges", {}))
    check_island_metrics(path, counters, registry.get("gauges", {}))
    print(f"check_telemetry: {path}: {len(counters)} counters: OK")


def check_pool_metrics(path: str, counters: dict, gauges: dict) -> None:
    """λ-parallel evaluation pool invariants (docs/PARALLELISM.md)."""
    tasks = counters.get("evolve.pool.tasks")
    if tasks is None:
        return  # run did not use the evaluation pool (e.g. stats command)
    if tasks <= 0:
        fail(f"{path}: evolve.pool.tasks is {tasks}, expected > 0")
    threads = gauges.get("evolve.pool.threads", 0)
    if threads < 1:
        fail(f"{path}: evolve.pool.threads gauge is {threads}, expected >= 1")
    util = gauges.get("evolve.pool.utilization", 0.0)
    if not 0.0 <= util <= 1.0:
        fail(f"{path}: evolve.pool.utilization {util} outside [0, 1]")
    worker_evals = sum(
        v
        for name, v in counters.items()
        if name.startswith("evolve.pool.worker") and name.endswith(".evals")
    )
    if worker_evals != tasks:
        fail(
            f"{path}: per-worker eval counters sum to {worker_evals} but "
            f"evolve.pool.tasks is {tasks}"
        )
    rejects = counters.get("evolve.pool.early_rejects", 0)
    if not 0 <= rejects <= tasks:
        fail(
            f"{path}: evolve.pool.early_rejects {rejects} outside "
            f"[0, evolve.pool.tasks = {tasks}]"
        )
    print(
        f"check_telemetry: {path}: pool ran {tasks} tasks on "
        f"{threads:g} thread(s), {rejects} rejected at word 0: OK"
    )


def check_cost_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Incremental cost-evaluation invariants (docs/COST_EVAL.md)."""
    full = counters.get("evolve.cost.full_recomputes")
    deltas = counters.get("evolve.cost.delta_updates")
    if full is None and deltas is None:
        return  # run never priced a netlist
    if deltas is not None and deltas < 0:
        fail(f"{path}: evolve.cost.delta_updates is {deltas}, expected >= 0")
    # Every CostCache trajectory starts with a full build, so delta traffic
    # without a single full analysis means the counters are wired wrong.
    if (deltas or 0) > 0 and (full or 0) < 1:
        fail(
            f"{path}: evolve.cost.delta_updates is {deltas} but "
            f"full_recomputes is {full}; a cache cannot be warm before "
            f"its first full build"
        )
    if full is not None and full < 1:
        fail(f"{path}: evolve.cost.full_recomputes is {full}, expected >= 1")
    scratch = gauges.get("evolve.cost.scratch_bytes")
    if scratch is not None and scratch <= 0:
        fail(
            f"{path}: evolve.cost.scratch_bytes gauge is {scratch}, "
            f"expected > 0 once any cost was priced"
        )
    print(
        f"check_telemetry: {path}: cost path did {full or 0} full "
        f"recomputes, {deltas or 0} delta updates: OK"
    )


def check_batch_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Batch job-scheduler invariants (docs/BATCH.md)."""
    queued = counters.get("batch.jobs.queued")
    if queued is None:
        return  # run was not a batch
    settled = (
        counters.get("batch.jobs.done", 0)
        + counters.get("batch.jobs.failed", 0)
        + counters.get("batch.jobs.interrupted", 0)
    )
    if settled > queued:
        fail(
            f"{path}: {settled} settled batch jobs exceed the "
            f"{queued} queued"
        )
    worker_jobs = sum(
        v
        for name, v in counters.items()
        if name.startswith("batch.worker") and name.endswith(".jobs")
    )
    if worker_jobs != settled:
        fail(
            f"{path}: per-worker job counters sum to {worker_jobs} but "
            f"{settled} jobs settled"
        )
    workers = gauges.get("batch.workers", 0)
    if workers < 1:
        fail(f"{path}: batch.workers gauge is {workers}, expected >= 1")
    running = gauges.get("batch.jobs.running", 0)
    if running != 0:
        fail(
            f"{path}: batch.jobs.running is {running} after the batch "
            f"finished, expected 0"
        )
    for name, v in gauges.items():
        if name.startswith("batch.worker") and name.endswith(".utilization"):
            if not 0.0 <= v <= 1.0:
                fail(f"{path}: {name} is {v}, outside [0, 1]")
    print(
        f"check_telemetry: {path}: batch settled {settled}/{queued} "
        f"queued jobs on {workers:g} worker(s): OK"
    )


def check_fuzz_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Fuzzing harness invariants (docs/FUZZING.md)."""
    cases = counters.get("fuzz.cases")
    if cases is None:
        return  # run was not a fuzz run
    if cases <= 0:
        fail(f"{path}: fuzz.cases is {cases}, expected > 0")
    target_cases = sum(
        v
        for name, v in counters.items()
        if name.startswith("fuzz.")
        and name.endswith(".cases")
        and name != "fuzz.cases"
    )
    if target_cases != cases:
        fail(
            f"{path}: per-target case counters sum to {target_cases} but "
            f"fuzz.cases is {cases}"
        )
    findings = counters.get("fuzz.findings", 0)
    target_findings = sum(
        v
        for name, v in counters.items()
        if name.startswith("fuzz.")
        and name.endswith(".findings")
        and name != "fuzz.findings"
    )
    if target_findings != findings:
        fail(
            f"{path}: per-target finding counters sum to {target_findings} "
            f"but fuzz.findings is {findings}"
        )
    # Shrinking only ever runs on findings.
    accepted = counters.get("fuzz.shrink.accepted", 0)
    attempts = counters.get("fuzz.shrink.attempts", 0)
    if accepted > attempts:
        fail(
            f"{path}: fuzz.shrink.accepted {accepted} exceeds "
            f"fuzz.shrink.attempts {attempts}"
        )
    if attempts > 0 and findings == 0:
        fail(
            f"{path}: fuzz.shrink.attempts is {attempts} with zero "
            f"findings; the shrinker must only run on failures"
        )
    seconds = gauges.get("fuzz.seconds")
    if seconds is None or seconds < 0:
        fail(f"{path}: fuzz.seconds gauge is {seconds}, expected >= 0")
    print(
        f"check_telemetry: {path}: fuzz ran {cases} cases, "
        f"{findings} findings: OK"
    )


def check_cache_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Result-cache invariants (docs/SERVICE.md)."""
    lookups = counters.get("cache.lookups")
    if lookups is None:
        return  # run never consulted a result cache
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    if hits + misses != lookups:
        fail(
            f"{path}: cache.hits {hits} + cache.misses {misses} != "
            f"cache.lookups {lookups}"
        )
    entries = gauges.get("cache.entries")
    if entries is None or entries < 0:
        fail(f"{path}: cache.entries gauge is {entries}, expected >= 0")
    inserts = counters.get("cache.inserts", 0)
    if inserts > misses:
        # Every insert is preceded by the miss that triggered synthesis
        # (warm-only runs insert without lookups, but then misses == 0 and
        # lookups is absent, so we never reach this check).
        fail(
            f"{path}: cache.inserts {inserts} exceeds cache.misses "
            f"{misses}; hits must never insert"
        )
    failures = counters.get("cache.verify.failures", 0)
    if failures > 0:
        fail(
            f"{path}: cache.verify.failures is {failures}; a healthy "
            f"store must never serve an entry that fails verification"
        )
    print(
        f"check_telemetry: {path}: cache served {hits}/{lookups} lookups "
        f"from {entries:g} entries: OK"
    )


def check_serve_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Synthesis-service invariants (docs/SERVICE.md)."""
    requests = counters.get("serve.requests")
    if requests is None:
        return  # run was not a service
    ok = counters.get("serve.responses.ok", 0)
    errors = counters.get("serve.errors", 0)
    if ok + errors != requests:
        fail(
            f"{path}: serve.responses.ok {ok} + serve.errors {errors} != "
            f"serve.requests {requests}"
        )
    if counters.get("serve.connections", 0) < 1:
        fail(f"{path}: serve.requests > 0 but serve.connections < 1")
    for name in ("serve.active", "serve.connections.active"):
        residual = gauges.get(name, 0)
        if residual != 0:
            fail(
                f"{path}: {name} gauge is {residual} after shutdown, "
                f"expected 0"
            )
    if gauges.get("serve.up", 0) != 0:
        fail(f"{path}: serve.up gauge still set after shutdown")
    print(
        f"check_telemetry: {path}: service answered {requests} requests "
        f"({ok} ok, {errors} errors): OK"
    )


def check_island_metrics(path: str, counters: dict, gauges: dict) -> None:
    """Island-model fleet invariants (docs/ISLANDS.md)."""
    fleets = counters.get("island.fleets")
    if fleets is None:
        return  # run did not drive an island fleet
    if fleets < 1:
        fail(f"{path}: island.fleets is {fleets}, expected >= 1")
    offered = counters.get("island.migrations.offered", 0)
    accepted = counters.get("island.migrations.accepted", 0)
    rejected = counters.get("island.migrations.rejected", 0)
    if accepted + rejected != offered:
        fail(
            f"{path}: island.migrations.accepted {accepted} + rejected "
            f"{rejected} != offered {offered}"
        )
    immigrants = sum(
        v
        for name, v in counters.items()
        if name.startswith("island.island") and name.endswith(".immigrants")
    )
    if immigrants != accepted:
        fail(
            f"{path}: per-island immigrant counters sum to {immigrants} "
            f"but island.migrations.accepted is {accepted}"
        )
    islands = gauges.get("island.islands", 0)
    if islands < 1:
        fail(f"{path}: island.islands gauge is {islands}, expected >= 1")
    print(
        f"check_telemetry: {path}: {fleets} fleet(s) of {islands:g} "
        f"island(s) accepted {accepted}/{offered} migrations: OK"
    )


def check_profile(path: str) -> None:
    """Chrome trace-event (Perfetto-loadable) span profile invariants."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing top-level 'traceEvents' array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents is empty")

    spans = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"{path}: traceEvents[{i}] has no 'ph' event type")
        if ev["ph"] != "X":
            continue
        for key in ("name", "ts", "dur", "tid"):
            if key not in ev:
                fail(f"{path}: X event [{i}] missing '{key}'")
        ts, dur = ev["ts"], ev["dur"]
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: X event [{i}] ts {ts!r} is not a number >= 0")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{path}: X event [{i}] dur {dur!r} is not a number >= 0")
        spans.append(ev)
    if not spans:
        fail(f"{path}: no X (complete) span events")

    # Span identity: unique ids, parents resolve on the same thread.
    tid_of = {}
    for ev in spans:
        sid = ev.get("args", {}).get("span_id")
        if sid is not None:
            if sid in tid_of:
                fail(f"{path}: duplicate span_id {sid}")
            tid_of[sid] = ev["tid"]
    for ev in spans:
        parent = ev.get("args", {}).get("span_parent", 0)
        if parent == 0:
            continue
        if parent not in tid_of:
            fail(f"{path}: span_parent {parent} references no exported span")
        if tid_of[parent] != ev["tid"]:
            fail(
                f"{path}: span_parent {parent} is on tid {tid_of[parent]} "
                f"but the child is on tid {ev['tid']}"
            )

    # Nesting balance per thread: children must end before their parents.
    by_tid = {}
    for ev in spans:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, tspans in sorted(by_tid.items()):
        tspans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in tspans:
            end = ev["ts"] + ev["dur"]
            while stack and ev["ts"] >= stack[-1]:
                stack.pop()
            if stack and end > stack[-1]:
                fail(
                    f"{path}: tid {tid}: span '{ev['name']}' "
                    f"[{ev['ts']}, {end}) outlives its enclosing span "
                    f"(ends {stack[-1]})"
                )
            stack.append(end)
    print(
        f"check_telemetry: {path}: {len(spans)} spans on "
        f"{len(by_tid)} thread(s): OK"
    )


def check_prom(path: str) -> None:
    """Prometheus text exposition format invariants."""
    typed = {}
    samples = []  # (family, labels-dict, value)
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "histogram",
                ):
                    fail(f"{path}:{i + 1}: malformed TYPE line: {line}")
                typed[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            name, labels, value = parse_prom_sample(path, i + 1, line)
            samples.append((name, labels, value))
    if not samples:
        fail(f"{path}: no samples")

    for name, _, _ in samples:
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            fail(f"{path}: sample '{name}' has no # TYPE announcement")

    check_prom_histograms(path, typed, samples)
    print(
        f"check_telemetry: {path}: {len(samples)} samples in "
        f"{len(typed)} families: OK"
    )


def parse_prom_sample(path: str, lineno: int, line: str):
    """Parses `name{k="v",...} value` into (name, labels, float)."""
    rest = line
    labels = {}
    if "{" in line:
        name, rest = line.split("{", 1)
        if "}" not in rest:
            fail(f"{path}:{lineno}: unterminated label set: {line}")
        label_str, rest = rest.split("}", 1)
        for item in label_str.split(","):
            if not item:
                continue
            if "=" not in item:
                fail(f"{path}:{lineno}: malformed label '{item}'")
            k, v = item.split("=", 1)
            if len(v) < 2 or v[0] != '"' or v[-1] != '"':
                fail(f"{path}:{lineno}: label value not quoted: {item}")
            labels[k] = v[1:-1]
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            fail(f"{path}:{lineno}: sample has no value: {line}")
        name, rest = parts
    try:
        value = float(rest.strip())
    except ValueError:
        fail(f"{path}:{lineno}: sample value is not a number: {line}")
    if not name.startswith("rcgp_"):
        fail(f"{path}:{lineno}: sample '{name}' lacks the rcgp_ prefix")
    return name, labels, value


def check_prom_histograms(path: str, typed: dict, samples: list) -> None:
    """Cumulative bucket monotonicity and +Inf == _count per histogram."""
    for family, kind in typed.items():
        if kind != "histogram":
            continue
        buckets = []
        total = None
        has_sum = False
        for name, labels, value in samples:
            if name == family + "_bucket":
                le = labels.get("le")
                if le is None:
                    fail(f"{path}: {family}_bucket sample without 'le' label")
                bound = float("inf") if le == "+Inf" else float(le)
                buckets.append((bound, value))
            elif name == family + "_count":
                total = value
            elif name == family + "_sum":
                has_sum = True
        if not buckets or total is None or not has_sum:
            fail(f"{path}: histogram {family} missing bucket/_sum/_count")
        buckets.sort(key=lambda b: b[0])
        prev = 0.0
        for bound, value in buckets:
            if value < prev:
                fail(
                    f"{path}: {family} bucket le={bound} count {value} "
                    f"is below the previous bucket ({prev}); buckets must "
                    f"be cumulative"
                )
            prev = value
        if buckets[-1][0] != float("inf"):
            fail(f"{path}: histogram {family} has no le=\"+Inf\" bucket")
        if buckets[-1][1] != total:
            fail(
                f"{path}: {family} +Inf bucket {buckets[-1][1]} != "
                f"_count {total}"
            )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="JSONL evolution trace to validate")
    ap.add_argument("--metrics", help="metrics JSON to validate")
    ap.add_argument("--profile", help="Chrome trace-event profile to validate")
    ap.add_argument("--prom", help="Prometheus text exposition to validate")
    args = ap.parse_args()
    if not (args.trace or args.metrics or args.profile or args.prom):
        ap.error(
            "nothing to check: pass --trace, --metrics, --profile, "
            "and/or --prom"
        )
    if args.trace:
        check_trace(args.trace)
    if args.metrics:
        check_metrics(args.metrics)
    if args.profile:
        check_profile(args.profile)
    if args.prom:
        check_prom(args.prom)


if __name__ == "__main__":
    main()
