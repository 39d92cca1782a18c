#!/usr/bin/env bash
# Synthesis-service smoke test (docs/SERVICE.md):
#   1. start `rcgp serve` with a persistent cache and push a mixed manifest
#      through `rcgp client` (cold: every job is synthesized),
#   2. push the same manifest again — the second pass must be >= 99% cache
#      hits and each hit must answer in under a millisecond,
#   3. push it a third time and diff the response netlists byte-for-byte
#      against pass 2 (hit-vs-hit responses are bit-identical; the cold
#      pass legitimately differs in port names, which the canonical store
#      drops),
#   4. push NPN variants of two cached jobs (permuted and complemented
#      inputs, complemented outputs) — each must be answered from the
#      cache through a non-identity transform,
#   5. SIGKILL the daemon, assert the store on disk still verifies (saves
#      are atomic and write-through), restart, and assert the new daemon
#      answers the whole manifest from the persisted cache,
#   6. shut down cleanly (SIGTERM), validate the serve.*/cache.*
#      telemetry invariants with scripts/check_telemetry.py, and check
#      that `rcgp report` prints the service section of those metrics.
#
# Usage: scripts/serve_smoke.sh [path-to-rcgp-binary]
# Tunables: RCGP_SRV_GENERATIONS (per-job budget, default 5000).
set -euo pipefail

RCGP="${1:-./build/src/rcgp}"
GENS="${RCGP_SRV_GENERATIONS:-5000}"

WORKDIR="$(mktemp -d)"
SOCK="$WORKDIR/rcgp.sock"
STORE="$WORKDIR/serve.rcc"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

MANIFEST="$WORKDIR/suite.jsonl"
cat > "$MANIFEST" <<EOF
{"schema":1,"id":"fa",  "circuit":"full_adder",  "generations":$GENS,"seed":7}
{"schema":1,"id":"dec", "circuit":"decoder_2_4", "generations":$GENS,"seed":9}
{"schema":1,"id":"c17", "circuit":"c17",         "generations":$GENS,"seed":3}
{"schema":1,"id":"maj", "spec":["e8"], "spec_vars":3, "generations":$GENS,"seed":5}
EOF
JOBS=4

# NPN variants of cached jobs: 69,2b is full_adder (96,e8) under a
# permutation, an input complement and an output complement (both have
# key 3:69,17); 4d is a variant of maj (e8) (both have key 3:17).
VARIANTS="$WORKDIR/variants.jsonl"
cat > "$VARIANTS" <<EOF
{"schema":1,"id":"fa-npn",  "spec":["69","2b"], "spec_vars":3, "generations":$GENS,"seed":7}
{"schema":1,"id":"maj-npn", "spec":["4d"],      "spec_vars":3, "generations":$GENS,"seed":5}
EOF
VARIANT_JOBS=2

wait_for_socket() {
  for _ in $(seq 100); do
    test -S "$SOCK" && return 0
    sleep 0.1
  done
  echo "FAIL: daemon never bound $SOCK" >&2
  exit 1
}

start_daemon() {
  "$RCGP" serve --socket="$SOCK" --cache="$STORE" --workers=2 "$@" \
    > "$WORKDIR/daemon.out" 2>&1 &
  DAEMON_PID=$!
  wait_for_socket
}

# Summarizes a client response file: "<ok> <cached> <max-hit-seconds>".
summarize() {
  python3 - "$1" <<'PY'
import json, sys
ok = cached = 0
worst_hit = 0.0
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("ok"):
            ok += 1
        if rec.get("cached"):
            cached += 1
            worst_hit = max(worst_hit, rec.get("seconds", 0.0))
print(ok, cached, f"{worst_hit:.6f}")
PY
}

# Projects the netlist payloads for bit-identity diffs between passes.
netlists() {
  python3 - "$1" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if line:
            rec = json.loads(line)
            print(json.dumps({"id": rec["id"], "netlist": rec.get("netlist")},
                             sort_keys=True))
PY
}

echo "== phase 1: cold pass (daemon synthesizes every job)"
start_daemon
"$RCGP" client "$MANIFEST" --socket="$SOCK" > "$WORKDIR/pass1.jsonl"
read -r OK1 CACHED1 _ <<<"$(summarize "$WORKDIR/pass1.jsonl")"
echo "   pass 1: $OK1/$JOBS ok, $CACHED1 cached"
[ "$OK1" -eq "$JOBS" ] || { echo "FAIL: cold pass had failures" >&2; exit 1; }

echo "== phase 2: warm pass (>= 99% cache hits, each under 1 ms)"
"$RCGP" client "$MANIFEST" --socket="$SOCK" > "$WORKDIR/pass2.jsonl"
read -r OK2 CACHED2 WORST <<<"$(summarize "$WORKDIR/pass2.jsonl")"
echo "   pass 2: $OK2/$JOBS ok, $CACHED2 cached, worst hit ${WORST}s"
[ "$OK2" -eq "$JOBS" ] || { echo "FAIL: warm pass had failures" >&2; exit 1; }
# >= 99% of a 4-job manifest means all 4.
[ "$CACHED2" -eq "$JOBS" ] \
  || { echo "FAIL: warm pass hit only $CACHED2/$JOBS" >&2; exit 1; }
python3 -c "import sys; sys.exit(0 if float('$WORST') < 0.001 else 1)" \
  || { echo "FAIL: slowest cache hit took ${WORST}s (>= 1 ms)" >&2; exit 1; }

echo "== phase 3: hit-vs-hit responses are bit-identical"
"$RCGP" client "$MANIFEST" --socket="$SOCK" > "$WORKDIR/pass3.jsonl"
netlists "$WORKDIR/pass2.jsonl" > "$WORKDIR/pass2.net"
netlists "$WORKDIR/pass3.jsonl" > "$WORKDIR/pass3.net"
diff -u "$WORKDIR/pass2.net" "$WORKDIR/pass3.net" \
  || { echo "FAIL: cached netlists differ between passes" >&2; exit 1; }

echo "== phase 4: NPN variants of cached jobs are answered from the cache"
"$RCGP" client "$VARIANTS" --socket="$SOCK" > "$WORKDIR/variants-out.jsonl"
read -r OKV CACHEDV _ <<<"$(summarize "$WORKDIR/variants-out.jsonl")"
echo "   variants: $OKV/$VARIANT_JOBS ok, $CACHEDV cached"
[ "$OKV" -eq "$VARIANT_JOBS" ] && [ "$CACHEDV" -eq "$VARIANT_JOBS" ] \
  || { echo "FAIL: NPN variants were not all cache hits" >&2; exit 1; }

echo "== phase 5: SIGKILL the daemon — the store must survive"
kill -KILL "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
rm -f "$SOCK"
test -s "$STORE" || { echo "FAIL: no store at $STORE" >&2; exit 1; }
"$RCGP" cache verify --store="$STORE" \
  || { echo "FAIL: store corrupt after SIGKILL" >&2; exit 1; }

echo "== phase 6: restart — the persisted cache answers everything"
start_daemon --metrics-out="$WORKDIR/serve-metrics.json"
"$RCGP" client "$MANIFEST" --socket="$SOCK" > "$WORKDIR/pass4.jsonl"
read -r OK4 CACHED4 _ <<<"$(summarize "$WORKDIR/pass4.jsonl")"
echo "   pass 4: $OK4/$JOBS ok, $CACHED4 cached"
[ "$OK4" -eq "$JOBS" ] && [ "$CACHED4" -eq "$JOBS" ] \
  || { echo "FAIL: restarted daemon missed the persisted cache" >&2; exit 1; }

echo "== phase 7: clean shutdown + telemetry invariants"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: daemon exited non-zero" >&2; exit 1; }
DAEMON_PID=""
cat "$WORKDIR/daemon.out"
python3 scripts/check_telemetry.py --metrics "$WORKDIR/serve-metrics.json"
"$RCGP" report --metrics="$WORKDIR/serve-metrics.json" > "$WORKDIR/report.txt"
cat "$WORKDIR/report.txt"
for want in "service:" "cache hit share" "request latency" "hit latency"; do
  grep -q "$want" "$WORKDIR/report.txt" \
    || { echo "FAIL: rcgp report shows no '$want' line" >&2; exit 1; }
done

echo "PASS: serve smoke test"
