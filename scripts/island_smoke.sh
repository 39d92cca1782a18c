#!/usr/bin/env bash
# Island-model fleet smoke test (docs/ISLANDS.md):
#   1. run a 2-island ring fleet in-process and keep its netlist as the
#      placement-independent reference (plus island.* telemetry); its
#      state directory must hold exactly fleet.json and one
#      island-<i>.ckpt per island, and `--resume` of the finished fleet
#      must write the same bytes; then start the same fleet in a fresh
#      state directory with periodic saves off, SIGKILL it mid-run and
#      `--resume` it: between commits only fleet.json holds the islands,
#      and the result must again be byte-identical,
#   2. run the SAME fleet with both island slices farmed out to two
#      `rcgp serve` daemons over TCP (ephemeral ports, shared
#      --checkpoint-dir) — the result must be byte-identical to step 1;
#      then a 2-island fleet without migration (--topology=none, one
#      epoch whose slices reach the daemons concurrently) both in-process
#      and on the same daemons, again byte-identical,
#   3. start a fresh distributed run, SIGKILL one worker daemon mid-epoch
#      (one island dies), restart it, `--resume` the fleet, and assert the
#      resumed result is still byte-identical to the in-process reference
#      (idempotent epoch replay; a run that finishes before the kill lands
#      degrades into a second placement-identity check),
#   4. validate the island.* telemetry invariants with
#      scripts/check_telemetry.py.
#
# Usage: scripts/island_smoke.sh [path-to-rcgp-binary]
# Tunables: RCGP_ISL_GENERATIONS (per-island budget, default 300000 — big
#           enough that the SIGKILL in phase 3 lands mid-run),
#           RCGP_ISL_CIRCUIT (default full_adder), RCGP_ISL_SEED (default 7).
set -euo pipefail

RCGP="${1:-./build/src/rcgp}"
GENS="${RCGP_ISL_GENERATIONS:-300000}"
CIRCUIT="${RCGP_ISL_CIRCUIT:-full_adder}"
SEED="${RCGP_ISL_SEED:-7}"
INTERVAL=$((GENS / 8))

WORKDIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

FLEET_FLAGS=(--islands=2 --topology=ring "--migration-interval=$INTERVAL"
             -g "$GENS" -s "$SEED")

# Starts a worker daemon on an ephemeral TCP port with its evolve
# checkpoints in $1; echoes "pid address".
start_worker() {
  local state="$1" out="$2"
  "$RCGP" serve --listen=127.0.0.1:0 --checkpoint-dir="$state" --workers=1 \
    > "$out" 2>&1 &
  local pid=$!
  local addr=""
  for _ in $(seq 100); do
    addr="$(sed -n 's/^serve: listening on \([^ ]*\).*/\1/p' "$out")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "FAIL: worker daemon never reported its address" >&2
    cat "$out" >&2
    exit 1
  fi
  echo "$pid $addr"
}

echo "== phase 1: in-process 2-island fleet (the placement reference)"
"$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" \
  --island-state="$WORKDIR/state-local" \
  -o "$WORKDIR/local.rqfp" --metrics-out="$WORKDIR/island-metrics.json"
test -s "$WORKDIR/local.rqfp" \
  || { echo "FAIL: in-process fleet wrote no netlist" >&2; exit 1; }
LAYOUT="$(ls "$WORKDIR/state-local" | tr '\n' ' ')"
if [ "$LAYOUT" != "fleet.json island-0.ckpt island-1.ckpt " ]; then
  echo "FAIL: finished fleet left '$LAYOUT', not fleet.json plus one" \
       "island file per island" >&2
  exit 1
fi
"$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" --resume \
  --island-state="$WORKDIR/state-local" -o "$WORKDIR/local-again.rqfp"
cmp "$WORKDIR/local.rqfp" "$WORKDIR/local-again.rqfp" \
  || { echo "FAIL: resuming the finished fleet changed its result" >&2
       exit 1; }
echo "   layout: $LAYOUT; resuming the finished fleet gives the same bytes"
"$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" --checkpoint-interval=0 \
  --island-state="$WORKDIR/state-local-kill" \
  -o "$WORKDIR/local-killed.rqfp" > "$WORKDIR/local-killed.out" 2>&1 &
SYNTH_PID=$!
sleep 0.3
kill -KILL "$SYNTH_PID" 2>/dev/null || true
set +e
wait "$SYNTH_PID" 2>/dev/null
SYNTH_RC=$?
set -e
if [ "$SYNTH_RC" -eq 0 ]; then
  echo "   fleet finished before the kill; checking identity directly"
  cp "$WORKDIR/local-killed.rqfp" "$WORKDIR/local-resumed.rqfp"
else
  echo "   killed the in-process fleet (rc $SYNTH_RC); resuming"
  "$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" --checkpoint-interval=0 \
    --resume --island-state="$WORKDIR/state-local-kill" \
    -o "$WORKDIR/local-resumed.rqfp"
fi
cmp "$WORKDIR/local.rqfp" "$WORKDIR/local-resumed.rqfp" \
  || { echo "FAIL: killed and resumed in-process fleet diverged" >&2
       exit 1; }
echo "   killed and resumed in-process fleet is byte-identical"

echo "== phase 2: same fleets on two TCP worker daemons"
STATE2="$WORKDIR/state-remote"
mkdir -p "$STATE2"
read -r PID_A ADDR_A <<<"$(start_worker "$STATE2" "$WORKDIR/workerA.out")"
read -r PID_B ADDR_B <<<"$(start_worker "$STATE2" "$WORKDIR/workerB.out")"
PIDS+=("$PID_A" "$PID_B")
echo "   workers: $ADDR_A $ADDR_B"
"$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" \
  --island-state="$STATE2" --island-endpoints="$ADDR_A,$ADDR_B" \
  -o "$WORKDIR/remote.rqfp"
diff "$WORKDIR/local.rqfp" "$WORKDIR/remote.rqfp" \
  || { echo "FAIL: distributed placement changed the result" >&2; exit 1; }
echo "   distributed result is byte-identical to the in-process run"
NONE_FLAGS=(--islands=2 --topology=none -g "$GENS" -s "$SEED")
"$RCGP" synth "$CIRCUIT" "${NONE_FLAGS[@]}" \
  --island-state="$WORKDIR/state-none-local" -o "$WORKDIR/none-local.rqfp"
"$RCGP" synth "$CIRCUIT" "${NONE_FLAGS[@]}" \
  --island-state="$STATE2" --island-endpoints="$ADDR_A,$ADDR_B" \
  -o "$WORKDIR/none-remote.rqfp"
diff "$WORKDIR/none-local.rqfp" "$WORKDIR/none-remote.rqfp" \
  || { echo "FAIL: distributed placement changed the topology-none result" >&2
       exit 1; }
echo "   topology-none fleet is byte-identical across placements too"
kill -TERM "$PID_A" "$PID_B" 2>/dev/null || true
wait "$PID_A" "$PID_B" 2>/dev/null || true
PIDS=()

echo "== phase 3: SIGKILL one island mid-run, restart, --resume"
STATE3="$WORKDIR/state-kill"
mkdir -p "$STATE3"
read -r PID_A ADDR_A <<<"$(start_worker "$STATE3" "$WORKDIR/killA.out")"
read -r PID_B ADDR_B <<<"$(start_worker "$STATE3" "$WORKDIR/killB.out")"
PIDS+=("$PID_A" "$PID_B")
"$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" \
  --island-state="$STATE3" --island-endpoints="$ADDR_A,$ADDR_B" \
  -o "$WORKDIR/killed.rqfp" > "$WORKDIR/killed.out" 2>&1 &
SYNTH_PID=$!
sleep 0.3
kill -KILL "$PID_B" 2>/dev/null || true
set +e
wait "$SYNTH_PID"
SYNTH_RC=$?
set -e
wait "$PID_B" 2>/dev/null || true
PIDS=("$PID_A")
if [ "$SYNTH_RC" -eq 0 ]; then
  # The fleet finished before the kill landed — still a placement check.
  echo "   fleet finished before the kill; checking identity directly"
  cp "$WORKDIR/killed.rqfp" "$WORKDIR/resumed.rqfp"
else
  echo "   coordinator failed as expected (rc $SYNTH_RC); resuming"
  read -r PID_B ADDR_B <<<"$(start_worker "$STATE3" "$WORKDIR/killB2.out")"
  PIDS+=("$PID_B")
  "$RCGP" synth "$CIRCUIT" "${FLEET_FLAGS[@]}" --resume \
    --island-state="$STATE3" --island-endpoints="$ADDR_A,$ADDR_B" \
    -o "$WORKDIR/resumed.rqfp"
fi
diff "$WORKDIR/local.rqfp" "$WORKDIR/resumed.rqfp" \
  || { echo "FAIL: resumed fleet diverged from the reference" >&2; exit 1; }
echo "   resumed result is byte-identical to the in-process run"
kill -TERM "$PID_A" "$PID_B" 2>/dev/null || true
wait "$PID_A" "$PID_B" 2>/dev/null || true
PIDS=()

echo "== phase 4: island.* telemetry invariants"
python3 scripts/check_telemetry.py --metrics "$WORKDIR/island-metrics.json"

echo "PASS: island smoke test"
