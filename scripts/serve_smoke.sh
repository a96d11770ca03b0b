#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for cmd/simserved.
#
# Drives the docs/SERVER.md recipe against a real server process: wait
# for health, assert the warmed pair answers on the analytical tier and
# a cold pair on the simulation tier (X-Simserved-Tier header), bound
# the analytical p99 latency, then shut down gracefully with SIGINT.
#
# Environment:
#   SIMSERVED  path to a prebuilt binary (default: build ./cmd/simserved)
#   ADDR       listen address (default localhost:18088)
#   P99_MAX_S  analytical p99 bound in seconds (default 0.050)
# Extra arguments are passed through to simserved (e.g. -trace-out).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${ADDR:-localhost:18088}
P99_MAX_S=${P99_MAX_S:-0.050}
BIN=${SIMSERVED:-}
if [ -z "$BIN" ]; then
  BIN=$(mktemp -d)/simserved
  go build -o "$BIN" ./cmd/simserved
fi

"$BIN" -addr "$ADDR" -scale 0.1 -warm IntelUMA8/CG.W "$@" &
SERVER_PID=$!
STATUS=1
cleanup() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  exit "$STATUS"
}
trap cleanup EXIT

echo "== waiting for /healthz on $ADDR (warm-up simulates 3 anchors)"
for _ in $(seq 1 120); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited during warm-up" >&2
    exit 1
  fi
  sleep 1
done
HEALTH=$(curl -sf "http://$ADDR/healthz")
echo "healthz: $HEALTH"
echo "$HEALTH" | grep -q '"status":"ok"'
echo "$HEALTH" | grep -q '"fits":1'

predict() {
  curl -si -X POST "http://$ADDR/v1/predict" -d "$1"
}

echo "== warmed pair (CG.W) must answer on the analytical tier"
OUT=$(predict '{"machine":"IntelUMA8","program":"CG","class":"W","cores":6}')
echo "$OUT" | grep -i '^X-Simserved-Tier:' | grep -q analytical || {
  echo "FAIL: expected analytical tier, got:" >&2; echo "$OUT" >&2; exit 1; }
echo "$OUT" | tail -1 | grep -q '"fit":{"anchors":\[1,4,5\]'

echo "== cold pair (EP.W) must fall back to the simulation tier"
OUT=$(predict '{"machine":"IntelUMA8","program":"EP","class":"W","cores":4}')
echo "$OUT" | grep -i '^X-Simserved-Tier:' | grep -q simulation || {
  echo "FAIL: expected simulation tier, got:" >&2; echo "$OUT" >&2; exit 1; }

echo "== the cold predict's analytical refusal is counted once"
curl -sf "http://$ADDR/metrics" | grep -q '^model_declines_total 1$' || {
  echo "FAIL: expected model_declines_total 1 after one simulated predict" >&2; exit 1; }

echo "== invalid request must 400"
predict '{"machine":"IntelUMA8","program":"CG","class":"W","cores":99}' \
  | head -1 | grep -q ' 400 '

echo "== analytical p99 over 200 requests must stay under ${P99_MAX_S}s"
TIMES=$(mktemp)
for _ in $(seq 1 200); do
  curl -s -o /dev/null -w '%{time_total}\n' -X POST "http://$ADDR/v1/predict" \
    -d '{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}'
done > "$TIMES"
P99=$(sort -g "$TIMES" | awk 'BEGIN{n=0} {v[n++]=$1} END{print v[int(n*0.99)-1]}')
rm -f "$TIMES"
echo "analytical p99: ${P99}s"
awk -v p="$P99" -v max="$P99_MAX_S" 'BEGIN{exit !(p < max)}' || {
  echo "FAIL: p99 ${P99}s exceeds ${P99_MAX_S}s" >&2; exit 1; }

echo "== metrics must show both tiers served"
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q '^simserved_analytical_total 20[1-9]'
echo "$METRICS" | grep -q '^simserved_simulation_total 1'

echo "== streamed curve on the warmed pair: 8 analytical points, then the summary"
CURVE=$(curl -sN -X POST "http://$ADDR/v1/curve" -H 'Accept: application/x-ndjson' \
  -d '{"machine":"IntelUMA8","program":"CG","class":"W"}')
LINES=$(echo "$CURVE" | grep -c .)
[ "$LINES" -eq 9 ] || { echo "FAIL: expected 9 NDJSON frames, got $LINES:" >&2; echo "$CURVE" >&2; exit 1; }
POINTS=$(echo "$CURVE" | head -8)
echo "$POINTS" | grep -vq '"summary"' || { echo "FAIL: summary before the points:" >&2; echo "$CURVE" >&2; exit 1; }
[ "$(echo "$POINTS" | grep -c '"tier":"analytical"')" -eq 8 ] || {
  echo "FAIL: expected 8 analytical points, got:" >&2; echo "$CURVE" >&2; exit 1; }
LAST=$(echo "$CURVE" | tail -1)
echo "$LAST" | grep -q '"summary":{"points":8,"analytical":8' || {
  echo "FAIL: bad terminal summary: $LAST" >&2; exit 1; }

echo "== batched curve on the cold pair (EP.W) simulates its points"
CURVE=$(curl -s -X POST "http://$ADDR/v1/curve" \
  -d '{"machine":"IntelUMA8","program":"EP","class":"W","cores":[1,2]}')
echo "$CURVE" | grep -q '"summary":{"points":2,"analytical":0,"simulation":2' || {
  echo "FAIL: expected 2 simulated points: $CURVE" >&2; exit 1; }

echo "== curve metrics must account for both requests"
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep -q '^simserved_curve_requests_total 2'
echo "$METRICS" | grep -q '^simserved_curve_analytical_points_total 8'
echo "$METRICS" | grep -q '^simserved_curve_simulation_points_total 2'

echo "== SIGINT must drain and exit 0"
kill -INT "$SERVER_PID"
WAIT_STATUS=0
wait "$SERVER_PID" || WAIT_STATUS=$?
if [ "$WAIT_STATUS" -ne 0 ]; then
  echo "FAIL: server exited $WAIT_STATUS after SIGINT" >&2
  exit 1
fi

echo "PASS: serve smoke"
STATUS=0
