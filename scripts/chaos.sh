#!/bin/sh
# chaos.sh — local chaos rehearsal for the serving stack and the fleet.
#
# Default mode runs the chaos test matrix under the race detector, then
# boots a real eliteserve with an injected stage fault and walks the
# degraded-serving contract end to end (the same sequence CI's "degraded
# serving smoke" step pins): degraded 200 + Warning header + banner, the
# eliteserve_degraded_total metric, and a clean follow-up body
# byte-identical to eliteanalyze stdout.
#
# Fleet mode ("chaos.sh fleet") rehearses the router's degradation ladder
# with real processes: two eliteserve workers behind an eliterouter with
# injected connection drops, one worker killed mid-load. Every request
# must come back 200 and the fleet metrics must show the ejection —
# the same sequence CI's "fleet smoke" step pins.
#
# Usage: sh scripts/chaos.sh [port]          (default 8097)
#        sh scripts/chaos.sh fleet [port]
set -eu

MODE=single
if [ "${1:-}" = "fleet" ]; then
  MODE=fleet
  shift
fi
PORT=${1:-8097}
TMP=$(mktemp -d)
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

wait_healthz() {
  i=0
  until curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "server on :$1 never came up"; cat "$TMP"/*.err 2>/dev/null; exit 1; }
    sleep 0.2
  done
}

echo "== chaos test matrix (-race) =="
go test -race -count=1 \
  -run 'Chaos|Fault|Breaker|Panic|Retry|Degraded|Probe|Scatter|Rendezvous|Drain' \
  ./internal/faults/ ./internal/pipeline/ ./internal/cache/ \
  ./internal/serve/ ./internal/twitter/ ./internal/fleet/

go build -o "$TMP/elitegen" ./cmd/elitegen
go build -o "$TMP/eliteserve" ./cmd/eliteserve
"$TMP/elitegen" -n 2000 -seed 7 -out "$TMP/ds" >/dev/null 2>&1

if [ "$MODE" = fleet ]; then
  echo "== fleet failover rehearsal =="
  go build -o "$TMP/eliterouter" ./cmd/eliterouter
  W1=$((PORT + 1))
  W2=$((PORT + 2))
  "$TMP/eliteserve" -addr "127.0.0.1:$W1" -data "demo=$TMP/ds" \
    -cache "$TMP/cache" -async-after 0 2>"$TMP/w1.err" &
  W1_PID=$!
  PIDS="$PIDS $W1_PID"
  "$TMP/eliteserve" -addr "127.0.0.1:$W2" -data "demo=$TMP/ds" \
    -cache "$TMP/cache" -async-after 0 2>"$TMP/w2.err" &
  W2_PID=$!
  PIDS="$PIDS $W2_PID"
  wait_healthz "$W1"
  wait_healthz "$W2"

  # Injected connection drops against worker 1 on top of the kill below:
  # the retry/breaker path absorbs both.
  "$TMP/eliterouter" -addr "127.0.0.1:$PORT" \
    -worker "127.0.0.1:$W1" -worker "127.0.0.1:$W2" \
    -cache "$TMP/cache" -probe-interval 200ms \
    -faults "net:127.0.0.1:$W1=drop:times=4:after=6" 2>"$TMP/router.err" &
  PIDS="$PIDS $!"
  wait_healthz "$PORT"

  T1="/v1/datasets/demo/report?stages=summary"
  T2="/v1/datasets/demo/report?stages=summary,degree"
  T3="/v1/datasets/demo"
  T4="/v1/datasets"

  # Warm every identity once (the workers store each body).
  for t in "$T1" "$T2" "$T3" "$T4"; do
    curl -sf "http://127.0.0.1:$PORT$t" >/dev/null
  done

  i=0
  while [ "$i" -lt 60 ]; do
    i=$((i + 1))
    if [ "$i" -eq 30 ]; then
      echo "killing worker 1 (pid $W1_PID) mid-load"
      kill "$W1_PID"
    fi
    case $((i % 4)) in
      0) t=$T1 ;; 1) t=$T2 ;; 2) t=$T3 ;; 3) t=$T4 ;;
    esac
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT$t")
    if [ "$code" != 200 ]; then
      echo "request $i ($t) answered $code, want 200"
      curl -s "http://127.0.0.1:$PORT/fleet/workers" || true
      exit 1
    fi
  done
  echo "60/60 requests answered 200 through drops + a worker kill"

  sleep 1 # give the prober a few rounds to eject the corpse
  METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics")
  echo "$METRICS" | grep -q "eliterouter_worker_up{worker=\"127.0.0.1:$W1\"} 0"
  echo "$METRICS" | grep -q "eliterouter_worker_up{worker=\"127.0.0.1:$W2\"} 1"
  echo "$METRICS" | grep -q "eliterouter_workers_available 1"
  echo "worker_up: dead worker ejected, survivor carrying the fleet"
  echo "$METRICS" | grep -E 'eliterouter_(retries|failovers)_total [1-9]' >/dev/null
  echo "failover counters engaged"

  # The degradation ladder must also be visible as span events: the
  # injected drops + the kill force retries and trip worker 1's breaker,
  # and /debug/traces tells that story per request.
  TRACES=$(curl -sf "http://127.0.0.1:$PORT/debug/traces")
  echo "$TRACES" | grep -q '"retry"'
  echo "$TRACES" | grep -q '"breaker.open"'
  echo "span events: retry + breaker.open visible in /debug/traces"
  echo "fleet rehearsal: OK"
  exit 0
fi

echo "== degraded serving rehearsal =="
go build -o "$TMP/eliteanalyze" ./cmd/eliteanalyze

"$TMP/eliteserve" -addr "127.0.0.1:$PORT" -data "demo=$TMP/ds" \
  -cache "$TMP/cache" -async-after 0 \
  -faults 'stage:degree=error' 2>"$TMP/serve.err" &
PIDS="$PIDS $!"
wait_healthz "$PORT"

curl -sf "http://127.0.0.1:$PORT/v1/datasets/demo/report?format=text" \
  -D "$TMP/headers" -o "$TMP/degraded.out"
grep -q 'DEGRADED REPORT' "$TMP/degraded.out"
grep -qi '^Warning: 199' "$TMP/headers"
curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q 'eliteserve_degraded_total 1'
echo "degraded response: banner + Warning header + metric OK"

# The injected stage fault must be visible as a span event on the
# degree stage's span in the worker's trace buffer.
curl -sf "http://127.0.0.1:$PORT/debug/traces" | grep -q '"fault.injected"'
echo "span events: fault.injected visible in /debug/traces"

curl -sf "http://127.0.0.1:$PORT/v1/datasets/demo/report?format=text" -o "$TMP/clean.out"
"$TMP/eliteanalyze" -data "$TMP/ds" >"$TMP/analyze.out"
cmp "$TMP/clean.out" "$TMP/analyze.out"
echo "post-fault clean body: byte-identical to eliteanalyze"
echo "chaos rehearsal: OK"
