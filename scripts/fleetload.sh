#!/bin/sh
# fleetload.sh — load harness for a running eliterouter.
#
# Drives N sequential requests at the router, spreading them over the
# report identities of one dataset, and reports what the fleet's
# robustness machinery did with them: status-code mix, latency
# percentiles (p50/p95/p99), degraded serves, and the deltas of the
# router's retry / failover / shed counters over the run.
#
# Usage:
#   sh scripts/fleetload.sh [url] [n] [dataset]
#     url      router base URL   (default http://127.0.0.1:8080)
#     n        request count     (default 200)
#     dataset  dataset id        (default demo)
#
# Typical session:
#   eliteserve -addr :9001 -gen demo=verified:10000:42 -cache /tmp/ec &
#   eliteserve -addr :9002 -gen demo=verified:10000:42 -cache /tmp/ec &
#   eliterouter -addr :8080 -worker 127.0.0.1:9001 -worker 127.0.0.1:9002 \
#     -cache /tmp/ec &
#   sh scripts/fleetload.sh http://127.0.0.1:8080 200 demo
set -eu

URL=${1:-http://127.0.0.1:8080}
N=${2:-200}
DS=${3:-demo}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

scrape() {
  curl -sf "$URL/metrics" | awk -v name="$1" '$1 == name {print $2; found=1} END {if (!found) print 0}'
}

curl -sf "$URL/healthz" >/dev/null || { echo "router at $URL is not answering /healthz"; exit 1; }

R0=$(scrape eliterouter_retries_total)
F0=$(scrape eliterouter_failovers_total)
D0=$(scrape eliterouter_degraded_total)
S0=$(scrape eliterouter_shed_total)

T1="/v1/datasets/$DS/report?stages=summary"
T2="/v1/datasets/$DS/report?stages=summary,degree"
T3="/v1/datasets/$DS/report?stages=summary&format=text"
T4="/v1/datasets/$DS"

: >"$TMP/lat"
: >"$TMP/codes"
degraded=0
i=0
while [ "$i" -lt "$N" ]; do
  i=$((i + 1))
  case $((i % 4)) in
    0) t=$T1 ;; 1) t=$T2 ;; 2) t=$T3 ;; 3) t=$T4 ;;
  esac
  out=$(curl -s -o /dev/null -D "$TMP/hdr" \
    -w '%{http_code} %{time_total}' "$URL$t" || echo "000 0")
  echo "${out% *}" >>"$TMP/codes"
  echo "${out#* }" >>"$TMP/lat"
  if grep -qi '^X-Elites-Degraded: true' "$TMP/hdr"; then
    degraded=$((degraded + 1))
  fi
done

echo "== fleetload: $N requests against $URL =="
echo "-- status codes --"
sort "$TMP/codes" | uniq -c | sort -rn

echo "-- latency --"
sort -g "$TMP/lat" | awk -v n="$N" '
  {v[NR] = $1; sum += $1}
  END {
    printf "  mean %.1fms  p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms\n",
      sum/n*1000, v[int(n*0.50)]*1000, v[int(n*0.95)]*1000,
      v[int(n*0.99)]*1000, v[n]*1000
  }'

R1=$(scrape eliterouter_retries_total)
F1=$(scrape eliterouter_failovers_total)
D1=$(scrape eliterouter_degraded_total)
S1=$(scrape eliterouter_shed_total)
UP=$(scrape eliterouter_workers_available)

echo "-- fleet machinery (deltas over this run) --"
echo "  retries   $((R1 - R0))"
echo "  failovers $((F1 - F0))"
echo "  degraded  $((D1 - D0))   (responses with X-Elites-Degraded seen here: $degraded)"
echo "  shed      $((S1 - S0))"
echo "  workers available now: $UP"

if [ "$((S1 - S0))" -gt 0 ]; then
  echo "WARNING: requests were shed — no worker answered and no stored body covered them" >&2
  exit 2
fi
