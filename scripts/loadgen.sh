#!/bin/sh
# Sustained-load harness for the fleet tier: stand up two lsrd replicas
# sharing one on-disk compilation store, front them with lsrgate, prove
# the replicas share compilations through the store, then drive the
# gate with lsrbench's load generator and gate the percentile/
# throughput report against its default SLO (bench.DefaultSLO).
# Finishes by SIGTERM-draining one replica and confirming the gate
# routes around it. Usage:
#
#   scripts/loadgen.sh           # full run (8 clients x 10s)
#   scripts/loadgen.sh -short    # CI mode (2 clients x 3s)
#   CLIENTS=32 DURATION=30s scripts/loadgen.sh
set -eu
cd "$(dirname "$0")/.."

CLIENTS="${CLIENTS:-8}"
DURATION="${DURATION:-10s}"
if [ "${1:-}" = "-short" ]; then
    CLIENTS=2
    DURATION=3s
fi

ADDR1="${ADDR1:-127.0.0.1:8378}"
ADDR2="${ADDR2:-127.0.0.1:8379}"
GADDR="${GADDR:-127.0.0.1:8380}"
BASE1="http://$ADDR1"
BASE2="http://$ADDR2"
GATE="http://$GADDR"
STOREDIR=$(mktemp -d)

echo "== build lsrd, lsrgate, lsrbench =="
go build -o /tmp/lsrd ./cmd/lsrd
go build -o /tmp/lsrgate ./cmd/lsrgate
go build -o /tmp/lsrbench ./cmd/lsrbench

/tmp/lsrd -addr "$ADDR1" -store "$STOREDIR" &
PID1=$!
/tmp/lsrd -addr "$ADDR2" -store "$STOREDIR" &
PID2=$!
/tmp/lsrgate -addr "$GADDR" -backends "$BASE1,$BASE2" -health 500ms &
GPID=$!
cleanup() {
    kill "$PID1" "$PID2" "$GPID" 2>/dev/null || true
    rm -rf "$STOREDIR"
}
trap cleanup EXIT

wait_healthy() { # wait_healthy URL
    i=0
    until curl -fsS "$1/healthz" > /dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "loadgen.sh: $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}
echo "== wait for replicas and gate =="
wait_healthy "$BASE1"
wait_healthy "$BASE2"
wait_healthy "$GATE"

echo "== store sharing: replica 2 must serve replica 1's compilation =="
SRC='{"source": "(define (shared x) (+ x 100)) (shared 1)"}'
first=$(curl -fsS -X POST "$BASE1/v1/compile" -d "$SRC")
case "$first" in
*'"cached": false'*) ;;
*)
    echo "loadgen.sh: replica 1's first compile claims cached: $first" >&2
    exit 1
    ;;
esac
second=$(curl -fsS -X POST "$BASE2/v1/compile" -d "$SRC")
case "$second" in
*'"cached": true'*) ;;
*)
    echo "loadgen.sh: replica 2 recompiled instead of reading the store: $second" >&2
    exit 1
    ;;
esac
storehits=$(curl -fsS "$BASE2/metrics" | awk '/^lsrd_store_hits_total /{print $2}')
if [ "${storehits:-0}" -eq 0 ]; then
    echo "loadgen.sh: replica 2 reports no store hits" >&2
    exit 1
fi
echo "replica 2 served from the shared store (store hits: $storehits)"

echo "== sustained load through the gate: $CLIENTS clients x $DURATION =="
/tmp/lsrbench -loadurl "$GATE" -loadclients "$CLIENTS" -loadduration "$DURATION"

echo "== gate metrics: per-backend series must exist for both replicas =="
gmetrics=$(curl -fsS "$GATE/metrics")
for b in "$BASE1" "$BASE2"; do
    if ! printf '%s\n' "$gmetrics" | grep -q "lsrgate_requests_total{backend=\"$b\""; then
        echo "loadgen.sh: gate metrics missing request series for $b" >&2
        exit 1
    fi
    if ! printf '%s\n' "$gmetrics" | grep -q "lsrgate_request_seconds_count{backend=\"$b\""; then
        echo "loadgen.sh: gate metrics missing latency series for $b" >&2
        exit 1
    fi
done
if ! printf '%s\n' "$gmetrics" | grep -q '^lsrgate_rebalance_total '; then
    echo "loadgen.sh: gate metrics missing rebalance counter" >&2
    exit 1
fi

# A run that must exhaust its fuel deterministically, through the gate.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$GATE/v1/run" \
    -d '{"source": "(define (spin) (spin)) (spin)", "max_steps": 100000}')
if [ "$code" != "422" ]; then
    echo "loadgen.sh: fuel-exhausted run returned HTTP $code, want 422" >&2
    exit 1
fi

echo "== drain: SIGTERM replica 1, gate must route around it =="
kill -TERM "$PID1"
if ! wait "$PID1"; then
    echo "loadgen.sh: replica 1 did not drain cleanly" >&2
    exit 1
fi
if [ ! -f "$STOREDIR/index.json" ]; then
    echo "loadgen.sh: drained replica did not flush the store index" >&2
    exit 1
fi
sleep 1 # let a health-probe round notice
drained=$(curl -fsS -X POST "$GATE/v1/compile" -d "$SRC")
case "$drained" in
*'"cached": true'*) ;;
*)
    echo "loadgen.sh: post-drain request through the gate failed: $drained" >&2
    exit 1
    ;;
esac

kill "$PID2" "$GPID"
wait "$PID2" 2>/dev/null || true
wait "$GPID" 2>/dev/null || true
trap - EXIT
rm -rf "$STOREDIR"
echo "loadgen.sh: all checks passed"
