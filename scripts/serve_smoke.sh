#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the network front door:
# build cmd/mcdserver, start it on a free port, drive it with the loadgen
# for ~2 seconds via `mcdbench -net -addr`, then SIGTERM it and assert a
# clean drain (exit 0) and zero protocol errors (mcdbench exits nonzero on
# any). Arguments are passed on to mcdserver. Run via `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE=serve-smoke
. scripts/smoke_lib.sh

PORT="${SMOKE_PORT:-21211}"
ADDR="127.0.0.1:${PORT}"
DURATION="${SMOKE_DURATION:-2s}"
CONNS="${SMOKE_CONNS:-50}"
BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT

echo "serve-smoke: building"
go build -o "$BIN/mcdserver" ./cmd/mcdserver
go build -o "$BIN/mcdbench" ./cmd/mcdbench

echo "serve-smoke: starting mcdserver on ${ADDR} $*"
"$BIN/mcdserver" -addr "$ADDR" -variant dps -partitions 2 -drain-timeout 10s "$@" &
SERVER_PID=$!
trap 'kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$BIN"' EXIT

wait_ready $SERVER_PID "$BIN/mcdbench" -net -addr "$ADDR" -conns 1 -reqs 1 -items 16

echo "serve-smoke: running loadgen for ${DURATION} with ${CONNS} connections"
"$BIN/mcdbench" -net -addr "$ADDR" -conns "$CONNS" -reqs 5000000 \
  -duration "$DURATION" -items 4096 -set 0.1 -value 128

echo "serve-smoke: SIGTERM, expecting clean drain"
drain_server $SERVER_PID
echo "serve-smoke: OK"
