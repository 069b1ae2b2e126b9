#!/usr/bin/env bash
# peer_smoke.sh — end-to-end smoke test of the wire tier: build
# cmd/dpsnode, start one node serving every partition on an ephemeral
# port, then run a second process that keeps partitions 0,1 local and
# delegates 2,3 to the first over TCP. The dialing node verifies sync
# sets, gets, async-overwrite read-your-writes, and — pass two — does it
# again under injected link chaos (dropped frames, slow links, severed
# connections). Pass three restarts the serving node's peer listener in
# the middle of a clean-link run (-bounce-after): retry, redial, and the
# server-side dedup window must ride the darkness out with ZERO failed
# operations. dpsnode exits 2 if any value comes back wrong, any
# read-your-writes ordering is violated, or any delegated completion is
# neither resolved nor timed out after the final drain (the
# lost-completion watchdog); the serving node must then drain cleanly
# under SIGTERM. Run via `make peer-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE=peer-smoke
. scripts/smoke_lib.sh

OPS="${PEER_SMOKE_OPS:-500}"
CHAOS_OPS="${PEER_SMOKE_CHAOS_OPS:-300}"
BOUNCE_OPS="${PEER_SMOKE_BOUNCE_OPS:-20000}"
BIN="$(mktemp -d)"
ADDR_FILE="$BIN/dpsnode.addr"
trap 'rm -rf "$BIN"' EXIT

echo "peer-smoke: building"
go build -o "$BIN/dpsnode" ./cmd/dpsnode

echo "peer-smoke: starting serving node"
"$BIN/dpsnode" -listen 127.0.0.1:0 -addr-file "$ADDR_FILE" -serve-for 120s &
SERVER_PID=$!
trap 'kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$BIN"' EXIT

wait_ready $SERVER_PID test -f "$ADDR_FILE"
ADDR="$(cat "$ADDR_FILE")"
echo "peer-smoke: serving node at $ADDR"

echo "peer-smoke: pass 1 — clean link, $OPS keys"
"$BIN/dpsnode" -peer "$ADDR=2,3" -ops "$OPS"

echo "peer-smoke: pass 2 — chaos link (drops, delays, severed peers), $CHAOS_OPS keys"
"$BIN/dpsnode" -peer "$ADDR=2,3" -ops "$CHAOS_OPS" -op-timeout 250ms \
  -chaos-drop 0.02 -chaos-slow 0.05 -chaos-slow-delay 1ms -chaos-peerdown 0.005

echo "peer-smoke: SIGTERM serving node, expecting clean drain"
drain_server $SERVER_PID

# Pass 3: a fresh serving node that bounces its own peer listener shortly
# after startup. The dialing node runs a clean-link workload (no chaos
# flags, so ANY op failure is fatal) across the restart: retry + redial
# must carry every in-flight burst over the darkness, and the dedup
# window keeps the retransmissions idempotent. The workload must still be
# running when the listener goes dark, so the pass also requires the link
# to have reconnected.
echo "peer-smoke: pass 3 — mid-run peer restart (listener bounce), $BOUNCE_OPS keys"
ADDR_FILE2="$BIN/dpsnode2.addr"
"$BIN/dpsnode" -listen 127.0.0.1:0 -addr-file "$ADDR_FILE2" -serve-for 120s \
  -bounce-after 300ms -bounce-down 400ms &
SERVER2_PID=$!
trap 'kill -9 $SERVER_PID $SERVER2_PID 2>/dev/null || true; rm -rf "$BIN"' EXIT
wait_ready $SERVER2_PID test -f "$ADDR_FILE2"
ADDR2="$(cat "$ADDR_FILE2")"
set +e
PASS3="$("$BIN/dpsnode" -peer "$ADDR2=2,3" -ops "$BOUNCE_OPS" -op-timeout 5s)"
status=$?
set -e
echo "$PASS3"
[ "$status" -eq 0 ] || exit "$status"
if ! grep -q 'reconnects=[1-9]' <<<"$PASS3"; then
  echo "peer-smoke: pass 3 ended before the listener bounce (no reconnect); raise PEER_SMOKE_BOUNCE_OPS" >&2
  exit 1
fi

echo "peer-smoke: SIGTERM bounce serving node, expecting clean drain"
drain_server $SERVER2_PID
echo "peer-smoke: OK"
