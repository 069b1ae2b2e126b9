# smoke_lib.sh — the boot and drain steps the smoke scripts share. Source it
# after setting SMOKE to the script's name (the prefix of every message):
#
#	SMOKE=serve-smoke
#	. "$(dirname "$0")/smoke_lib.sh"

# wait_ready PID CMD... — retry CMD every 0.1 s, for up to 10 s, until it
# succeeds; fail at once if process PID exits first.
wait_ready() {
  local pid="$1" i
  shift
  for i in $(seq 1 100); do
    "$@" >/dev/null 2>&1 && return 0
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "$SMOKE: server died during startup" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "$SMOKE: server never became ready" >&2
  return 1
}

# drain_server PID — SIGTERM a server and require it to exit 0 within 15 s.
drain_server() {
  local pid="$1" i status
  kill -TERM "$pid"
  for i in $(seq 1 150); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "$SMOKE: server failed to exit within 15s of SIGTERM" >&2
    return 1
  fi
  set +e
  wait "$pid"
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "$SMOKE: server exited $status (drain not clean)" >&2
    return "$status"
  fi
}
