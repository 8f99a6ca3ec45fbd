#!/usr/bin/env bash
# Bounded-time loopback smoke for the serving binaries: start mscm_served on
# an ephemeral port, drive it with mscm_loadgen for a couple of seconds,
# assert work completed, then SIGTERM the server and assert a clean (exit 0)
# graceful shutdown. Usage:
#
#   tests/net_smoke.sh [BUILD_DIR]     # default build dir: ./build
#
# Exits non-zero if the server fails to start within 10s, a load run
# completes nothing, a closed-loop estimate run reports an error frame or a
# transport error, or shutdown is not clean within 15s.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
SERVED="${BUILD_DIR}/src/net/mscm_served"
LOADGEN="${BUILD_DIR}/src/net/mscm_loadgen"

for bin in "${SERVED}" "${LOADGEN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "net_smoke: missing binary ${bin} (build mscm_served mscm_loadgen first)" >&2
    exit 1
  fi
done

WORKDIR="$(mktemp -d)"
SERVER_LOG="${WORKDIR}/served.log"
SERVER_PID=""
cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORKDIR}"
}
trap cleanup EXIT

"${SERVED}" --port 0 --sites 2 --io-threads 2 --workers 2 > "${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

# Wait for the announced ephemeral port.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^mscm_served listening on [0-9.]*:\([0-9]*\)$/\1/p' "${SERVER_LOG}" | head -1)"
  [[ -n "${PORT}" ]] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "net_smoke: server died during startup:" >&2
    cat "${SERVER_LOG}" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${PORT}" ]]; then
  echo "net_smoke: server never announced its port" >&2
  cat "${SERVER_LOG}" >&2
  exit 1
fi
echo "net_smoke: server up on port ${PORT}"

# A closed-loop run must answer every frame it sends: no kOverloaded or
# other typed error frame, and no transport error.
expect_no_errors() {
  if ! grep -q '"overloaded": 0,' "$1" || ! grep -q '"errors": 0,' "$1" ||
     ! grep -q '"transport_errors": 0,' "$1"; then
    echo "net_smoke: $(basename "$1") reported error frames or transport errors" >&2
    cat "$1" >&2
    exit 1
  fi
}

# Closed-loop and open-loop runs; mscm_loadgen exits non-zero when nothing
# completed, which fails the script via set -e.
"${LOADGEN}" --port "${PORT}" --mode closed --connections 2 --duration-s 1.5 \
  --sites 2 --json "${WORKDIR}/closed.json"
expect_no_errors "${WORKDIR}/closed.json"
# Frames of 512 items, eight times the benchmark's: each is priced in one
# pass on the IO loop that read it.
"${LOADGEN}" --port "${PORT}" --mode closed --connections 4 --duration-s 1.5 \
  --sites 2 --batch 512 --json "${WORKDIR}/closed_batch512.json"
expect_no_errors "${WORKDIR}/closed_batch512.json"
"${LOADGEN}" --port "${PORT}" --mode open --rate 500 --connections 2 \
  --duration-s 1.5 --sites 2 --batch 8 --stats

# Drift-recovery over the wire: --feedback reports ground-truth costs whose
# scale drifts away from the served models, driving the server's RLS fast
# tier. The run must land accepted kReportActual frames.
"${LOADGEN}" --port "${PORT}" --mode closed --connections 2 --duration-s 1.5 \
  --sites 2 --feedback --feedback-drift 0.5 --json "${WORKDIR}/feedback.json"
if ! grep -q '"feedback_accepted": [1-9]' "${WORKDIR}/feedback.json"; then
  echo "net_smoke: feedback run reported no accepted kReportActual frames" >&2
  cat "${WORKDIR}/feedback.json" >&2
  exit 1
fi

# Graceful SIGTERM shutdown must exit 0 within the deadline.
kill -TERM "${SERVER_PID}"
DEADLINE=$((SECONDS + 15))
while kill -0 "${SERVER_PID}" 2>/dev/null; do
  if (( SECONDS >= DEADLINE )); then
    echo "net_smoke: server did not shut down within 15s" >&2
    cat "${SERVER_LOG}" >&2
    exit 1
  fi
  sleep 0.2
done
wait "${SERVER_PID}"
STATUS=$?
SERVER_PID=""
if [[ "${STATUS}" -ne 0 ]]; then
  echo "net_smoke: server exited ${STATUS} on SIGTERM" >&2
  cat "${SERVER_LOG}" >&2
  exit 1
fi

echo "net_smoke: OK (clean shutdown, closed+open loop completed work)"
