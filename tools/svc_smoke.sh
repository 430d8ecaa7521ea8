#!/usr/bin/env bash
# svc_smoke.sh HARTD_BIN LOADGEN_BIN [SECONDS]
#
# The hartd SIGKILL/restart smoke: start the server with file-backed
# arenas, drive it over TCP loopback for SECONDS seconds while recording
# every acked insert, SIGKILL the server mid-load, restart it on the same
# arenas (with PMCheck enabled), and replay the acked set — every acked
# write must be present with the right value. Run by ctest (svc_smoke,
# 2 s) and by the CI smoke job (5 s).
set -euo pipefail

HARTD=${1:?usage: svc_smoke.sh HARTD LOADGEN [SECONDS]}
LOADGEN=${2:?usage: svc_smoke.sh HARTD LOADGEN [SECONDS]}
SECS=${3:-5}

DIR=$(mktemp -d "${TMPDIR:-/tmp}/hart_svc_smoke.XXXXXX")
SRV=
LG=
cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true
  [ -n "$LG" ] && kill "$LG" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

start_server() { # $1 = extra flags
  # shellcheck disable=SC2086
  "$HARTD" --port 0 --port-file "$DIR/port" --shards 4 --batch 32 \
           --arena-dir "$DIR/arenas" --arena-mb 64 $1 &
  SRV=$!
  for _ in $(seq 100); do
    [ -s "$DIR/port" ] && break
    kill -0 "$SRV" 2>/dev/null || { echo "FAIL: hartd died at startup"; exit 1; }
    sleep 0.1
  done
  [ -s "$DIR/port" ] || { echo "FAIL: hartd never published its port"; exit 1; }
  PORT=$(cat "$DIR/port")
}

echo "== phase 1: load + SIGKILL mid-burst"
start_server ""
"$LOADGEN" --port "$PORT" --clients 4 --seconds "$SECS" --mix insert \
           --pipeline 32 --acked-log "$DIR/acked.log" &
LG=$!

# Kill the server halfway through the burst — no drain, no shutdown.
sleep "$(awk "BEGIN{print $SECS/2}")"
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=
wait "$LG" || true   # loadgen tolerates the dead connection
LG=

ACKED=$(wc -l < "$DIR/acked.log")
if [ "$ACKED" -lt 100 ]; then
  echo "FAIL: only $ACKED acked inserts before the kill — burst too small"
  exit 1
fi
echo "   $ACKED acked inserts at SIGKILL"

echo "== phase 2: restart on the same arenas (PMCheck on) + replay acked set"
rm -f "$DIR/port"
start_server "--check"
# On replay failure loadgen dumps the post-restart server stats (recovery
# duration, recovered keys, per-shard op counts) to stderr via the STATS
# op before exiting nonzero — keep that output next to the FAIL line.
if ! "$LOADGEN" --port "$PORT" --verify-acked "$DIR/acked.log"; then
  echo "FAIL: acked-write replay failed — post-restart stats dumped above"
  exit 1
fi

kill -TERM "$SRV"
wait "$SRV"
SRV=
echo "PASS: $ACKED acked writes all recovered after SIGKILL"
