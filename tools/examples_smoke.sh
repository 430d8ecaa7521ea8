#!/usr/bin/env bash
# End-to-end smoke of the file-backed example tools on an 8 MiB image:
# persistent_kv creates it (sized by HART_ARENA_MB) and reopens it at the
# size it records, hartctl verifies, reports, dumps and recovers it, and
# hartctl refuses a missing path without creating a file there.
#
#   bash tools/examples_smoke.sh <persistent_kv> <hartctl>
set -euo pipefail

kv="$1"
ctl="$2"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
img="$dir/smoke.pm"

fail() { echo "FAIL: $*" >&2; exit 1; }

HART_ARENA_MB=8 "$kv" "$img" put apples 12
[ "$(stat -c %s "$img")" -eq $((8 << 20)) ] || fail "image is not 8 MiB"
# Reopened at the recorded size, whatever HART_ARENA_MB says now.
"$kv" "$img" put pears 7
HART_ARENA_MB=16 "$kv" "$img" put plums 3
"$kv" "$img" del plums
[ "$("$kv" "$img" get apples)" = 12 ] || fail "get apples"
[ "$("$kv" "$img" scan a 10 | wc -l)" -eq 2 ] || fail "scan"
[ "$(stat -c %s "$img")" -eq $((8 << 20)) ] || fail "image was resized"

"$ctl" "$img" verify | grep -q '^OK: 2 leaves, 2 values' || fail "verify"
"$ctl" "$img" stats | grep -q 'records' || fail "stats"
[ "$("$ctl" "$img" dump | wc -l)" -eq 2 ] || fail "dump"
"$ctl" "$img" recover 2 | grep -q '^recovered 2 records' || fail "recover"

for cmd in verify stats; do
  if "$ctl" "$dir/missing.pm" "$cmd" 2>/dev/null; then
    fail "hartctl $cmd accepted a missing path"
  fi
  [ ! -e "$dir/missing.pm" ] || fail "hartctl $cmd created a missing path"
done
echo "PASS: examples smoke (8 MiB image)"
