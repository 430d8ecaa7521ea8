#!/usr/bin/env bash
# End-to-end smoke of the file-backed example tools on an 8 MiB image:
# persistent_kv creates it (sized by HART_ARENA_MB) and reopens it at the
# size it records, hartctl verifies, reports (format and geometry), dumps
# and recovers it, both tools resolve a relative path against the working
# directory, and hartctl refuses a missing path without creating a file
# there.
#
#   bash tools/examples_smoke.sh <persistent_kv> <hartctl>
set -euo pipefail

kv="$(realpath "$1")"
ctl="$(realpath "$2")"
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
stats="$("$ctl" "$img" stats)"
grep -q 'records' <<<"$stats" || fail "stats"
grep -Eq '\| image format +\| 4 +\|' <<<"$stats" || fail "stats: format 4"
grep -Eq '\| leaf geometry +\| object 32 B, first at 64 B,' <<<"$stats" ||
  fail "stats: 32-byte line-aligned leaf"
[ "$("$ctl" "$img" dump | wc -l)" -eq 2 ] || fail "dump"
"$ctl" "$img" recover 2 | grep -q '^recovered 2 records' || fail "recover"

# A relative path names a file in the working directory, whatever
# HART_ARENA_DIR says.
(cd "$dir" && HART_ARENA_DIR="$dir/elsewhere" HART_ARENA_MB=8 \
  "$kv" rel.pm put figs 5)
[ -f "$dir/rel.pm" ] || fail "relative image did not land in the working directory"
[ ! -e "$dir/elsewhere/rel.pm" ] || fail "relative image went to HART_ARENA_DIR"
[ "$(cd "$dir" && "$kv" rel.pm get figs)" = 5 ] || fail "relative reopen"
(cd "$dir" && "$ctl" rel.pm verify) | grep -q '^OK: 1 leaves' ||
  fail "hartctl relative verify"

for cmd in verify stats; do
  if "$ctl" "$dir/missing.pm" "$cmd" 2>/dev/null; then
    fail "hartctl $cmd accepted a missing path"
  fi
  [ ! -e "$dir/missing.pm" ] || fail "hartctl $cmd created a missing path"
done
echo "PASS: examples smoke (8 MiB image)"
