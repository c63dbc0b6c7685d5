#!/bin/sh
# CI gate for the VM execution tiers:
#
#   - mcfi-tierdiff runs every embedded module set of the examples under
#     the interpreter and the threaded tier and fails on any
#     RunResult/output divergence (the tiers' correctness bar);
#   - mcfi-tierdiff --bench runs the Fig. 5 indirect-call-heavy hot loop
#     instrumented as interleaved interpreter/threaded pairs in one
#     process and fails when the median per-pair speedup of the threaded
#     tier over the decode-per-step interpreter is below 2x.
#
# The wall-clock gate only runs on >= 4 hardware threads (same policy as
# the merge-speed gate): on a starved CI machine the divergence check is
# the meaningful part and timing is noise.
#
# Usage: tools/vm-tier-check.sh [mcfi-tierdiff-binary] [examples-dir]
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
TIERDIFF=${1:-"$ROOT/build/tools/mcfi-tierdiff"}
EXAMPLES=${2:-"$ROOT/examples"}

echo "== tier differential over the examples =="
if ! "$TIERDIFF" "$EXAMPLES"/*.cpp; then
  echo "vm-tier-check: FAILED (tier divergence)"
  exit 1
fi

CORES=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n1 )
if [ "$CORES" -ge 4 ]; then
  echo "== threaded-tier speed gate (>= 2x over interpreter) =="
  if ! "$TIERDIFF" --bench --min-speedup 2; then
    echo "vm-tier-check: FAILED (threaded tier too slow)"
    exit 1
  fi
else
  echo "vm-tier-check: $CORES hardware threads, speed gate skipped"
  "$TIERDIFF" --bench || true
fi
echo "vm-tier-check: both tiers identical"
