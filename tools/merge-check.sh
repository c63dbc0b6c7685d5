#!/bin/sh
# Differential CI gate for the class-level CFG merge:
#
#   - mcfi-merge compiles every embedded module of the separate
#     compilation and dynamic-plugin examples, merges the CFG with
#     generateCFG and with the per-site reference generator (plus seeded
#     module-order shuffles), and fails on any divergence;
#   - the emitted policy dumps must be byte-identical (cmp);
#   - every emitted .mcfo module must pass mcfi-verify --json.
#
# Usage: tools/merge-check.sh [mcfi-merge-binary] [mcfi-verify-binary]
#                             [examples-dir]
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
MERGE=${1:-"$ROOT/build/tools/mcfi-merge"}
VERIFY=${2:-"$ROOT/build/tools/mcfi-verify"}
EXAMPLES=${3:-"$ROOT/examples"}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

status=0
for example in separate_compilation dynamic_plugin; do
  echo "== merge differential: $example =="
  emit="$WORK/$example"
  mkdir -p "$emit"
  if ! "$MERGE" --shuffles 4 --seed 1 --emit "$emit" \
      "$EXAMPLES/$example.cpp"; then
    echo "merge-check: $example DIVERGED"
    status=1
    continue
  fi
  if ! cmp -s "$emit/policy-merge.txt" "$emit/policy-reference.txt"; then
    echo "merge-check: $example policy dumps differ"
    status=1
    continue
  fi
  for mcfo in "$emit"/*.mcfo; do
    if ! "$VERIFY" --json "$mcfo" | grep -q '"ok":true'; then
      echo "merge-check: $mcfo failed verification"
      status=1
    fi
  done
done

if [ "$status" -ne 0 ]; then
  echo "merge-check: FAILED"
else
  echo "merge-check: merge and reference policies identical, modules verify"
fi
exit "$status"
