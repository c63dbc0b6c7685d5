#!/bin/sh
# CI gate for the adversarial gauntlet:
#
#   - mcfi-attack synthesizes the exploit corpus against the built-in
#     hook-dispatch victim and runs every attack under both VM tiers;
#     any Survived verdict or missed expectation fails, and at
#     least 4 attack classes must have a nonzero corpus;
#   - the same corpus then runs over every example that links as a
#     standalone program (non-linkable examples are skipped by the tool
#     with a note, mirroring mcfi-tierdiff);
#   - determinism: the JSON report for a fixed seed must be
#     byte-identical across two runs (same corpus, same verdict
#     sequence).
#
# Usage: tools/attack-check.sh [mcfi-attack-binary] [examples-dir]
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ATTACK=${1:-"$ROOT/build/tools/mcfi-attack"}
EXAMPLES=${2:-"$ROOT/examples"}
TMP=${TMPDIR:-/tmp}/attack-check.$$
trap 'rm -f "$TMP.a" "$TMP.b"' EXIT

echo "== built-in victim, both tiers, full class roster =="
if ! "$ATTACK" --min-classes 4; then
  echo "attack-check: FAILED (built-in victim)"
  exit 1
fi

echo "== determinism: same seed, byte-identical JSON =="
"$ATTACK" --json --seed 0xfeed --max-per-class 2 --tier threaded > "$TMP.a"
"$ATTACK" --json --seed 0xfeed --max-per-class 2 --tier threaded > "$TMP.b"
if ! cmp -s "$TMP.a" "$TMP.b"; then
  echo "attack-check: FAILED (corpus not deterministic for a fixed seed)"
  diff "$TMP.a" "$TMP.b" | head -5 || true
  exit 1
fi

# The >=4-class floor is asserted on the built-in victim above; example
# programs contribute whatever attack surface they actually have (some
# expose no function-pointer slots), bounded by a tighter fuel budget.
echo "== example victims =="
if ! "$ATTACK" --max-per-class 2 --fuel 5000000 "$EXAMPLES"/*.cpp; then
  echo "attack-check: FAILED (examples)"
  exit 1
fi
echo "attack-check: every synthesized attack lost"
