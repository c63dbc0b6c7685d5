#!/bin/sh
# CI gate for the two-tier module verifier (syntactic templates backed
# by the abstract-interpretation engine):
#
#   - every module emitted from the examples passes the default two-tier
#     run on the syntactic fast path, and `--semantic-only` re-proves
#     each of them with a nonzero fixpoint count (the engine subsumes
#     the templates);
#   - a module built with `mcfi-cc --optimize` (scheduled ID loads,
#     shared sandbox masks) is rejected by `--syntactic-only`, proven by
#     `--semantic-only`, and decided by the semantic tier in the default
#     two-tier run;
#   - a module with a corrupted code byte exits nonzero under both
#     tiers.
#
# Usage: tools/verify-check.sh [mcfi-merge] [mcfi-verify] [mcfi-cc]
#                              [examples-dir]
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
MERGE=${1:-"$ROOT/build/tools/mcfi-merge"}
VERIFY=${2:-"$ROOT/build/tools/mcfi-verify"}
CC=${3:-"$ROOT/build/tools/mcfi-cc"}
EXAMPLES=${4:-"$ROOT/examples"}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

status=0
fail() {
  echo "verify-check: $1"
  status=1
}

# -- Tier agreement over the example modules ------------------------------
for example in quickstart separate_compilation dynamic_plugin; do
  emit="$WORK/$example"
  mkdir -p "$emit"
  "$MERGE" --shuffles 1 --seed 7 --emit "$emit" \
      "$EXAMPLES/$example.cpp" >/dev/null
done

count=0
for mcfo in "$WORK"/*/*.mcfo; do
  count=$((count + 1))
  if ! two=$("$VERIFY" --json "$mcfo"); then
    fail "$mcfo rejected by the two-tier verifier"
    continue
  fi
  echo "$two" | grep -q '"ok":true' || fail "$mcfo missing ok:true"
  echo "$two" | grep -q '"tier":"syntactic"' \
    || fail "$mcfo did not take the syntactic fast path"
  if ! sem=$("$VERIFY" --json --semantic-only "$mcfo"); then
    fail "$mcfo rejected by the semantic engine alone"
    continue
  fi
  echo "$sem" | grep -q '"tier":"semantic"' \
    || fail "$mcfo semantic-only run not decided semantically"
  echo "$sem" | grep -q '"fixpoint_iters":[1-9]' \
    || fail "$mcfo semantic proof reports zero fixpoint iterations"
done
[ "$count" -ge 4 ] || fail "only $count example modules emitted"
echo "== verify-check: $count example modules agree across tiers =="

# -- Optimized instrumentation needs (and gets) the semantic tier ---------
cat > "$WORK/opt.minic" <<'EOF'
long square(long x) { return x * x; }
long apply(long (*f)(long), long v) { return f(v); }
long sel(long x) {
  switch (x) {
  case 0: return 1;
  case 1: return 2;
  case 2: return 3;
  case 3: return 4;
  default: return 0;
  }
}
int main() {
  print_int(apply(square, 6) + sel(2));
  return 0;
}
EOF
"$CC" --optimize -o "$WORK/opt.mcfo" "$WORK/opt.minic"

if "$VERIFY" --syntactic-only "$WORK/opt.mcfo" >/dev/null; then
  fail "syntactic tier accepted the optimized module"
fi
"$VERIFY" --json --semantic-only "$WORK/opt.mcfo" | grep -q '"ok":true' \
  || fail "semantic tier rejected the optimized module"
"$VERIFY" --json "$WORK/opt.mcfo" | grep -q '"tier":"semantic"' \
  || fail "two-tier run on the optimized module not decided semantically"
echo "== verify-check: optimized module proven by the semantic tier =="

# -- A corrupted code byte must be rejected by both tiers -----------------
first=$(ls "$WORK"/*/*.mcfo | head -n 1)
mut="$WORK/mutant.mcfo"
cp "$first" "$mut"
# Container layout: magic(4) version(4) namelen(4) name codesize(8) code.
# Code offset 0 is an instruction boundary; 0xEE is an invalid opcode.
namelen=$(od -An -tu4 -j8 -N4 "$mut" | tr -d ' ')
codeoff=$((20 + namelen))
printf '\356' | dd of="$mut" bs=1 seek="$codeoff" conv=notrunc 2>/dev/null
if "$VERIFY" "$mut" >/dev/null 2>&1; then
  fail "two-tier verifier accepted the corrupted module"
fi
if "$VERIFY" --semantic-only "$mut" >/dev/null 2>&1; then
  fail "semantic tier accepted the corrupted module"
fi
echo "== verify-check: corrupted module rejected by both tiers =="

if [ "$status" -ne 0 ]; then
  echo "verify-check: FAILED"
else
  echo "verify-check: both tiers agree, optimized modules prove, mutants halt"
fi
exit "$status"
