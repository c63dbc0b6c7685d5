#!/bin/sh
# Builds the project under ThreadSanitizer (-DMCFI_SANITIZE=thread) in a
# separate build tree and runs the concurrency-sensitive test suites:
# the lock-free check/update transaction paths, the multithreaded guest
# runtime, dynamic linking racing executing threads (dlopen batches
# merge the CFG through the shared sig interner), the merge-vs-reference
# differential, the verifier (which runs at dlopen time while guest
# threads execute), and the VM
# execution tiers (threaded dispatch + segment cache racing dlopen's
# code-epoch invalidation; test_runtime/test_threads/test_tierdiff all
# run guests on the threaded tier by default), plus the adversarial
# gauntlet (test_attackcorpus + attack_check), whose torn-update attacks
# hammer txCheck from checker threads while an update storm runs — racy
# by construction, and must be TSan-clean — and the layered-type-map
# suite (test_mlta), whose tier-parameterized refined builds run the CFG
# merge under the refinement on every execution tier, and the tool
# suite (test_tools, whose gate cases run as verify_check, merge_check,
# attack_check, audit_check and unload_check; unload_check's
# --dlclose-churn case races
# dlopenBatch/dlcloseBatch retirement and epoch reclamation against a
# running guest).
#
# Usage: tools/tsan-check.sh [build-dir]   (default: build-tsan)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-tsan"}

cmake -B "$BUILD" -S "$ROOT" -DMCFI_SANITIZE=thread
cmake --build "$BUILD" -j "$(nproc)"
# test_schedcheck is deliberately excluded: its cooperative ucontext
# scheduler is single-threaded by construction and TSan's fiber support
# conflicts with swapcontext-based stacks.
if ! ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
    -R 'test_(tables|threads|dynlink|runtime|linker|parallelmerge|verifier|verifiermutants|tierdiff|attackcorpus|mlta|tools)|merge_check|verify_check|audit_check|attack_check|unload_check'; then
  cat >&2 <<'EOF'
tsan-check: FAILED.
If the failure is in the tables' check/update transactions, hunt the
interleaving deterministically with the schedule checker:
  build/tools/mcfi-schedcheck --scenario all --exhaustive --bound 2
A reported violation includes a schedule string; replay it with
  build/tools/mcfi-schedcheck --scenario NAME --replay 'SCHEDULE' --trace
and shrink it with --minimize before debugging.
EOF
  exit 1
fi
