#!/usr/bin/env python3
"""Builds and runs the MCFI repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the MCFI libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild only what changed. The benchmark binary's report goes to
stdout and its last line is the JSON result; build output goes to stderr.

--smoke runs every workload of BENCHMARK.json for one second, untraced and
traced, and checks that each metric BENCHMARK.json names is printed with
its unit and that the traced run records a span for every layer.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175
LAYERS = ["minic", "mir", "rewriter", "module", "verifier", "cfg", "linker",
          "tables", "runtime"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "mcfi_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "mcfi_perfbench")


def run(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (stdout text, parsed JSON result)."""
    trace_out = os.path.join(build_dir(), "traces",
                             "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s timed out" % workload)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            text, result = run(binary, name, DEFAULT_SEED, 1, trace)
            label = "%s trace=%d" % (name, trace)
            if not result.get("correct"):
                problems.append("%s: correct is false" % label)
            got = result.get("metrics", {})
            for m in wanted:
                if m["name"] not in got:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, want %r" % (
                        label, m["name"], got[m["name"]].get("unit"),
                        m["unit"]))
            if trace:
                spans = [l for l in text.splitlines() if l.startswith("spans:")]
                recorded = set(s.split(".")[0]
                               for s in (spans[-1].split()[1:] if spans else []))
                for layer in LAYERS:
                    if layer not in recorded:
                        problems.append("%s: no span for layer %s" % (
                            label, layer))
            print("smoke: %s: %d metrics checked" % (label, len(wanted)))
    for p in problems:
        print("smoke: FAIL: " + p)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)
    text, _ = run(binary, args.workload, args.seed, args.seconds,
                  args.trace == 1)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
