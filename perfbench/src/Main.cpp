//===- perfbench/src/Main.cpp - The repository benchmark ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// mcfi_perfbench --workload <spec-run|plugin-churn|jit-concurrent>
///                --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// Prints a human-readable report and, as its last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. Untraced, metrics are the
/// end-to-end metrics; traced, the per-layer metrics (and the spans go to
/// --trace-out). See perfbench/NOTES.md for what each metric measures.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

void perfbench::reportTimings(Report &R, const Timings &T) {
  R.set("setup_s", T.Setups.median() * T.SetupFactor, "s");
  R.set("guest_mips", T.GuestMips / T.MipsFactor, "MIPS");
  R.set("op_p50_us", T.Ops.median() * T.RunFactor, "us");
  R.set("unload_p50_us", T.Unloads.median() * T.RunFactor, "us");
  R.set("compile_p50_us", T.Compiles.median() * T.CompileFactor, "us");
  std::printf("calibration factors: setup=%.4f compile=%.4f run=%.4f "
              "mips=%.4f (the JSON scales raw times by them)\n",
              T.SetupFactor, T.CompileFactor, T.RunFactor, T.MipsFactor);
  double Which = 0;
  double Tail = T.Ops.tail(&Which);
  std::printf("raw op: n=%zu p50=%.1fus p99=%.1fus windowed p99=%.1fus "
              "(>=10 beyond: p%.0f=%.1fus)\n",
              T.Ops.size(), T.Ops.median(), T.Ops.quantile(0.99),
              T.Ops.windowedP99(), Which * 100, Tail);
  Tail = T.Unloads.tail(&Which);
  std::printf("raw unload: n=%zu p50=%.1fus (>=10 beyond: p%.0f=%.1fus)\n",
              T.Unloads.size(), T.Unloads.median(), Which * 100, Tail);
  std::printf("raw compile: n=%zu p50=%.1fus; raw setup: n=%zu "
              "median=%.4fs; raw guest_mips=%.2f\n",
              T.Compiles.size(), T.Compiles.median(), T.Setups.size(),
              T.Setups.median(), T.GuestMips);
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "mcfi_perfbench: %s\nusage: mcfi_perfbench --workload "
               "<spec-run|plugin-churn|jit-concurrent> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               Why);
  std::exit(2);
}

void printJSONMetrics(const Report &R) {
  std::printf("\"metrics\": {");
  const char *Sep = "";
  for (const auto &[Name, VU] : R.Metrics) {
    double V = std::isfinite(VU.first) ? VU.first : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                Name.c_str(), V, VU.second.c_str());
    Sep = ", ";
  }
  std::printf("}");
}

void printTable(const char *Title, const Report &R) {
  if (R.Metrics.empty())
    return;
  std::printf("%s\n", Title);
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("  %-28s %14.4f %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    auto Value = [&]() -> const char * {
      if (I + 1 >= argc)
        usage("missing value");
      return argv[++I];
    };
    if (!std::strcmp(argv[I], "--workload")) {
      O.Workload = Value();
      HaveWorkload = true;
    } else if (!std::strcmp(argv[I], "--seed")) {
      O.Seed = std::strtoull(Value(), nullptr, 10);
      HaveSeed = true;
    } else if (!std::strcmp(argv[I], "--seconds")) {
      O.Seconds = std::strtod(Value(), nullptr);
    } else if (!std::strcmp(argv[I], "--trace")) {
      O.Trace = std::strcmp(Value(), "0") != 0;
    } else if (!std::strcmp(argv[I], "--trace-out")) {
      O.TraceOut = Value();
    } else {
      usage("unknown argument");
    }
  }
  if (!HaveWorkload || !HaveSeed || !(O.Seconds > 0))
    usage("--workload, --seed and a positive --seconds are required");

  RunOutput Out;
  if (O.Workload == "spec-run")
    Out = runSpecRun(O);
  else if (O.Workload == "plugin-churn")
    Out = runPluginChurn(O);
  else if (O.Workload == "jit-concurrent")
    Out = runJitConcurrent(O);
  else
    usage("unknown workload");

  Tally &C = Out.Checks;
  Report &Metrics = O.Trace ? Out.PerLayer : Out.EndToEnd;
  if (!O.Trace) {
    Metrics.set("peak_rss_mb", peakRssMb(), "MB");
    Metrics.set("ok_pct",
                C.Attempted ? 100.0 * double(C.Attempted - C.Failed) /
                                  double(C.Attempted)
                            : 0,
                "%");
  }
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::printf("checks: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed));
  for (const std::string &E : C.FirstErrors)
    std::printf("  FAIL: %s\n", E.c_str());
  printTable(O.Trace ? "per-layer metrics:" : "end-to-end metrics:", Metrics);
  if (O.Trace) {
    printTable("workload-specific per-layer metrics:", Out.Detail);
    std::printf("self time by span (ms):\n");
    for (const auto &[Name, Us] : tracer().selfTimes())
      std::printf("  %-28s %12.3f\n", Name.c_str(), Us / 1e3);
    std::string Layers;
    for (const std::string &N : tracer().names())
      Layers += " " + N;
    std::printf("spans:%s\n", Layers.c_str());
    if (!O.TraceOut.empty()) {
      bool Ok = tracer().write(O.TraceOut);
      std::printf("trace: %s %s\n", O.TraceOut.c_str(),
                  Ok ? "written" : "NOT written");
      if (!Ok)
        C.fail("cannot write the trace file");
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              C.Failed == 0 && C.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed));
  printJSONMetrics(Metrics);
  std::printf("}\n");
  return 0;
}
