//===- bench/bench_fig5_overhead.cpp - Figure 5 reproduction --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Figure 5: execution-time overhead of MCFI instrumentation on the
/// SPECCPU2006-shaped benchmarks, statically linked, with NO concurrent
/// update transactions. Each benchmark runs unprotected and
/// MCFI-instrumented; we report the retired-instruction overhead (the
/// deterministic analogue of the paper's wall-clock numbers on real
/// hardware) and the VM wall-time overhead as a secondary signal.
/// Expected shape: single-digit percentages, ~4-6% average.
///
/// The instrumented run is also timed on both execution tiers
/// (interpreter / threaded) — instruction counts are tier-invariant by
/// the differential harness, so the per-tier columns isolate pure engine
/// speed: decode-once handler dispatch with the fused TxCheck
/// superinstruction.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "metrics/Harness.h"
#include "metrics/Metrics.h"

#include <cstdio>

using namespace mcfi;

int main() {
  benchHeader("MCFI instrumentation overhead, no concurrent updates",
              "Figure 5");

  TablePrinter Table;
  Table.addRow({"benchmark", "base instrs", "mcfi instrs", "instr overhead",
                "interp", "threaded", "threaded speedup"});

  double SumInstr = 0, SumSpeedup = 0;
  unsigned Count = 0;
  VMTierStats Totals;
  for (const BenchProfile &P : specProfiles()) {
    std::string OutBase, OutMCFI;
    Measured Base = runProfile(P, /*Instrument=*/false, &OutBase);
    Measured Interp = runProfile(P, /*Instrument=*/true, &OutMCFI,
                                 ExecTier::Interpreter);
    if (Base.Result.Reason != StopReason::Exited ||
        Interp.Result.Reason != StopReason::Exited) {
      std::fprintf(stderr, "%s failed: %s / %s\n", P.Name.c_str(),
                   Base.Result.Message.c_str(),
                   Interp.Result.Message.c_str());
      return 1;
    }
    if (OutBase != OutMCFI) {
      std::fprintf(stderr, "%s: output diverged under instrumentation\n",
                   P.Name.c_str());
      return 1;
    }

    // Same instrumented program on the threaded tier; the retired-
    // instruction count must not move (RunResult identity).
    BuildSpec Spec;
    Spec.Tier = ExecTier::Threaded;
    BuiltProgram BP =
        buildProgram({generateWorkload(P, WorkloadVariant::Fixed)}, Spec);
    if (!BP.Ok) {
      std::fprintf(stderr, "%s: %s\n", P.Name.c_str(), BP.Error.c_str());
      return 1;
    }
    Measured Threaded = measureRun(BP);
    if (Threaded.Result.Reason != StopReason::Exited ||
        Threaded.Result.Instructions != Interp.Result.Instructions) {
      std::fprintf(stderr, "%s: tier diverged from the interpreter\n",
                   P.Name.c_str());
      return 1;
    }
    VMTierStats S = BP.M->vmStats();
    Totals.InterpInstrs += S.InterpInstrs;
    Totals.ThreadedInstrs += S.ThreadedInstrs;
    Totals.FusedChecks += S.FusedChecks;
    Totals.SegmentsBuilt += S.SegmentsBuilt;
    Totals.ModulesDecoded += S.ModulesDecoded;

    double InstrOv = 100.0 * (static_cast<double>(
                                  Interp.Result.Instructions) /
                                  static_cast<double>(
                                      Base.Result.Instructions) -
                              1.0);
    double Speedup = Interp.Seconds / Threaded.Seconds;
    SumInstr += InstrOv;
    SumSpeedup += Speedup;
    ++Count;
    Table.addRow({P.Name, std::to_string(Base.Result.Instructions),
                  std::to_string(Interp.Result.Instructions), pct(InstrOv),
                  formatString("%.3f s", Interp.Seconds),
                  formatString("%.3f s", Threaded.Seconds),
                  formatString("%.2fx", Speedup)});
  }
  Table.addRow({"average", "", "", pct(SumInstr / Count), "", "",
                formatString("%.2fx", SumSpeedup / Count)});
  Table.print();
  std::printf("%s\n", vmStatsJSON(Totals, "threaded-totals").c_str());
  std::printf("\npaper: ~4-6%% average on x86-32/64 (Fig. 5); instruction\n"
              "counts are tier-invariant, so the per-tier columns measure\n"
              "pure dispatch speed (see vm_tier_check for the gated run)\n");
  return 0;
}
