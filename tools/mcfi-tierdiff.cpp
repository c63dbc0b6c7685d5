//===- tools/mcfi-tierdiff.cpp - Execution-tier differential gate ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-tierdiff: proves the two execution tiers RunResult-identical and
/// measures their relative speed.
///
///   mcfi-tierdiff [options] example.cpp [more.cpp ...]
///     Differential mode (default): extracts every embedded MiniC module
///     from each example file, links them into one program, and runs it
///     under the interpreter and the threaded tier. Any divergence in
///     (stop reason, exit code, retired instructions, message, guest
///     output) fails. Program-level failures (a trap, a non-zero exit)
///     do NOT fail the tool as long as both tiers agree byte-for-byte.
///
///   mcfi-tierdiff --bench [--min-speedup X]
///     Runs the Fig. 5 indirect-call-heavy hot loop instrumented as 7
///     interleaved interpreter/threaded pairs, prints per-tier median
///     wall times, emits the tier-counter JSON, and fails when the
///     median per-pair speedup of threaded over the interpreter is
///     below X.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "metrics/Metrics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "tools/ToolCommon.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace mcfi;
using namespace mcfi::tools;

namespace {

constexpr ExecTier AllTiers[] = {ExecTier::Interpreter, ExecTier::Threaded};

const char *tierName(ExecTier T) {
  return T == ExecTier::Interpreter ? "interpreter" : "threaded";
}

struct TierOutcome {
  RunResult R;
  std::string Output;
  double Seconds = 0;
  VMTierStats Stats;
  bool Built = false;
};

/// Builds the program from \p Sources on the given tier and runs it.
TierOutcome runTier(const std::vector<std::string> &Sources, ExecTier Tier,
                    uint64_t Fuel, std::string &Error) {
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  TierOutcome O;
  BuiltProgram BP = buildProgram(Sources, Spec);
  if (!BP.Ok) {
    Error = BP.Error;
    return O;
  }
  Measured M = measureRun(BP, Fuel);
  O.R = M.Result;
  O.Output = M.Output;
  O.Seconds = M.Seconds;
  O.Stats = BP.M->vmStats();
  O.Built = true;
  return O;
}

const char *reasonName(StopReason R) {
  switch (R) {
  case StopReason::Exited:
    return "exited";
  case StopReason::CfiViolation:
    return "cfi-violation";
  case StopReason::Trap:
    return "trap";
  case StopReason::OutOfFuel:
    return "out-of-fuel";
  }
  return "?";
}

/// One example file: extract modules, link, run on both tiers, compare.
/// Returns 1 on divergence, 0 when identical, -1 when the example is
/// not linkable as a standalone program (skipped).
int diffExample(const std::string &Path) {
  std::string Text;
  if (!readFileText(Path, Text)) {
    std::fprintf(stderr, "mcfi-tierdiff: cannot read %s\n", Path.c_str());
    return 1;
  }
  std::vector<std::string> Sources;
  for (const ModuleSource &M : extractModules(Text))
    Sources.push_back(M.Source);
  if (Sources.empty()) {
    std::fprintf(stderr, "mcfi-tierdiff: %s: no embedded modules, skipped\n",
                 baseName(Path).c_str());
    return -1;
  }

  // Cap the run: tier identity is provable on a bounded prefix too, and
  // examples are allowed to be infinite under hostile inputs.
  constexpr uint64_t Fuel = 50'000'000;
  TierOutcome Ref;
  std::string Error;
  bool Diverged = false;
  for (ExecTier Tier : AllTiers) {
    TierOutcome O = runTier(Sources, Tier, Fuel, Error);
    if (!O.Built) {
      // Not a self-contained program (e.g. a library-only module set):
      // identical for both tiers by construction, nothing to compare.
      std::fprintf(stderr, "mcfi-tierdiff: %s: not linkable (%s), skipped\n",
                   baseName(Path).c_str(), Error.c_str());
      return -1;
    }
    if (Tier == ExecTier::Interpreter) {
      Ref = O;
      continue;
    }
    if (O.R.Reason != Ref.R.Reason || O.R.ExitCode != Ref.R.ExitCode ||
        O.R.Instructions != Ref.R.Instructions ||
        O.R.Message != Ref.R.Message || O.Output != Ref.Output) {
      Diverged = true;
      std::fprintf(stderr,
                   "mcfi-tierdiff: %s DIVERGED on %s:\n"
                   "  interpreter: %s exit=%lld instrs=%llu msg=\"%s\"\n"
                   "  %s: %s exit=%lld instrs=%llu msg=\"%s\"\n",
                   baseName(Path).c_str(), tierName(Tier),
                   reasonName(Ref.R.Reason),
                   static_cast<long long>(Ref.R.ExitCode),
                   static_cast<unsigned long long>(Ref.R.Instructions),
                   Ref.R.Message.c_str(), tierName(Tier),
                   reasonName(O.R.Reason),
                   static_cast<long long>(O.R.ExitCode),
                   static_cast<unsigned long long>(O.R.Instructions),
                   O.R.Message.c_str());
    }
  }
  if (!Diverged)
    std::printf("mcfi-tierdiff: %-24s %s, %llu instructions, both tiers "
                "identical\n",
                baseName(Path).c_str(), reasonName(Ref.R.Reason),
                static_cast<unsigned long long>(Ref.R.Instructions));
  return Diverged ? 1 : 0;
}

/// Median of \p V (upper median for an even count).
double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// --bench: the Fig. 5 indirect-call-heavy hot loop, instrumented, run as
/// BenchPairs interleaved interpreter/threaded pairs in this process. The
/// gated speedup is the median of the per-pair time ratios, so drift in
/// machine speed between runs cancels within each pair. Returns 1 when
/// it misses \p MinSpeedup.
int benchTiers(double MinSpeedup) {
  constexpr int BenchPairs = 7;
  // The profile with the most indirect branches per retired instruction:
  // that is where per-step decode hurts most and where the fused TxCheck
  // superinstruction pays.
  BenchProfile P = specProfiles().front();
  for (const BenchProfile &Cand : specProfiles())
    if (Cand.IndirectCallPct > P.IndirectCallPct ||
        (Cand.IndirectCallPct == P.IndirectCallPct &&
         Cand.WorkPerCall < P.WorkPerCall))
      P = Cand;
  P.WorkIterations = 20000;
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);

  TierOutcome Last[2];
  std::vector<double> Seconds[2], Ratios;
  for (int Pair = 0; Pair != BenchPairs; ++Pair) {
    for (int K = 0; K != 2; ++K) {
      std::string Error;
      TierOutcome O = runTier({Source}, AllTiers[K], ~0ull, Error);
      if (!O.Built) {
        std::fprintf(stderr, "mcfi-tierdiff: bench build failed: %s\n",
                     Error.c_str());
        return 1;
      }
      if (O.R.Reason != StopReason::Exited) {
        std::fprintf(stderr, "mcfi-tierdiff: bench run failed: %s\n",
                     O.R.Message.c_str());
        return 1;
      }
      if (K == 1 && O.R.Instructions != Last[0].R.Instructions) {
        std::fprintf(stderr,
                     "mcfi-tierdiff: bench instruction counts diverged\n");
        return 1;
      }
      Seconds[K].push_back(O.Seconds);
      Last[K] = O;
    }
    Ratios.push_back(Last[0].Seconds / Last[1].Seconds);
  }
  double Speedup = median(Ratios);

  TablePrinter Table;
  Table.addRow({"tier", "instrs", "median time", "Minstr/s", "speedup"});
  for (int K = 0; K != 2; ++K) {
    double Median = median(Seconds[K]);
    Table.addRow({tierName(AllTiers[K]),
                  std::to_string(Last[K].R.Instructions),
                  formatString("%.3f s", Median),
                  formatString("%.1f", static_cast<double>(
                                           Last[K].R.Instructions) /
                                           Median / 1e6),
                  formatString("%.2fx", K ? Speedup : 1.0)});
    std::printf("%s\n",
                vmStatsJSON(Last[K].Stats, tierName(AllTiers[K])).c_str());
  }
  Table.print();
  std::printf("workload: %s (indirect-call-heavy, instrumented); speedup "
              "is the median of %d interleaved pair ratios\n",
              P.Name.c_str(), BenchPairs);
  if (MinSpeedup > 0 && Speedup < MinSpeedup) {
    std::fprintf(stderr,
                 "mcfi-tierdiff: FAIL: threaded speedup %.2fx < required "
                 "%.2fx\n",
                 Speedup, MinSpeedup);
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Bench = false;
  double MinSpeedup = 0;
  std::vector<std::string> Files;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--bench") {
      Bench = true;
    } else if (Arg == "--min-speedup" && I + 1 < argc) {
      MinSpeedup = std::atof(argv[++I]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      usage("mcfi-tierdiff: unknown option; see the file header for usage");
    } else {
      Files.push_back(Arg);
    }
  }

  if (Bench)
    return benchTiers(MinSpeedup);

  if (Files.empty())
    usage("usage: mcfi-tierdiff [--bench [--min-speedup X]] example.cpp ...");
  int Status = 0;
  unsigned Compared = 0;
  for (const std::string &Path : Files) {
    int R = diffExample(Path);
    if (R > 0)
      Status = 1;
    else if (R == 0)
      ++Compared;
  }
  if (!Compared) {
    std::fprintf(stderr, "mcfi-tierdiff: no example was comparable\n");
    return 1;
  }
  return Status;
}
