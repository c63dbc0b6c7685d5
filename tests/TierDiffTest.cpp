//===- tests/TierDiffTest.cpp - Differential execution-tier harness -------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The tier correctness bar: a RunResult (stop reason, exit code,
/// retired-instruction count, message) and the guest's output must be
/// byte-identical whether a program runs on the decode-per-step
/// interpreter or the predecoded threaded-dispatch tier. Exercised over
/// the SPEC-shaped workloads, the SecurityTest attack corpus (mid-run
/// memory corruption included), fuel-sliced resumption, seeded
/// dlopen/segment-invalidation interleavings, code-range reuse, and
/// modules sealed above a reclaimed hole.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "runtime/Dispatch.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <thread>

using namespace mcfi;

namespace {

constexpr ExecTier AllTiers[] = {ExecTier::Interpreter, ExecTier::Threaded};

const char *tierName(ExecTier T) {
  return T == ExecTier::Interpreter ? "interpreter" : "threaded";
}

struct TierRun {
  RunResult R;
  std::string Output;
  bool Ok = false;
};

void expectIdentical(const TierRun &Ref, const TierRun &Got, ExecTier Tier,
                     const std::string &What) {
  ASSERT_TRUE(Ref.Ok && Got.Ok) << What;
  EXPECT_EQ(Ref.R.Reason, Got.R.Reason)
      << What << " on " << tierName(Tier) << ": " << Got.R.Message;
  EXPECT_EQ(Ref.R.ExitCode, Got.R.ExitCode) << What << " on " << tierName(Tier);
  EXPECT_EQ(Ref.R.Instructions, Got.R.Instructions)
      << What << " on " << tierName(Tier);
  EXPECT_EQ(Ref.R.Message, Got.R.Message) << What << " on " << tierName(Tier);
  EXPECT_EQ(Ref.Output, Got.Output) << What << " on " << tierName(Tier);
}

TierRun runOnTier(const std::vector<std::string> &Sources, BuildSpec Spec,
                  ExecTier Tier, uint64_t Fuel = ~0ull) {
  Spec.Tier = Tier;
  BuiltProgram BP = buildProgram(Sources, Spec);
  EXPECT_TRUE(BP.Ok) << BP.Error;
  if (!BP.Ok)
    return {};
  Measured M = measureRun(BP, Fuel);
  return {M.Result, M.Output, true};
}

void expectTierInvariant(const std::vector<std::string> &Sources,
                         const BuildSpec &Spec, const std::string &What,
                         uint64_t Fuel = ~0ull) {
  TierRun Ref = runOnTier(Sources, Spec, ExecTier::Interpreter, Fuel);
  expectIdentical(Ref, runOnTier(Sources, Spec, ExecTier::Threaded, Fuel),
                  ExecTier::Threaded, What);
}

//===----------------------------------------------------------------------===//
// Program corpus: every syscall family, traps, and CFI stops
//===----------------------------------------------------------------------===//

TEST(TierDiff, ProgramCorpusIsTierInvariant) {
  const std::pair<const char *, const char *> Corpus[] = {
      {"hot-indirect", R"(
        long w0(long x) { return x + 1; }
        long w1(long x) { return x * 3; }
        long (*tab[2])(long);
        int main() {
          tab[0] = w0;
          tab[1] = w1;
          long acc = 0;
          long i;
          for (i = 0; i < 20000; i = i + 1) acc = acc + tab[i & 1](i);
          print_int(acc & 65535);
          return 0;
        }
      )"},
      {"recursion-stack", R"(
        long fib(long n) {
          if (n < 2) return n;
          return fib(n - 1) + fib(n - 2);
        }
        int main() { print_int(fib(18)); return 0; }
      )"},
      {"setjmp-longjmp", R"(
        long buf[4];
        int main() {
          long r = setjmp(buf);
          print_int(r);
          if (r < 3) longjmp(buf, r + 1);
          return (int)r;
        }
      )"},
      {"signals", R"(
        void inner(int s) { print_str("inner\n"); }
        void outer(int s) {
          signal(2, inner);
          raise(2);
          print_str("outer\n");
        }
        int main() {
          signal(1, outer);
          raise(1);
          print_str("main\n");
          return 0;
        }
      )"},
      {"malloc-strings", R"(
        int main() {
          long *p = (long *)malloc(64);
          long i;
          for (i = 0; i < 8; i = i + 1) p[i] = i * i;
          long acc = 0;
          for (i = 0; i < 8; i = i + 1) acc = acc + p[i];
          print_int(acc);
          return (int)(acc & 7);
        }
      )"},
      {"div-trap", R"(
        int main() {
          long z = 0;
          long i;
          for (i = 0; i < 500; i = i + 1) z = z + i;
          print_int(100 / (z - 124750)); /* divides by zero */
          return 1;
        }
      )"},
      {"wx-trap", R"(
        int main() {
          long *code = (long *)65536;
          *code = 42; /* store into the code region faults */
          return 1;
        }
      )"},
      {"cfi-violation", R"(
        typedef long (*Fn)(long);
        long victim(char *s) { return (long)s; }
        Fn p = (Fn)victim;
        int main() { print_int(p(5)); return 0; }
      )"},
  };

  for (const auto &[Name, Source] : Corpus) {
    BuildSpec Spec;
    Spec.LinkRtLibrary = false;
    expectTierInvariant({Source}, Spec, Name);
    // Fuel exhaustion must land on the same instruction boundary (the
    // threaded tier runs a fused check only when it can fully retire).
    expectTierInvariant({Source}, Spec, std::string(Name) + "/fuel-5000",
                        5000);
    expectTierInvariant({Source}, Spec, std::string(Name) + "/fuel-4999",
                        4999);
  }
}

TEST(TierDiff, WorkloadProfilesAreTierInvariant) {
  // The first SPEC-shaped profiles, scaled down: full Fig. 5 runs are
  // the bench's job, identity across tiers is this test's.
  unsigned Count = 0;
  for (BenchProfile P : specProfiles()) {
    if (++Count > 4)
      break;
    P.WorkIterations = 300;
    for (bool Instrument : {true, false}) {
      std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
      BuildSpec Spec;
      Spec.Instrument = Instrument;
      expectTierInvariant({Source}, Spec,
                          P.Name + (Instrument ? "/mcfi" : "/base"));
    }
  }
}

//===----------------------------------------------------------------------===//
// Attack corpus: mid-run corruption, identical verdicts per tier
//===----------------------------------------------------------------------===//

const char *AttackVictimSource = R"(
  long benign(long x) { return x + 1; }
  long benign2(long x) { return x + 2; }
  long same_type_other(long x) { return x * 2; }
  long wrong_type(long a, long b) { return a * b; }
  long (*hook)(long) = benign;
  long (*spare)(long) = same_type_other;
  long (*wrong)(long, long) = wrong_type;
  int main() {
    long acc = 0;
    long i;
    for (i = 0; i < 200000; i = i + 1) acc = acc + hook(i);
    print_int(acc & 65535);
    return 0;
  }
)";

/// Runs the victim to the 50k-instruction mark, corrupts `hook` with the
/// target function \p TargetName (+ \p TargetOffset), and runs to the
/// end. All tiers see the identical machine state at the corruption
/// point, so the verdict tuple must match exactly.
TierRun attackOnTier(ExecTier Tier, const std::string &TargetName,
                     uint64_t TargetOffset) {
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  BuiltProgram BP = buildProgram({AttackVictimSource}, Spec);
  EXPECT_TRUE(BP.Ok) << BP.Error;
  if (!BP.Ok)
    return {};
  uint64_t HookAddr = 0;
  for (const MappedModule &Mod : BP.M->modules()) {
    auto It = Mod.Obj->DataSymbols.find("hook");
    if (It != Mod.Obj->DataSymbols.end())
      HookAddr = Mod.DataBase + It->second;
  }
  EXPECT_NE(HookAddr, 0u);
  Thread T;
  EXPECT_TRUE(BP.M->makeThread("_start", T));
  RunResult Mid = BP.M->run(T, 50'000);
  EXPECT_EQ(Mid.Reason, StopReason::OutOfFuel) << Mid.Message;
  EXPECT_TRUE(
      BP.M->store(HookAddr, 8, BP.M->findFunction(TargetName) + TargetOffset));
  TierRun Out;
  Out.R = BP.M->run(T, ~0ull);
  Out.Output = BP.M->takeOutput();
  Out.Ok = true;
  return Out;
}

TEST(TierDiff, AttackCorpusIsTierInvariant) {
  const std::tuple<const char *, const char *, uint64_t, StopReason> Cases[] =
      {
          {"mid-instruction", "benign2", 3, StopReason::CfiViolation},
          {"wrong-type", "wrong_type", 0, StopReason::CfiViolation},
          {"same-type-swap", "same_type_other", 0, StopReason::Exited},
      };
  for (const auto &[What, Target, Off, Expected] : Cases) {
    TierRun Ref = attackOnTier(ExecTier::Interpreter, Target, Off);
    ASSERT_TRUE(Ref.Ok);
    EXPECT_EQ(Ref.R.Reason, Expected) << What << ": " << Ref.R.Message;
    expectIdentical(Ref, attackOnTier(ExecTier::Threaded, Target, Off),
                    ExecTier::Threaded, What);
  }
}

//===----------------------------------------------------------------------===//
// Segment invalidation during dlopen
//===----------------------------------------------------------------------===//

std::string tierPluginSource(int I) {
  std::string N = std::to_string(I);
  return "long tier" + N + "_a(long x) { return x + " + N + "; }\n" +
         "long tier" + N + "_drive(long v) {\n" +
         "  long (*f)(long);\n" +
         "  f = tier" + N + "_a;\n" +
         "  return f(v);\n}\n";
}

std::vector<MCFIObject> compilePlugins(int Count) {
  std::vector<MCFIObject> Plugins;
  for (int I = 0; I != Count; ++I) {
    CompileOptions CO;
    CO.ModuleName = "tier" + std::to_string(I);
    CO.TailCalls = false;
    CompileResult CR = compileModule(tierPluginSource(I), CO);
    EXPECT_TRUE(CR.Ok) << "plugin " << I;
    Plugins.push_back(std::move(CR.Obj));
  }
  return Plugins;
}

const char *SlicedWorkerSource = R"(
  long w0(long x) { return x + 1; }
  long w1(long x) { return x * 2; }
  long (*tab[2])(long);
  long worker(long iters) {
    tab[0] = w0;
    tab[1] = w1;
    long acc = 0;
    long i;
    for (i = 0; i < iters; i = i + 1) acc = acc + tab[i & 1](i);
    exit((int)(acc & 127));
    return acc;
  }
  int main() { return 0; }
)";

/// Seeded interleaving fuzz: run the hot worker in pseudo-random fuel
/// slices, injecting a dlopen (code-epoch bump, segment invalidation) at
/// seeded slice boundaries. The slice schedule is a pure function of the
/// seed, so the final RunResult must be identical on both tiers even
/// though the threaded tier keeps re-checking out its segment.
TierRun runSlicedWithDlopen(ExecTier Tier, uint64_t Seed,
                            const std::vector<MCFIObject> &Plugins) {
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  BuiltProgram BP = buildProgram({SlicedWorkerSource}, Spec);
  EXPECT_TRUE(BP.Ok) << BP.Error;
  if (!BP.Ok)
    return {};
  for (const MCFIObject &P : Plugins)
    BP.L->registerLibrary(P);

  Thread T;
  EXPECT_TRUE(BP.M->makeThread("worker", T));
  T.Regs[visa::RegArg0] = 6000;

  std::mt19937_64 Rng(Seed);
  size_t NextLib = 0;
  TierRun Out;
  while (true) {
    uint64_t Slice = 1 + Rng() % 97;
    Out.R = BP.M->run(T, Slice);
    if (Out.R.Reason != StopReason::OutOfFuel)
      break;
    if (Rng() % 4 == 0 && NextLib < Plugins.size())
      BP.L->dlopenBatch({static_cast<int64_t>(NextLib++)});
  }
  Out.Output = BP.M->takeOutput();
  Out.Ok = true;
  return Out;
}

TEST(TierDiff, DlopenInvalidationFuzzIsTierInvariant) {
  std::vector<MCFIObject> Plugins = compilePlugins(12);
  for (uint64_t Seed : {1ull, 7ull, 42ull}) {
    TierRun Ref = runSlicedWithDlopen(ExecTier::Interpreter, Seed, Plugins);
    ASSERT_TRUE(Ref.Ok);
    EXPECT_EQ(Ref.R.Reason, StopReason::Exited) << Ref.R.Message;
    expectIdentical(Ref,
                    runSlicedWithDlopen(ExecTier::Threaded, Seed, Plugins),
                    ExecTier::Threaded,
                    "dlopen-fuzz/seed-" + std::to_string(Seed));
  }
}

/// Runs the worker over 400000 iterations: a 20000-instruction warm-up,
/// then the rest while \p During (if any) runs beside it.
TierRun runLongWorker(BuiltProgram &BP, const std::function<void()> &During) {
  Thread T;
  EXPECT_TRUE(BP.M->makeThread("worker", T));
  T.Regs[visa::RegArg0] = 400000;
  RunResult Warm = BP.M->run(T, 20'000);
  EXPECT_EQ(Warm.Reason, StopReason::OutOfFuel) << Warm.Message;
  TierRun Out;
  std::thread Guest([&] { Out.R = BP.M->run(T, ~0ull); });
  if (During)
    During();
  Guest.join();
  Out.Output = BP.M->takeOutput();
  Out.Ok = true;
  return Out;
}

TEST(TierDiff, ConcurrentDlopenDuringThreadedExecution) {
  // Live invalidation: a guest thread running on a checked-out segment
  // races dlopenBatch bumping the code epoch. The worker must re-check
  // out the segment at a block boundary, finish exactly as the
  // interpreter does, and every load must succeed.
  std::vector<MCFIObject> Plugins = compilePlugins(12);
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = ExecTier::Interpreter;
  BuiltProgram Ref = buildProgram({SlicedWorkerSource}, Spec);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  TierRun RefRun = runLongWorker(Ref, nullptr);
  ASSERT_EQ(RefRun.R.Reason, StopReason::Exited) << RefRun.R.Message;

  Spec.Tier = ExecTier::Threaded;
  BuiltProgram BP = buildProgram({SlicedWorkerSource}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  for (const MCFIObject &P : Plugins)
    BP.L->registerLibrary(P);
  int BadHandles = 0;
  TierRun Got = runLongWorker(BP, [&] {
    for (size_t I = 0; I != Plugins.size(); ++I)
      for (const DlopenResult &D :
           BP.L->dlopenBatch({static_cast<int64_t>(I)}))
        BadHandles += D.Handle < 0;
  });
  EXPECT_EQ(BadHandles, 0) << BP.L->lastError();
  expectIdentical(RefRun, Got, ExecTier::Threaded, "live dlopen");
  EXPECT_GE(BP.M->vmStats().SegmentsBuilt, 2u)
      << "segment never re-checked out after dlopen";
}

/// The checked worker with a print every 1024 iterations: each print is
/// a syscall boundary, so reclaim grace advances while it runs.
const char *ChurnWorkerSource = R"(
  long w0(long x) { return x + 1; }
  long w1(long x) { return x * 2; }
  long (*tab[2])(long);
  long worker(long iters) {
    tab[0] = w0;
    tab[1] = w1;
    long acc = 0;
    long i;
    for (i = 0; i < iters; i = i + 1) {
      acc = acc + tab[i & 1](i ^ (acc >> 3));
      if ((i & 1023) == 0) print_int(i);
    }
    exit((int)(acc & 127));
    return acc;
  }
  int main() { return 0; }
)";

TEST(TierDiff, ConcurrentDlcloseAndReclaimDuringThreadedExecution) {
  // Live churn: a guest thread making fused checked calls on a
  // checked-out segment races dlopenBatch, dlclose and drainReclaim, so
  // segment rebuilds reuse module decodes while ranges are reclaimed and
  // reused. A dlclose or a reopen may reinstall the policy with a
  // version bump, and a check racing that legitimately retries, so only
  // the instruction count may exceed the interpreter's; the outcome and
  // the output must match it exactly, and every load and close must
  // succeed.
  std::vector<MCFIObject> Plugins = compilePlugins(12);
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = ExecTier::Interpreter;
  BuiltProgram Ref = buildProgram({ChurnWorkerSource}, Spec);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  TierRun RefRun = runLongWorker(Ref, nullptr);
  ASSERT_EQ(RefRun.R.Reason, StopReason::Exited) << RefRun.R.Message;

  Spec.Tier = ExecTier::Threaded;
  BuiltProgram BP = buildProgram({ChurnWorkerSource}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  for (const MCFIObject &P : Plugins)
    BP.L->registerLibrary(P);
  int BadHandles = 0, BadCloses = 0;
  TierRun Got = runLongWorker(BP, [&] {
    // Four rounds over the plugins with one live at a time: open the
    // next, close the previous and drain until its range is reclaimed
    // (the worker's prints advance the grace period; once it exits,
    // everything drains), so later opens reuse the reclaimed ranges.
    int64_t Live = -1;
    for (int Round = 0; Round != 4; ++Round)
      for (size_t I = 0; I != Plugins.size(); ++I) {
        for (const DlopenResult &D :
             BP.L->dlopenBatch({static_cast<int64_t>(I)})) {
          BadHandles += D.Handle < 0;
          if (Live >= 0)
            BadCloses += !BP.L->dlcloseOne(Live);
          Live = D.Handle;
        }
        while (BP.M->reclaimPending()) {
          BP.M->drainReclaim();
          std::this_thread::yield();
        }
      }
  });
  EXPECT_EQ(BadHandles, 0) << BP.L->lastError();
  EXPECT_EQ(BadCloses, 0) << BP.L->lastError();
  BP.M->drainReclaim();
  EXPECT_GT(BP.M->reclaimStats().Reclaimed, 0u);
  ASSERT_TRUE(Got.Ok);
  EXPECT_EQ(RefRun.R.Reason, Got.R.Reason) << Got.R.Message;
  EXPECT_EQ(RefRun.R.ExitCode, Got.R.ExitCode);
  EXPECT_EQ(RefRun.R.Message, Got.R.Message);
  EXPECT_EQ(RefRun.Output, Got.Output);
  EXPECT_GE(Got.R.Instructions, RefRun.R.Instructions);
  VMTierStats St = BP.M->vmStats();
  EXPECT_GT(St.FusedChecks, 0u);
  EXPECT_GE(St.SegmentsBuilt, 2u)
      << "segment never re-checked out after dlopen/dlclose";
}

/// A plugin whose probe<N> exits with N: it calls through a checked
/// function pointer first so its decode holds a fused TxCheck.
MCFIObject exitPlugin(int N, int Padding = 0) {
  std::string Id = std::to_string(N);
  std::string Src = "long pad" + Id + "(long x) { return x + " + Id + "; }\n" +
                    "long (*padp" + Id + ")(long) = pad" + Id + ";\n";
  for (int K = 0; K != Padding; ++K)
    Src += "long fill" + Id + "_" + std::to_string(K) +
           "(long x) { return x * " + std::to_string(K + 2) + " + " + Id +
           "; }\n";
  Src += "long probe" + Id + "(long x) { exit((int)(padp" + Id +
         "(x) - x)); return x; }\n";
  CompileOptions CO;
  CO.ModuleName = "exit" + Id;
  CompileResult CR = compileModule(Src, CO);
  EXPECT_TRUE(CR.Ok) << (CR.Errors.empty() ? "" : CR.Errors.front());
  return std::move(CR.Obj);
}

/// Runs probe<N> to completion on a fresh thread.
RunResult runProbe(Machine &M, int N) {
  Thread T;
  EXPECT_TRUE(M.makeThread("probe" + std::to_string(N), T));
  return M.run(T, 100'000);
}

TEST(TierDiff, StaleSegmentIsRefusedAfterCodeRangeReuse) {
  // Deterministic replay of a stale build racing a range reuse: decode a
  // segment over module A, dlclose + reclaim A, map B into the same
  // range, then offer A's segment to the cache. The epoch rule must
  // refuse it, the rebuilt segment must hold B's own decode at that
  // base (keyed by B's serial, not by the reused range), and B must run
  // its own bytes.
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = ExecTier::Threaded;
  BuiltProgram BP = buildProgram({"int main() { return 0; }"}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  BP.L->registerLibrary(exitPlugin(7));
  BP.L->registerLibrary(exitPlugin(9));

  int64_t A = BP.L->dlopen(0);
  ASSERT_GE(A, 0) << BP.L->lastError();
  uint64_t Base = BP.M->modules()[static_cast<size_t>(A)].CodeBase;
  uint64_t SerialA = BP.M->modules()[static_cast<size_t>(A)].Serial;
  std::shared_ptr<const DecodedSegment> Old = BP.M->segment();
  ASSERT_TRUE(Old);
  const DecodedModule *OldA = Old->moduleAt(Base);
  ASSERT_TRUE(OldA && OldA->Serial == SerialA && OldA->Base == Base);

  ASSERT_TRUE(BP.L->dlcloseOne(A));
  BP.M->drainReclaim();
  int64_t B = BP.L->dlopen(1);
  ASSERT_GE(B, 0) << BP.L->lastError();
  ASSERT_EQ(BP.M->modules()[static_cast<size_t>(B)].CodeBase, Base);
  uint64_t SerialB = BP.M->modules()[static_cast<size_t>(B)].Serial;
  ASSERT_NE(SerialB, SerialA);

  EXPECT_FALSE(BP.M->installSegment(Old));
  std::shared_ptr<const DecodedSegment> New = BP.M->segment();
  ASSERT_TRUE(New);
  const DecodedModule *NewB = New->moduleAt(Base);
  ASSERT_TRUE(NewB);
  EXPECT_EQ(NewB->Serial, SerialB) << "B's range served A's decode";
  EXPECT_EQ(NewB->Base, Base);
  RunResult R = runProbe(*BP.M, 9);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(R.ExitCode, 9) << "probe ran the reclaimed module's bytes";
}

//===----------------------------------------------------------------------===//
// Per-module decodes
//===----------------------------------------------------------------------===//

TEST(TierDiff, DlopenDecodesOnlyTheNewModule) {
  // Dlopen-to-first-execution must stay flat as the module count grows.
  // As a count: each dlopen costs exactly one module decode, and a
  // dlclose costs none — the surviving modules' decodes are reused.
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = ExecTier::Threaded;
  BuiltProgram BP = buildProgram({"int main() { return 0; }"}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  constexpr int NumPlugins = 12;
  std::vector<int64_t> Handles;
  for (int N = 1; N <= NumPlugins; ++N)
    BP.L->registerLibrary(exitPlugin(N));
  ASSERT_TRUE(BP.M->segment()); // decode the program itself up front

  for (int N = 1; N <= NumPlugins; ++N) {
    uint64_t Before = BP.M->vmStats().ModulesDecoded;
    Handles.push_back(BP.L->dlopen(N - 1));
    ASSERT_GE(Handles.back(), 0) << BP.L->lastError();
    VMTierStats Sealed = BP.M->vmStats();
    RunResult R = runProbe(*BP.M, N);
    ASSERT_EQ(R.Reason, StopReason::Exited) << R.Message;
    EXPECT_EQ(R.ExitCode, N);
    EXPECT_EQ(BP.M->vmStats().ModulesDecoded - Before, 1u)
        << "dlopen #" << N << " re-decoded sealed modules";
    // The new module's decode was attached at seal: the probe's segment
    // build only snapshots decodes.
    VMTierStats Probed = BP.M->vmStats();
    EXPECT_GT(Probed.SegmentsBuilt, Sealed.SegmentsBuilt);
    EXPECT_EQ(Probed.ModulesDecoded, Sealed.ModulesDecoded)
        << "dlopen #" << N << ": the segment build decoded a module";
  }

  VMTierStats Before = BP.M->vmStats();
  ASSERT_TRUE(BP.L->dlcloseOne(Handles[4]));
  BP.M->drainReclaim();
  RunResult R = runProbe(*BP.M, NumPlugins);
  ASSERT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(R.ExitCode, NumPlugins);
  VMTierStats After = BP.M->vmStats();
  EXPECT_GT(After.SegmentsBuilt, Before.SegmentsBuilt)
      << "the reclaim never invalidated the segment";
  EXPECT_EQ(After.ModulesDecoded, Before.ModulesDecoded)
      << "dlclose re-decoded surviving modules";
  EXPECT_EQ(After.InterpInstrs, Before.InterpInstrs);
}

TEST(TierDiff, UnverifiedLinkDecodesEachModuleOnce) {
  // With LinkOptions::Verify off there is no verified disassembly to
  // hand over: sealModule disassembles, once per module, and the segment
  // build still decodes nothing.
  Machine M;
  LinkOptions LO;
  LO.Verify = false;
  Linker L(M, LO);
  CompileResult Main =
      compileModule("int main() { return 0; }", {.ModuleName = "main"});
  ASSERT_TRUE(Main.Ok);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  std::string Err;
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  EXPECT_EQ(M.vmStats().ModulesDecoded, M.modules().size())
      << "the static link decoded a module other than once";

  L.registerLibrary(exitPlugin(5));
  uint64_t Before = M.vmStats().ModulesDecoded;
  int64_t H = L.dlopen(0);
  ASSERT_GE(H, 0) << L.lastError();
  EXPECT_EQ(M.vmStats().ModulesDecoded - Before, 1u);
  for (const MappedModule &MM : M.modules())
    EXPECT_TRUE(MM.Sealed && MM.Decode) << "sealed without a decode";

  VMTierStats Sealed = M.vmStats();
  RunResult R = runProbe(M, 5);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(R.ExitCode, 5);
  VMTierStats Probed = M.vmStats();
  EXPECT_GT(Probed.SegmentsBuilt, Sealed.SegmentsBuilt);
  EXPECT_EQ(Probed.ModulesDecoded, Sealed.ModulesDecoded);
  EXPECT_EQ(Probed.InterpInstrs, Sealed.InterpInstrs);
}

TEST(TierDiff, ReclaimReleasesTheModuleDecode) {
  // A reclaimed module is a tombstone: it must not keep its decode
  // alive, or dlopen/dlclose churn grows memory without bound. Once the
  // segment that still held it is replaced, the decode is gone.
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = ExecTier::Threaded;
  BuiltProgram BP = buildProgram({"int main() { return 0; }"}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  BP.L->registerLibrary(exitPlugin(4));
  BP.L->registerLibrary(exitPlugin(6));
  // Mapped below a survivor, so the reclaimed entry stays a tombstone
  // instead of being trimmed off the top.
  int64_t H = BP.L->dlopen(0);
  int64_t Keep = BP.L->dlopen(1);
  ASSERT_TRUE(H >= 0 && Keep >= 0) << BP.L->lastError();
  std::weak_ptr<const DecodedModule> Decode =
      BP.M->modules()[static_cast<size_t>(H)].Decode;
  ASSERT_FALSE(Decode.expired()) << "sealed without a decode";

  RunResult R = runProbe(*BP.M, 4);
  ASSERT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(R.ExitCode, 4);
  ASSERT_TRUE(BP.L->dlcloseOne(H));
  EXPECT_FALSE(Decode.expired()) << "dropped before the grace period";
  BP.M->drainReclaim();
  const MappedModule &Tomb = BP.M->modules()[static_cast<size_t>(H)];
  ASSERT_TRUE(Tomb.Reclaimed);
  EXPECT_FALSE(Tomb.Decode) << "a tombstone holds a decode";

  ASSERT_TRUE(BP.M->segment()); // replaces the segment that held it
  EXPECT_TRUE(Decode.expired()) << "the reclaimed module's decode leaked";
  R = runProbe(*BP.M, 6);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(R.ExitCode, 6);
}

/// The hole scenario: plugin 1 is dlopened below a filler (plugin 2),
/// dlclosed and reclaimed, and a plugin too large for the hole
/// (plugin 3) is mapped above it — outside the contiguous sealed prefix.
struct HoleRun {
  BuiltProgram BP;
  TierRun Probe;
  VMTierStats Delta; ///< tier counters of the probe run alone
};

HoleRun runPastHole(ExecTier Tier) {
  HoleRun H;
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  H.BP = buildProgram({"int main() { return 0; }"}, Spec);
  EXPECT_TRUE(H.BP.Ok) << H.BP.Error;
  if (!H.BP.Ok)
    return H;
  Linker &L = *H.BP.L;
  L.registerLibrary(exitPlugin(1));
  L.registerLibrary(exitPlugin(2));
  L.registerLibrary(exitPlugin(3, /*Padding=*/8));
  int64_t Low = L.dlopen(0);
  EXPECT_GE(L.dlopen(1), 0) << L.lastError();
  EXPECT_TRUE(Low >= 0 && L.dlcloseOne(Low)) << L.lastError();
  H.BP.M->drainReclaim();
  int64_t High = L.dlopen(2);
  EXPECT_GE(High, 0) << L.lastError();
  if (High < 0)
    return H;
  const auto &Mods = H.BP.M->modules();
  EXPECT_GT(Mods[static_cast<size_t>(High)].CodeBase,
            Mods[static_cast<size_t>(Low)].CodeBase)
      << "plugin 3 reused the hole instead of landing above it";

  VMTierStats Before = H.BP.M->vmStats();
  H.Probe.R = runProbe(*H.BP.M, 3);
  H.Probe.Output = H.BP.M->takeOutput();
  H.Probe.Ok = true;
  VMTierStats After = H.BP.M->vmStats();
  H.Delta.InterpInstrs = After.InterpInstrs - Before.InterpInstrs;
  H.Delta.ThreadedInstrs = After.ThreadedInstrs - Before.ThreadedInstrs;
  return H;
}

TEST(TierDiff, ModuleDecodesMatchTheirBytesPastAReclaimedHole) {
  HoleRun Ref = runPastHole(ExecTier::Interpreter);
  HoleRun Got = runPastHole(ExecTier::Threaded);
  ASSERT_TRUE(Ref.Probe.Ok && Got.Probe.Ok);
  EXPECT_EQ(Ref.Probe.R.Reason, StopReason::Exited) << Ref.Probe.R.Message;
  EXPECT_EQ(Ref.Probe.R.ExitCode, 3);
  expectIdentical(Ref.Probe, Got.Probe, ExecTier::Threaded, "past-hole");
  // Outside the sealed prefix, yet fully predecoded.
  EXPECT_EQ(Got.Delta.InterpInstrs, 0u);
  EXPECT_EQ(Got.Delta.ThreadedInstrs, Got.Probe.R.Instructions);

  // Every live sealed module has a decode, and every decoded offset holds
  // exactly what visa::decode reads over that module's own extent.
  Machine &M = *Got.BP.M;
  std::shared_ptr<const DecodedSegment> Seg = M.segment();
  ASSERT_TRUE(Seg);
  size_t Live = 0;
  for (const MappedModule &MM : M.modules()) {
    if (!MM.Sealed || MM.Reclaimed || MM.Retired || !MM.CodeSize)
      continue;
    ++Live;
    const DecodedModule *Mod = Seg->moduleAt(MM.CodeBase);
    ASSERT_TRUE(Mod) << "module at 0x" << std::hex << MM.CodeBase;
    EXPECT_EQ(Mod->Serial, MM.Serial);
    EXPECT_EQ(Mod->Base, MM.CodeBase);
    ASSERT_EQ(Mod->Size, MM.CodeSize);
    ASSERT_EQ(Mod->IndexByOff.size(), Mod->Size);
    const uint8_t *Code = M.codePtr(Mod->Base, Mod->Size);
    ASSERT_TRUE(Code);
    size_t Covered = 0;
    for (uint64_t Off = 0; Off != Mod->Size; ++Off) {
      int32_t Idx = Mod->IndexByOff[Off];
      if (Idx < 0)
        continue;
      ++Covered;
      ASSERT_LT(static_cast<size_t>(Idx), Mod->Stream.size());
      const DInstr &D = Mod->Stream[static_cast<size_t>(Idx)];
      visa::Instr I;
      ASSERT_TRUE(visa::decode(Code, Mod->Size, Off, I)) << Off;
      EXPECT_EQ(D.PC, Mod->Base + Off);
      EXPECT_TRUE(D.I.Op == I.Op && D.I.Rd == I.Rd && D.I.Ra == I.Ra &&
                  D.I.Rb == I.Rb && D.I.Off == I.Off && D.I.Imm == I.Imm &&
                  D.I.Length == I.Length)
          << "decode differs at offset " << Off;
      uint64_t FallOff = Off + I.Length;
      if (FallOff >= Mod->Size) {
        EXPECT_EQ(D.Fall, -1) << "fallthrough past the module end";
      } else {
        EXPECT_EQ(D.Fall, Mod->IndexByOff[FallOff]) << Off;
        if (D.Fall >= 0) {
          EXPECT_EQ(Mod->Stream[static_cast<size_t>(D.Fall)].PC,
                    D.PC + I.Length);
        }
      }
    }
    EXPECT_EQ(Covered, Mod->Stream.size());
  }
  EXPECT_EQ(Seg->Modules.size(), Live);
}

//===----------------------------------------------------------------------===//
// Tier accounting sanity
//===----------------------------------------------------------------------===//

TEST(TierDiff, StatsAttributeInstructionsToTheRightTier) {
  const char *Source = R"(
    long w(long x) { return x + 1; }
    long (*f)(long) = w;
    int main() {
      long acc = 0;
      long i;
      for (i = 0; i < 5000; i = i + 1) acc = acc + f(i);
      print_int(acc & 1023);
      return 0;
    }
  )";
  for (ExecTier Tier : AllTiers) {
    BuildSpec Spec;
    Spec.LinkRtLibrary = false;
    Spec.Tier = Tier;
    BuiltProgram BP = buildProgram({Source}, Spec);
    ASSERT_TRUE(BP.Ok) << BP.Error;
    Measured M = measureRun(BP);
    ASSERT_EQ(M.Result.Reason, StopReason::Exited) << M.Result.Message;
    VMTierStats S = BP.M->vmStats();
    EXPECT_EQ(S.InterpInstrs + S.ThreadedInstrs, M.Result.Instructions)
        << tierName(Tier);
    if (Tier == ExecTier::Interpreter) {
      EXPECT_EQ(S.ThreadedInstrs, 0u);
      EXPECT_EQ(S.FusedChecks, 0u);
    } else {
      EXPECT_GT(S.ThreadedInstrs, 0u);
      EXPECT_GT(S.FusedChecks, 0u) << "instrumented hot loop never fused";
    }
  }
}

} // namespace
