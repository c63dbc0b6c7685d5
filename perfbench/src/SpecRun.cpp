//===- perfbench/src/SpecRun.cpp - The spec-run workload ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// spec-run: the twelve SPEC-shaped profiles, built instrumented and
/// uninstrumented. The timed loop runs the instrumented programs to exit,
/// one guest thread each, in a seeded order per pass. A program cannot run
/// twice in one Machine (its globals, heap and stacks are spent), so each
/// run links a fresh Machine from the precompiled objects; only dispatch
/// is timed as op, and the teardown afterwards as unload. Linker, CFG and
/// tables do no work inside the timed slices, so a dlopen optimisation
/// must leave this workload's op and guest_mips unchanged.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "workload/Workload.h"

#include <numeric>

using namespace mcfi;
using namespace perfbench;

namespace {

/// Setups per run; setup_s is their median, so one slow setup does not
/// move it. Cheaper setups repeat more often.
constexpr int Setups = 5;

/// Fuel of the first call into a freshly linked program (its first-
/// execution cost: segment decode and trace warm-up) and of every slice
/// after it.
constexpr uint64_t FirstExecFuel = 10'000;
constexpr uint64_t SliceFuel = 500'000;
/// No profile retires more than ~63M instructions; 1G means a runaway.
constexpr uint64_t MaxInstrs = 1'000'000'000;

struct SpecProgram {
  std::string Name;
  std::string Source;
  std::vector<MCFIObject> Objs;     ///< instrumented profile + rt
  std::vector<MCFIObject> BaseObjs; ///< uninstrumented profile + rt
  // Reference: the uninstrumented build's run.
  std::string Output;
  int64_t ExitCode = 0;
  uint64_t BaseInstrs = 0;
  /// Instrumented instruction count, from the first timed run; every
  /// later run must retire exactly as many.
  uint64_t Instrs = 0;
  std::vector<double> Mips, CompileMicros;
};

struct Suite {
  std::vector<SpecProgram> Programs;
  uint64_t CodeBytes = 0, BaseCodeBytes = 0;
};

/// Setup: compile every profile and the rt library in both builds, then
/// link each instrumented program once.
Suite buildSuite(Tally &Checks, LayerCounters &LC) {
  Suite S;
  auto Build = [&](const std::string &Src, const std::string &Name,
                   bool Instrument) {
    CompileOptions CO;
    CO.ModuleName = Name;
    CO.Instrument = Instrument;
    CompileResult CR = compile(Src, CO, Checks, LC);
    (Instrument ? S.CodeBytes : S.BaseCodeBytes) += CR.Obj.Code.size();
    return std::move(CR.Obj);
  };
  std::string RtSrc = runtimeLibrarySource();
  MCFIObject Rt = Build(RtSrc, "rt", true);
  MCFIObject RtBase = Build(RtSrc, "rt", false);
  for (const BenchProfile &P : specProfiles()) {
    std::string Src = generateWorkload(P, WorkloadVariant::Fixed);
    SpecProgram Prog;
    Prog.Name = P.Name;
    Prog.Source = Src;
    Prog.Objs.push_back(Build(Src, "tu0", true));
    Prog.Objs.push_back(Rt);
    Prog.BaseObjs.push_back(Build(Src, "tu0", false));
    Prog.BaseObjs.push_back(RtBase);
    S.Programs.push_back(std::move(Prog));
  }
  for (const SpecProgram &Prog : S.Programs) {
    auto M = newMachine();
    Linker L(*M);
    std::string Err;
    Checks.check(link(L, Prog.Objs, Err), Prog.Name + ": link: " + Err);
  }
  return S;
}

/// Reference: run every uninstrumented build once.
void runReference(Suite &S, Tally &Checks) {
  for (SpecProgram &Prog : S.Programs) {
    auto M = newMachine();
    Linker L(*M, baselineLinkOptions());
    std::string Err;
    Thread T;
    bool Ok = link(L, Prog.BaseObjs, Err) && M->makeThread("_start", T);
    RunResult R = Ok ? M->run(T, MaxInstrs) : RunResult();
    Checks.check(Ok && R.Reason == StopReason::Exited,
                 Prog.Name + ": baseline run failed: " + Err + R.Message);
    Prog.Output = M->takeOutput();
    Prog.ExitCode = R.ExitCode;
    Prog.BaseInstrs = R.Instructions;
  }
}

struct Phase {
  Samples Slices, Unloads;
};

/// Links, runs to exit, checks and tears down one instrumented program.
void runOne(SpecProgram &Prog, Phase &P, Calibration &Cal, Tally &Checks,
            LayerCounters &LC) {
  Cal.sample();
  Cal.sampleMemory();
  // compile_p50_us: the program's own module recompiled, outside the op.
  auto CompileStart = Clock::now();
  compile(Prog.Source, {.ModuleName = "tu0"}, Checks, LC);
  Prog.CompileMicros.push_back(microsSince(CompileStart));

  tracer().beginOp();
  ++LC.Ops;
  auto M = newMachine();
  auto L = std::make_unique<Linker>(*M);
  LinkerMark Mark = markLinker(*L, *M);
  std::string Err;
  if (!link(*L, Prog.Objs, Err)) {
    Checks.fail(Prog.Name + ": link: " + Err);
    return;
  }
  replayVerify(*M, 0, M->modules().size(), Checks, LC);
  auditPolicy(*L, *M, Checks, LC);

  Thread T;
  Checks.check(M->makeThread("_start", T), Prog.Name + ": no _start");
  double RunSeconds = 0;
  RunResult R;
  {
    MCFI_SPAN("runtime.first_exec");
    auto T0 = Clock::now();
    R = M->run(T, FirstExecFuel);
    RunSeconds += secondsSince(T0);
  }
  while (R.Reason == StopReason::OutOfFuel && T.Instructions < MaxInstrs) {
    MCFI_SPAN("runtime.run");
    auto T0 = Clock::now();
    R = M->run(T, SliceFuel);
    double S = secondsSince(T0);
    RunSeconds += S;
    if (R.Reason == StopReason::OutOfFuel) // the last, partial slice is not
      P.Slices.add(S * 1e6);               // a full op
  }
  if (!Prog.Instrs)
    Prog.Instrs = T.Instructions;
  Checks.check(R.Reason == StopReason::Exited && R.ExitCode == Prog.ExitCode &&
                   M->takeOutput() == Prog.Output &&
                   T.Instructions == Prog.Instrs,
               Prog.Name + ": instrumented run differs from reference: " +
                   R.Message);
  Prog.Mips.push_back(static_cast<double>(T.Instructions) / RunSeconds / 1e6);
  LC.GuestInstrs += T.Instructions;
  LC.GuestSeconds += RunSeconds;
  collectLinker(*L, *M, Mark, LC);

  auto T0 = Clock::now();
  {
    MCFI_SPAN("runtime.teardown");
    L.reset();
    M.reset();
  }
  P.Unloads.add(microsSince(T0));
}

/// Runs whole passes over the suite, each in a seeded order, until
/// \p Seconds have gone by. Whole passes keep the mix of programs, and so
/// the slice and teardown distributions, the same for every seed.
Phase runPhase(Suite &S, uint64_t Seed, double Seconds, Calibration &Cal,
               Tally &Checks, LayerCounters &LC) {
  Phase P;
  SeedRng Rng(Seed);
  std::vector<size_t> Order(S.Programs.size());
  std::iota(Order.begin(), Order.end(), 0);
  auto T0 = Clock::now();
  do {
    Rng.shuffle(Order);
    for (size_t Idx : Order)
      runOne(S.Programs[Idx], P, Cal, Checks, LC);
  } while (secondsSince(T0) < Seconds);
  return P;
}

} // namespace

RunOutput perfbench::runSpecRun(const Options &O) {
  RunOutput Out;
  LayerCounters LC, Untraced;
  Timings T;
  Calibration SetupCal, Cal;
  Suite S;
  tracer().On = O.Trace;
  for (int I = 0; I != Setups; ++I) {
    S = Suite(); // release the previous setup before building the next
    SetupCal.sample();
    auto T0 = Clock::now();
    S = buildSuite(Out.Checks, LC);
    T.Setups.add(secondsSince(T0));
  }
  tracer().On = false;
  runReference(S, Out.Checks);

  if (O.Trace) {
    // Untraced quarters around a traced half: the tracing overhead is the
    // traced op median over the untraced one, and any drift of the
    // workload over the run falls on both sides.
    Phase A = runPhase(S, O.Seed, O.Seconds / 4, Cal, Out.Checks, Untraced);
    tracer().On = true;
    Phase B = runPhase(S, O.Seed, O.Seconds / 2, Cal, Out.Checks, LC);
    tracer().On = false;
    Phase C = runPhase(S, O.Seed, O.Seconds / 4, Cal, Out.Checks, Untraced);
    for (double X : C.Slices.V)
      A.Slices.add(X);
    reportLayers(LC, (B.Slices.median() / A.Slices.median() - 1) * 100,
                 Out.PerLayer);
    return Out;
  }

  Phase P = runPhase(S, O.Seed, O.Seconds, Cal, Out.Checks, Untraced);
  // Per-program medians, combined by geomean: the profiles differ in size
  // by 20x, so a median over all samples would jump between programs.
  std::vector<double> Mips, Compile, Overhead;
  for (const SpecProgram &Prog : S.Programs) {
    Samples M, C;
    M.V = Prog.Mips;
    C.V = Prog.CompileMicros;
    Mips.push_back(M.median());
    Compile.push_back(C.median());
    Overhead.push_back(static_cast<double>(Prog.Instrs) /
                       static_cast<double>(Prog.BaseInstrs));
  }
  Report &R = Out.EndToEnd;
  T.Ops = P.Slices;
  T.Unloads = P.Unloads;
  T.Compiles.add(geomean(Compile));
  T.GuestMips = geomean(Mips);
  T.SetupFactor = SetupCal.factor();
  T.CompileFactor = Cal.factor();
  T.RunFactor = T.MipsFactor = Cal.memoryFactor();
  reportTimings(R, T);
  R.set("instr_overhead_pct", (geomean(Overhead) - 1) * 100, "%");
  R.set("code_growth_pct",
        (static_cast<double>(S.CodeBytes) / S.BaseCodeBytes - 1) * 100, "%");
  return Out;
}
