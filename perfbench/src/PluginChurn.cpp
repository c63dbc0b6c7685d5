//===- perfbench/src/PluginChurn.cpp - The plugin-churn workload ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// plugin-churn: the gcc profile is the host; 64 seeded plugins are
/// precompiled in setup. One loader thread dlopens a plugin and runs one
/// probe call into it, until all 64 are live; then it dlcloses them in a
/// seeded order, drains the reclaimer, and starts the next cycle. Nearly
/// all the time is linker, CFG merge, verifier, table and segment-decode
/// work, and the live-module count sweeps 1..64 every cycle, so any cost
/// that grows with the loaded world shows as op growing with it.
///
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Layers.h"
#include "Workloads.h"

#include "workload/Workload.h"

#include <numeric>

using namespace mcfi;
using namespace perfbench;

namespace {

/// Setups per run; setup_s is their median, so one slow setup does not
/// move it. Cheaper setups repeat more often.
constexpr int Setups = 9;

constexpr unsigned NumPlugins = 64;
constexpr uint64_t ProbeFuel = 10'000'000;

struct World {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
  std::vector<GenModule> Plugins;
  uint64_t CodeBytes = 0; ///< instrumented plugin code
};

World setup(uint64_t Seed, Tally &Checks, LayerCounters &LC) {
  World W;
  const BenchProfile *Gcc = nullptr;
  for (const BenchProfile &P : specProfiles())
    if (P.Name == "gcc")
      Gcc = &P;
  std::vector<MCFIObject> Host;
  Host.push_back(compile(generateWorkload(*Gcc, WorkloadVariant::Fixed),
                         {.ModuleName = "gcc"}, Checks, LC)
                     .Obj);
  Host.push_back(
      compile(runtimeLibrarySource(), {.ModuleName = "rt"}, Checks, LC).Obj);
  W.M = newMachine();
  W.L = std::make_unique<Linker>(*W.M);
  std::string Err;
  Checks.check(link(*W.L, std::move(Host), Err), "host link: " + Err);
  for (unsigned K = 0; K != NumPlugins; ++K) {
    GenModule G = makePlugin(Seed, K);
    CompileResult CR = compile(G.Source, {.ModuleName = G.Name}, Checks, LC);
    W.CodeBytes += CR.Obj.Code.size();
    W.L->registerLibrary(std::move(CR.Obj));
    W.Plugins.push_back(std::move(G));
  }
  return W;
}

/// Reference for instr_overhead_pct and code_growth_pct: every plugin
/// statically linked into one instrumented and one uninstrumented
/// program, each probe run in both.
struct Reference {
  double InstrRatio = 0, CodeRatio = 0;
};

Reference runReference(const World &W, Tally &Checks) {
  LayerCounters Ignored;
  uint64_t BaseCode = 0;
  std::vector<uint64_t> Counts[2];
  for (bool Instrument : {true, false}) {
    std::vector<MCFIObject> Objs;
    Objs.push_back(compile("int main() { return 0; }",
                           {.ModuleName = "main", .Instrument = Instrument},
                           Checks, Ignored)
                       .Obj);
    for (unsigned K = 0; K != NumPlugins; ++K) {
      CompileOptions CO;
      CO.ModuleName = W.Plugins[K].Name;
      CO.Instrument = Instrument;
      Objs.push_back(compile(W.Plugins[K].Source, CO, Checks, Ignored).Obj);
      if (!Instrument)
        BaseCode += Objs.back().Code.size();
    }
    auto M = newMachine();
    Linker L(*M, Instrument ? LinkOptions() : baselineLinkOptions());
    std::string Err;
    Checks.check(link(L, std::move(Objs), Err), "reference link: " + Err);
    uint64_t Stack = M->allocStack();
    for (const GenModule &G : W.Plugins) {
      RunResult R =
          runProbe(*M, M->findFunction(G.Probe), Stack, ProbeFuel);
      Checks.check(R.Reason == StopReason::Exited && R.ExitCode == G.Expected,
                   G.Name + ": reference probe mismatch");
      Counts[Instrument ? 0 : 1].push_back(R.Instructions);
    }
  }
  std::vector<double> Ratios;
  for (unsigned K = 0; K != NumPlugins; ++K)
    Ratios.push_back(static_cast<double>(Counts[0][K]) /
                     static_cast<double>(Counts[1][K]));
  Reference Ref;
  Ref.InstrRatio = geomean(Ratios);
  Ref.CodeRatio = static_cast<double>(W.CodeBytes) / BaseCode;
  return Ref;
}

struct Phase {
  Samples Ops, Unloads, Live1, Live64, Mips, Compiles;
};

Phase runPhase(World &W, uint64_t Seed, double Seconds, Calibration &Cal,
               Tally &Checks, LayerCounters &LC) {
  Phase P;
  Machine &M = *W.M;
  Linker &L = *W.L;
  SeedRng Rng(Seed ^ 0xc105e);
  const uint64_t Stack = M.allocStack(); // one stack for every probe
  const uint64_t CodeTop0 = M.codeTop();
  LinkerMark Mark = markLinker(L, M);
  auto T0 = Clock::now();
  for (uint64_t Cycle = 0;; ++Cycle) {
    // compile_p50_us: one plugin recompiled per cycle, outside every op,
    // so it is timed under the same calibration as the ops.
    const GenModule &Next = W.Plugins[Cycle % NumPlugins];
    auto CompileStart = Clock::now();
    compile(Next.Source, {.ModuleName = Next.Name}, Checks, LC);
    P.Compiles.add(microsSince(CompileStart));

    std::vector<int64_t> Handles;
    for (unsigned K = 0; K != NumPlugins; ++K) {
      const GenModule &G = W.Plugins[K];
      if (K % 8 == 0)
        Cal.sample();
      tracer().beginOp();
      ++LC.Ops;
      auto Start = Clock::now();
      DlopenResult D;
      {
        MCFI_SPAN("linker.dlopen");
        D = L.dlopenOne(K);
      }
      Checks.check(D.Handle >= 0, G.Name + ": dlopen: " + L.lastError());
      if (D.Handle < 0)
        continue;
      auto RunStart = Clock::now();
      RunResult R = runProbe(M, M.dlsymLookup(D.Handle, G.Probe), Stack,
                             ProbeFuel);
      double RunSeconds = secondsSince(RunStart);
      double Op = microsSince(Start);
      P.Ops.add(Op);
      if (K == 0)
        P.Live1.add(Op);
      if (K + 1 == NumPlugins)
        P.Live64.add(Op);
      P.Mips.add(static_cast<double>(R.Instructions) / RunSeconds / 1e6);
      LC.GuestInstrs += R.Instructions;
      LC.GuestSeconds += RunSeconds;
      Checks.check(R.Reason == StopReason::Exited && R.ExitCode == G.Expected,
                   G.Name + ": probe returned a wrong value: " + R.Message);
      Handles.push_back(D.Handle);
      replayVerify(M, static_cast<size_t>(D.Handle),
                   static_cast<size_t>(D.Handle) + 1, Checks, LC);
      auditPolicy(L, M, Checks, LC);
    }

    Rng.shuffle(Handles);
    for (int64_t H : Handles) {
      tracer().beginOp();
      auto Start = Clock::now();
      bool Ok;
      {
        MCFI_SPAN("linker.dlclose");
        Ok = L.dlcloseOne(H);
      }
      P.Unloads.add(microsSince(Start));
      Checks.check(Ok, "dlclose: " + L.lastError());
      auditPolicy(L, M, Checks, LC);
    }
    LC.ReclaimPendingMax =
        std::max(LC.ReclaimPendingMax, M.reclaimStats().PendingRegions);
    {
      MCFI_SPAN("runtime.drain_reclaim");
      M.drainReclaim();
    }
    // No guest thread runs between probes, so the drain matures every
    // retired region and the code region returns to the host alone.
    Checks.check(M.reclaimStats().PendingRegions == 0 &&
                     M.codeTop() == CodeTop0,
                 "churn cycle leaked code-region footprint");
    if (secondsSince(T0) >= Seconds)
      break;
  }
  LC.Reclaimed = M.reclaimStats().Reclaimed;
  LC.DlopenFlatness = P.Live64.median() / P.Live1.median();
  collectLinker(L, M, Mark, LC);
  return P;
}

} // namespace

RunOutput perfbench::runPluginChurn(const Options &O) {
  RunOutput Out;
  LayerCounters LC, Untraced;
  Timings T;
  Calibration SetupCal, Cal;
  World W;
  tracer().On = O.Trace;
  for (int I = 0; I != Setups; ++I) {
    W = World();
    SetupCal.sample();
    auto T0 = Clock::now();
    W = setup(O.Seed, Out.Checks, LC);
    T.Setups.add(secondsSince(T0));
  }
  tracer().On = false;
  Reference Ref = runReference(W, Out.Checks);

  if (O.Trace) {
    // Untraced quarters around a traced half: the tracing overhead is the
    // traced op median over the untraced one, and any drift of the
    // workload over the run falls on both sides.
    Phase A = runPhase(W, O.Seed, O.Seconds / 4, Cal, Out.Checks, Untraced);
    tracer().On = true;
    Phase B = runPhase(W, O.Seed, O.Seconds / 2, Cal, Out.Checks, LC);
    tracer().On = false;
    Phase C = runPhase(W, O.Seed, O.Seconds / 4, Cal, Out.Checks, Untraced);
    for (double X : C.Ops.V)
      A.Ops.add(X);
    reportLayers(LC, (B.Ops.median() / A.Ops.median() - 1) * 100,
                 Out.PerLayer);
    reportDynamicLinking(LC, Out.Detail);
    Out.Detail.set("linker.dlopen_live1_us", B.Live1.median(), "us");
    Out.Detail.set("linker.dlopen_live64_us", B.Live64.median(), "us");
    return Out;
  }

  Phase P = runPhase(W, O.Seed, O.Seconds, Cal, Out.Checks, Untraced);
  Report &R = Out.EndToEnd;
  T.Ops = P.Ops;
  T.Unloads = P.Unloads;
  T.Compiles = P.Compiles;
  T.GuestMips = P.Mips.median();
  T.SetupFactor = SetupCal.factor();
  T.CompileFactor = T.RunFactor = T.MipsFactor = Cal.factor();
  reportTimings(R, T);
  R.set("instr_overhead_pct", (Ref.InstrRatio - 1) * 100, "%");
  R.set("code_growth_pct", (Ref.CodeRatio - 1) * 100, "%");
  return Out;
}
