//===- perfbench/src/JitConcurrent.cpp - The jit-concurrent workload ------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jit-concurrent: a small host whose spinner guest thread makes checked
/// indirect calls through current_op nonstop, entering a syscall every
/// 1024 iterations so reclaim grace periods advance. One host "JIT"
/// thread loops: compile a seeded op module from source, dlopen it, dlclose
/// the oldest op once more than 16 are live, run a probe call into the new
/// op, and swap current_op to it. This is the workload where the
/// frontend sits on a per-operation latency path, and where table writes
/// (install, retire) and segment invalidations hit a running thread.
///
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Layers.h"
#include "Workloads.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include <time.h>

using namespace mcfi;
using namespace perfbench;

namespace {

/// Setups per run; setup_s is their median, so one slow setup does not
/// move it. Cheaper setups repeat more often.
constexpr int Setups = 15;

constexpr size_t MaxLive = 16;
/// JIT iterations per epoch (see runPhase).
constexpr unsigned EpochOps = 1024;
constexpr unsigned ReferenceOps = 16;
constexpr uint64_t ProbeFuel = 1'000'000;
/// Small enough that a pause request waits about a millisecond.
constexpr uint64_t SpinFuel = 100'000;

double threadCpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) +
         static_cast<double>(TS.tv_nsec) / 1e9;
}

struct LiveOp {
  int64_t Handle = -1;
  /// spin_count read right after this op was swapped into current_op.
  uint64_t SwapMark = 0;
};

struct World {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
  Thread Spinner;
  uint64_t CurrentOpAddr = 0, SpinCountAddr = 0, ProbeStack = 0;
  std::deque<LiveOp> Live;
};

World setup(Tally &Checks, LayerCounters &LC) {
  World W;
  std::vector<MCFIObject> Host;
  Host.push_back(
      compile(jitHostSource(), {.ModuleName = "host"}, Checks, LC).Obj);
  W.M = newMachine();
  W.L = std::make_unique<Linker>(*W.M);
  std::string Err;
  Checks.check(link(*W.L, std::move(Host), Err), "host link: " + Err);
  for (const MappedModule &Mod : W.M->modules()) {
    auto Op = Mod.Obj->DataSymbols.find("current_op");
    auto Count = Mod.Obj->DataSymbols.find("spin_count");
    if (Op != Mod.Obj->DataSymbols.end())
      W.CurrentOpAddr = Mod.DataBase + Op->second;
    if (Count != Mod.Obj->DataSymbols.end())
      W.SpinCountAddr = Mod.DataBase + Count->second;
  }
  Checks.check(W.CurrentOpAddr && W.SpinCountAddr &&
                   W.M->makeThread("spinner", W.Spinner),
               "host lacks the spinner");
  W.ProbeStack = W.M->allocStack();
  return W;
}

/// Reference for instr_overhead_pct and code_growth_pct: the first
/// ReferenceOps ops statically linked into one instrumented and one
/// uninstrumented program, each probe run in both.
std::pair<double, double> runReference(uint64_t Seed, Tally &Checks) {
  LayerCounters Ignored;
  uint64_t Code[2] = {0, 0};
  std::vector<double> Counts[2];
  for (bool Instrument : {true, false}) {
    std::vector<MCFIObject> Objs;
    Objs.push_back(compile("int main() { return 0; }",
                           {.ModuleName = "main", .Instrument = Instrument},
                           Checks, Ignored)
                       .Obj);
    std::vector<GenModule> Ops;
    for (unsigned G = 0; G != ReferenceOps; ++G) {
      Ops.push_back(makeJitOp(Seed, G));
      CompileOptions CO;
      CO.ModuleName = Ops.back().Name;
      CO.Instrument = Instrument;
      Objs.push_back(compile(Ops.back().Source, CO, Checks, Ignored).Obj);
      Code[Instrument ? 0 : 1] += Objs.back().Code.size();
    }
    auto M = newMachine();
    Linker L(*M, Instrument ? LinkOptions() : baselineLinkOptions());
    std::string Err;
    Checks.check(link(L, std::move(Objs), Err), "reference link: " + Err);
    uint64_t Stack = M->allocStack();
    for (const GenModule &G : Ops) {
      RunResult R = runProbe(*M, M->findFunction(G.Probe), Stack, ProbeFuel);
      Checks.check(R.Reason == StopReason::Exited && R.ExitCode == G.Expected,
                   G.Name + ": reference probe mismatch");
      Counts[Instrument ? 0 : 1].push_back(static_cast<double>(R.Instructions));
    }
  }
  std::vector<double> Ratios;
  for (unsigned G = 0; G != ReferenceOps; ++G)
    Ratios.push_back(Counts[0][G] / Counts[1][G]);
  return {geomean(Ratios), static_cast<double>(Code[0]) / Code[1]};
}

struct Phase {
  Samples Ops, Unloads, Compiles, ProbeMips, SpinMips;
};

/// The host's spinner on its own host thread, in slices of SpinFuel.
///
/// The JIT thread pauses it around each probe call, so a probe and the
/// spinner never execute guest code at the same time. Running both at
/// once trips a runtime race (perfbench/NOTES.md, finding 1): when one
/// thread reclaims a code range while another decodes the sealed prefix,
/// the decoded segment can outlive the range's reuse by the next op, and
/// the probe then executes the old op's code. While the spinner runs
/// alone it is the only thread that decodes or reclaims, and the JIT
/// thread's dlopen, install and retire work still overlaps its checks.
class Spinner {
public:
  Spinner(Machine &M, Thread &T) : M(M), T(T), Worker([this] { loop(); }) {}
  ~Spinner() { stop(); }
  Spinner(const Spinner &) = delete;
  Spinner &operator=(const Spinner &) = delete;

  /// Returns once the spinner is outside Machine::run.
  void pause() {
    std::unique_lock<std::mutex> Lk(Mu);
    PauseRequested = true;
    Cv.wait(Lk, [&] { return Paused || Exited; });
  }
  void resume() {
    std::lock_guard<std::mutex> Lk(Mu);
    PauseRequested = false;
    Cv.notify_all();
  }
  void stop() {
    {
      std::lock_guard<std::mutex> Lk(Mu);
      StopRequested = true;
      Cv.notify_all();
    }
    if (Worker.joinable())
      Worker.join();
  }
  bool failed() const { return Failed.load(); }

  // Read after stop().
  Samples Mips;
  uint64_t Instrs = 0;
  double Seconds = 0;
  std::string Error;

private:
  void loop() {
    while (true) {
      {
        std::unique_lock<std::mutex> Lk(Mu);
        if (PauseRequested && !StopRequested) {
          Paused = true;
          Cv.notify_all();
          Cv.wait(Lk, [&] { return !PauseRequested || StopRequested; });
          Paused = false;
        }
        if (StopRequested)
          break;
      }
      MCFI_SPAN("runtime.run");
      uint64_t Before = T.Instructions;
      // Thread CPU time, not wall time: the spinner shares the machine
      // with the JIT thread and with other processes, and time it spends
      // descheduled is not dispatch speed.
      double C0 = threadCpuSeconds();
      RunResult R = M.run(T, SpinFuel);
      double S = threadCpuSeconds() - C0;
      if (R.Reason != StopReason::OutOfFuel) {
        Error = "spinner stopped: " + R.Message;
        Failed.store(true);
        break;
      }
      Instrs += T.Instructions - Before;
      Seconds += S;
      Mips.add(static_cast<double>(T.Instructions - Before) / S / 1e6);
    }
    std::lock_guard<std::mutex> Lk(Mu);
    Exited = true;
    Cv.notify_all();
  }

  Machine &M;
  Thread &T;
  std::mutex Mu;
  std::condition_variable Cv;
  bool PauseRequested = false, Paused = false, StopRequested = false,
       Exited = false;
  std::atomic<bool> Failed{false};
  std::thread Worker; // last: starts once the members above exist
};

/// One epoch: EpochOps JIT iterations against \p W while its spinner runs.
void runEpoch(World &W, uint64_t Seed, uint64_t &Gen, Phase &P,
              Calibration &Cal, Tally &Checks, LayerCounters &LC) {
  Machine &M = *W.M;
  Linker &L = *W.L;
  LinkerMark Mark = markLinker(L, M);
  Spinner Spin(M, W.Spinner);

  for (unsigned I = 0; I != EpochOps && !Spin.failed(); ++I) {
    if (I % 32 == 0)
      Cal.sample();
    GenModule G = makeJitOp(Seed, Gen++);
    auto CompileStart = Clock::now();
    CompileResult CR = compile(G.Source, {.ModuleName = G.Name}, Checks, LC);
    P.Compiles.add(microsSince(CompileStart));
    if (!CR.Ok)
      break;
    int Id = L.registerLibrary(std::move(CR.Obj));

    tracer().beginOp();
    ++LC.Ops;
    auto Start = Clock::now();
    DlopenResult D;
    {
      MCFI_SPAN("linker.dlopen");
      D = L.dlopenOne(Id);
    }
    double DlopenUs = microsSince(Start);
    Checks.check(D.Handle >= 0, G.Name + ": dlopen: " + L.lastError());
    if (D.Handle < 0)
      break;
    replayVerify(M, static_cast<size_t>(D.Handle),
                 static_cast<size_t>(D.Handle) + 1, Checks, LC);
    auditPolicy(L, M, Checks, LC);

    if (W.Live.size() == MaxLive) {
      // The oldest op left current_op when its successor was swapped in.
      // Two more spinner iterations guarantee no call already loaded its
      // address, so closing it cannot fail a check that was legal.
      uint64_t Need = W.Live[1].SwapMark + 2, Now = 0;
      auto WaitStart = Clock::now();
      while (M.load(W.SpinCountAddr, 8, Now) && Now < Need &&
             secondsSince(WaitStart) < 2 && !Spin.failed())
        std::this_thread::yield();
      tracer().beginOp();
      auto CloseStart = Clock::now();
      bool Ok;
      {
        MCFI_SPAN("linker.dlclose");
        Ok = L.dlcloseOne(W.Live.front().Handle);
      }
      P.Unloads.add(microsSince(CloseStart));
      Checks.check(Ok && Now >= Need, "dlclose: " + L.lastError());
      W.Live.pop_front();
      auditPolicy(L, M, Checks, LC);
    }

    // The probe is the new op's first execution. The drain after it
    // reclaims the op closed above before the next dlopen, so each new op
    // reuses the range just freed however the threads were scheduled.
    Spin.pause();
    auto ProbeStart = Clock::now();
    RunResult R =
        runProbe(M, M.dlsymLookup(D.Handle, G.Probe), W.ProbeStack, ProbeFuel);
    double ProbeUs = microsSince(ProbeStart);
    P.Ops.add(DlopenUs + ProbeUs);
    P.ProbeMips.add(static_cast<double>(R.Instructions) / ProbeUs);
    LC.ReclaimPendingMax =
        std::max(LC.ReclaimPendingMax, M.reclaimStats().PendingRegions);
    {
      MCFI_SPAN("runtime.drain_reclaim");
      M.drainReclaim();
    }
    Spin.resume();
    Checks.check(R.Reason == StopReason::Exited && R.ExitCode == G.Expected,
                 G.Name + ": probe returned a wrong value: " + R.Message);

    uint64_t Op = M.dlsymLookup(D.Handle, G.Export);
    uint64_t SwapMark = 0;
    Checks.check(Op && M.store(W.CurrentOpAddr, 8, Op) &&
                     M.load(W.SpinCountAddr, 8, SwapMark),
                 G.Name + ": cannot swap current_op");
    W.Live.push_back({D.Handle, SwapMark});
  }
  Spin.stop();
  // Every spinner slice is a checked operation: it must end only because
  // its fuel ran out, never at a CFI stop or a trap.
  for (double X : Spin.Mips.V) {
    P.SpinMips.add(X);
    Checks.pass();
  }
  if (Spin.failed())
    Checks.fail(Spin.Error);
  LC.GuestInstrs += Spin.Instrs;
  LC.GuestSeconds += Spin.Seconds;
  LC.Reclaimed += M.reclaimStats().Reclaimed;
  collectLinker(L, M, Mark, LC);
}

/// Runs epochs, each on a freshly set-up world, until \p Seconds have
/// gone by. Every epoch walks the same trajectory (1..EpochOps ops ever
/// loaded), so the state the ops see does not depend on how fast the
/// run went.
Phase runPhase(uint64_t Seed, double Seconds, uint64_t &Gen, Calibration &Cal,
               Tally &Checks, LayerCounters &LC) {
  Phase P;
  auto T0 = Clock::now();
  do {
    World W = setup(Checks, LC);
    runEpoch(W, Seed, Gen, P, Cal, Checks, LC);
  } while (secondsSince(T0) < Seconds);
  return P;
}

} // namespace

RunOutput perfbench::runJitConcurrent(const Options &O) {
  RunOutput Out;
  LayerCounters LC, Untraced;
  Timings T;
  Calibration SetupCal, Cal;
  tracer().On = O.Trace;
  for (int I = 0; I != Setups; ++I) {
    SetupCal.sample();
    auto T0 = Clock::now();
    World W = setup(Out.Checks, LC);
    T.Setups.add(secondsSince(T0));
  }
  tracer().On = false;
  auto [InstrRatio, CodeRatio] = runReference(O.Seed, Out.Checks);
  uint64_t Gen = 0;

  if (O.Trace) {
    // Untraced quarters around a traced half: the tracing overhead is the
    // traced op median over the untraced one, and any drift of the
    // workload over the run falls on both sides.
    Phase A = runPhase(O.Seed, O.Seconds / 4, Gen, Cal, Out.Checks, Untraced);
    tracer().On = true;
    Phase B = runPhase(O.Seed, O.Seconds / 2, Gen, Cal, Out.Checks, LC);
    tracer().On = false;
    Phase C = runPhase(O.Seed, O.Seconds / 4, Gen, Cal, Out.Checks, Untraced);
    for (double X : C.Ops.V)
      A.Ops.add(X);
    reportLayers(LC, (B.Ops.median() / A.Ops.median() - 1) * 100,
                 Out.PerLayer);
    reportDynamicLinking(LC, Out.Detail);
    return Out;
  }

  Phase P = runPhase(O.Seed, O.Seconds, Gen, Cal, Out.Checks, Untraced);
  Report &R = Out.EndToEnd;
  T.Ops = P.Ops;
  T.Unloads = P.Unloads;
  T.Compiles = P.Compiles;
  // guest_mips is the probes' rate, as on plugin-churn: the spinner's
  // rate moved by up to 1.5x between runs with the placement of the two
  // threads on the shared machine, so it is printed, not reported.
  T.GuestMips = P.ProbeMips.median();
  T.SetupFactor = SetupCal.factor();
  T.CompileFactor = T.RunFactor = T.MipsFactor = Cal.factor();
  std::printf("raw spinner: n=%zu median slice mips=%.2f (thread CPU time)\n",
              P.SpinMips.size(), P.SpinMips.median());
  reportTimings(R, T);
  R.set("instr_overhead_pct", (InstrRatio - 1) * 100, "%");
  R.set("code_growth_pct", (CodeRatio - 1) * 100, "%");
  return Out;
}
