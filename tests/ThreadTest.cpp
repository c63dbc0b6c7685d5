//===- tests/ThreadTest.cpp - Multithreaded guest execution ---------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Multithreaded guests: several Thread objects executing concurrently
/// over one Machine (shared memory, shared ID tables), per the paper's
/// multithreaded-program setting. Covers cross-thread data visibility,
/// concurrent checked indirect calls, per-thread CFI isolation, and
/// signal state shared across threads.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "tables/ID.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace mcfi;

namespace {

/// Builds a program whose exported functions the test drives directly on
/// multiple host threads. worker(iters, slot) calls through the table
/// pair at tab[slot], so threads given different slots share no table
/// word.
BuiltProgram buildShared() {
  const char *Source = R"(
    long counter = 0;
    long w0(long x) { return x + 1; }
    long w1(long x) { return x * 2; }
    long (*tab[4])(long);
    long worker(long iters, long slot) {
      tab[slot] = w0;
      tab[slot + 1] = w1;
      long acc = 0;
      long i;
      for (i = 0; i < iters; i = i + 1) {
        acc = acc + tab[slot + (i & 1)](i);  /* checked indirect call */
        counter = counter + 1;        /* racy shared increment */
      }
      exit((int)(acc & 127));
      return acc;
    }
    int main() { return 0; }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  return buildProgram({Source}, Spec);
}

TEST(GuestThreads, ConcurrentCheckedCallsAllSucceed) {
  BuiltProgram BP = buildShared();
  ASSERT_TRUE(BP.Ok) << BP.Error;

  constexpr int NumThreads = 4;
  std::atomic<int> Violations{0};
  std::atomic<int> Exits{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I != NumThreads; ++I) {
    Threads.emplace_back([&, I] {
      Thread T;
      if (!BP.M->makeThread("worker", T))
        return;
      T.Regs[visa::RegArg0] = 3000 + I;
      RunResult R = BP.M->run(T, ~0ull);
      if (R.Reason == StopReason::CfiViolation)
        Violations.fetch_add(1);
      if (R.Reason == StopReason::Exited)
        Exits.fetch_add(1);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Violations.load(), 0);
  EXPECT_EQ(Exits.load(), NumThreads);

  // All increments landed in shared memory (no lost *visibility*; the
  // guest increment is racy so the count is <= the total, > 0).
  uint64_t CounterAddr = 0;
  for (const MappedModule &Mod : BP.M->modules()) {
    auto It = Mod.Obj->DataSymbols.find("counter");
    if (It != Mod.Obj->DataSymbols.end())
      CounterAddr = Mod.DataBase + It->second;
  }
  uint64_t Counter = 0;
  ASSERT_TRUE(BP.M->load(CounterAddr, 8, Counter));
  EXPECT_GT(Counter, 3000u);
  EXPECT_LE(Counter, 4u * 3003u);
}

TEST(GuestThreads, ViolationInOneThreadDoesNotStopOthers) {
  BuiltProgram BP = buildShared();
  ASSERT_TRUE(BP.Ok) << BP.Error;

  // Thread A spins; thread B's function-pointer table is corrupted so
  // it halts; A must finish cleanly regardless. B runs on its own table
  // slots (tab[2], tab[3]), so A never reads the poisoned word.
  uint64_t TabAddr = 0;
  for (const MappedModule &Mod : BP.M->modules()) {
    auto It = Mod.Obj->DataSymbols.find("tab");
    if (It != Mod.Obj->DataSymbols.end())
      TabAddr = Mod.DataBase + It->second;
  }
  ASSERT_NE(TabAddr, 0u);

  Thread A, B;
  ASSERT_TRUE(BP.M->makeThread("worker", A));
  ASSERT_TRUE(BP.M->makeThread("worker", B));
  A.Regs[visa::RegArg0] = 200000;
  A.Regs[visa::RegArg0 + 1] = 0;
  B.Regs[visa::RegArg0] = 200000;
  B.Regs[visa::RegArg0 + 1] = 2;

  std::atomic<bool> AViolated{false}, BViolated{false};
  std::thread TA([&] {
    RunResult R = BP.M->run(A, ~0ull);
    AViolated.store(R.Reason == StopReason::CfiViolation);
  });
  std::thread TB([&] {
    // Let B start (its slots are initialised by then), then poison its
    // private entry. B halts at its next check.
    RunResult Mid = BP.M->run(B, 50'000);
    EXPECT_EQ(Mid.Reason, StopReason::OutOfFuel);
    uint64_t BSlot = TabAddr + 2 * 8;
    uint64_t Good = 0;
    BP.M->load(BSlot, 8, Good);
    BP.M->store(BSlot, 8, Good + 2); // misaligned: invalid target
    RunResult R = BP.M->run(B, 2'000'000);
    BViolated.store(R.Reason == StopReason::CfiViolation);
  });
  TB.join();
  TA.join();
  EXPECT_TRUE(BViolated.load());
  EXPECT_FALSE(AViolated.load());
}

//===----------------------------------------------------------------------===//
// Linearizability of incremental updates (Sec. 5.2 + delta installs)
//===----------------------------------------------------------------------===//

/// Concurrent txCheck readers race an updater that alternates
/// *incremental* (growing) installs with full *shrinking* rebuilds.
/// Invariants:
///  - an edge in every installed CFG always passes;
///  - an edge in no installed CFG never passes (and, being invalid in
///    both, is never misreported as an ECN violation);
///  - a grown-only edge is either Pass (new CFG) or ViolationInvalid
///    (old CFG) — any other verdict would be a mixed observation;
///  - once updates stop, the slow path's retry counter stops growing:
///    stale states report violations instead of livelocking.
TEST(Linearizability, IncrementalAndShrinkingUpdates) {
  IDTables T(4096, 64);

  // Base CFG: offsets {0,8} class 1, site 0 class 1; offset 16 class 2,
  // site 1 class 2. The "grown" extension adds offset 24 to class 1.
  auto InstallBase = [&] {
    T.txUpdate(
        24,
        [](uint64_t O) -> int64_t { return O == 16 ? 2 : (O % 8 ? -1 : 1); },
        2, [](uint32_t I) -> int64_t { return I == 0 ? 1 : 2; });
  };
  auto GrowIncrementally = [&] {
    ASSERT_EQ(T.txUpdateIncremental(
                  32, {{24, 32}},
                  [](uint64_t O) -> int64_t {
                    return O == 16 ? 2 : (O % 8 ? -1 : 1);
                  },
                  2, {}, [](uint32_t I) -> int64_t { return I == 0 ? 1 : 2; }),
              TxUpdateStatus::Ok);
  };
  InstallBase();

  std::atomic<bool> CheckersDone{false};
  std::atomic<int> Failures{0};
  std::atomic<int> Running{4};
  auto Checker = [&] {
    for (int I = 0; I != 60000; ++I) {
      if (T.txCheck(0, 0) != CheckResult::Pass)
        Failures.fetch_add(1); // always-present edge
      if (T.txCheck(1, 16) != CheckResult::Pass)
        Failures.fetch_add(1); // always-present edge
      if (T.txCheck(0, 4) != CheckResult::ViolationInvalid)
        Failures.fetch_add(1); // never a target (misaligned word)
      CheckResult Grown = T.txCheck(0, 24);
      if (Grown != CheckResult::Pass &&
          Grown != CheckResult::ViolationInvalid)
        Failures.fetch_add(1); // mixed observation
      CheckResult Cross = T.txCheck(1, 0);
      if (Cross != CheckResult::ViolationECN)
        Failures.fetch_add(1); // wrong-class edge, present in both CFGs
    }
    if (Running.fetch_sub(1) == 1)
      CheckersDone.store(true);
  };
  std::vector<std::thread> Checkers;
  for (int I = 0; I != 4; ++I)
    Checkers.emplace_back(Checker);

  // Grow incrementally, then shrink back with a full rebuild, for as
  // long as the checkers run.
  uint64_t Cycles = 0;
  while (!CheckersDone.load(std::memory_order_relaxed)) {
    if (T.versionSpaceLow())
      T.resetVersionEpoch(); // stand-in for the runtime's quiescence
    GrowIncrementally();
    InstallBase(); // shrinks the Tary table: offset 24 retired
    ++Cycles;
  }
  for (std::thread &Th : Checkers)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(Cycles, 0u);

  // Quiescence: with no update in flight, violating checks must resolve
  // without a single retry — the stale-ID livelock regression.
  uint64_t Retries = T.slowRetryCount();
  for (int I = 0; I != 10000; ++I) {
    EXPECT_EQ(T.txCheck(0, 24), CheckResult::ViolationInvalid);
    EXPECT_EQ(T.txCheck(1, 0), CheckResult::ViolationECN);
  }
  EXPECT_EQ(T.slowRetryCount(), Retries)
      << "slow path kept spinning at quiescence";
}

/// Torn-read canary: under a storm of full and incremental updates,
/// every Tary word and Bary entry a reader observes must be either zero
/// (uninstalled/retired) or a well-formed ID carrying the reserved-bit
/// pattern — bit 0 of every byte set, bits 1..7 of byte 0 and the
/// reserved positions clear (the 0,0,0,1 low-bit signature that lets
/// guest code distinguish IDs from code addresses). A torn store, a
/// half-zeroed shrink, or a phase reorder would surface here as a word
/// that is neither.
TEST(Linearizability, ReservedBitsHoldUnderUpdateStorm) {
  IDTables T(256, 16);

  // Alternate three shapes: a wide CFG, a grown delta, and a narrow
  // shrink, so installs, deltas, and stale-range zeroing all run.
  auto InstallWide = [&] {
    T.txUpdate(
        192, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1 + (O / 64) % 3; },
        12, [](uint32_t I) -> int64_t { return 1 + I % 3; });
  };
  auto GrowDelta = [&] {
    T.txUpdateIncremental(
        256, {{192, 256}},
        [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1 + (O / 64) % 3; },
        16, {12, 13, 14, 15},
        [](uint32_t I) -> int64_t { return 1 + I % 3; });
  };
  auto InstallNarrow = [&] {
    T.txUpdate(64, [](uint64_t O) -> int64_t { return O % 4 ? -1 : 2; }, 4,
               [](uint32_t) -> int64_t { return 2; });
  };
  InstallWide();

  std::atomic<int> Running{3};
  std::atomic<bool> CanariesDone{false};
  std::atomic<uint64_t> TornWords{0};
  std::atomic<uint64_t> WordsSeen{0};
  auto Canary = [&] {
    uint64_t Seen = 0;
    for (int Sweep = 0; Sweep != 2000; ++Sweep) {
      for (uint64_t Off = 0; Off < T.taryCapacityBytes(); Off += 4) {
        uint32_t W = T.taryRead(Off);
        ++Seen;
        if (W != 0 && !isValidID(W))
          TornWords.fetch_add(1);
      }
      for (uint32_t I = 0; I < T.baryCapacity(); ++I) {
        uint32_t W = T.baryRead(I);
        ++Seen;
        if (W != 0 && !isValidID(W))
          TornWords.fetch_add(1);
      }
    }
    WordsSeen.fetch_add(Seen);
    if (Running.fetch_sub(1) == 1)
      CanariesDone.store(true);
  };
  std::vector<std::thread> Canaries;
  for (int I = 0; I != 3; ++I)
    Canaries.emplace_back(Canary);

  // Keep the storm going for as long as the canaries sweep.
  uint64_t Cycles = 0;
  while (!CanariesDone.load(std::memory_order_relaxed)) {
    if (T.versionSpaceLow())
      T.resetVersionEpoch();
    InstallWide();
    GrowDelta();
    InstallNarrow();
    ++Cycles;
  }
  for (std::thread &Th : Canaries)
    Th.join();
  EXPECT_GT(Cycles, 0u);
  EXPECT_EQ(TornWords.load(), 0u)
      << "observed a word violating the reserved-bit ID signature";
  EXPECT_GT(WordsSeen.load(), 10000u);
}

//===----------------------------------------------------------------------===//
// Dlopen storm: concurrent batched loads against live checkers
//===----------------------------------------------------------------------===//

/// One self-contained storm plugin: two address-taken functions of the
/// shared signature (i64,)->i64 plus a checked indirect call, so every
/// plugin's call site and targets live in one equivalence class and each
/// load is a pure extension of the installed policy.
std::string stormPluginSource(int I) {
  std::string N = std::to_string(I);
  return "long storm" + N + "_a(long x) { return x + " + N + "; }\n" +
         "long storm" + N + "_b(long x) { return x * 2; }\n" +
         "long storm" + N + "_drive(long v) {\n" +
         "  long (*tab[2])(long);\n" +
         "  tab[0] = storm" + N + "_a;\n" +
         "  tab[1] = storm" + N + "_b;\n" +
         "  return tab[v & 1](v);\n}\n";
}

/// 8 loader threads x 16 modules each, loaded via explicit dlopenBatch:
/// exactly ceil(128/16) = 8 installs, one per batch. While the storm
/// runs, canary threads sweep the tables for reserved-bit integrity and
/// every loader validates a cross-module edge *within its own batch* the
/// moment its batch returns — a half-installed batch would surface as a
/// failed check or a torn word. Full mode must spend exactly one version
/// bump per batch; incremental mode, zero.
void runDlopenStorm(bool Incremental, const std::vector<MCFIObject> &Plugins,
                    const std::vector<uint64_t> &TargetOff,
                    const std::vector<uint32_t> &LocalSite) {
  constexpr int Loaders = 8;
  constexpr int PerBatch = 16;

  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  CompileResult HostCR = compileModule("int main() { return 0; }", HostCO);
  ASSERT_TRUE(HostCR.Ok);

  Machine M;
  LinkOptions LO;
  LO.IncrementalUpdates = Incremental;
  Linker L(M, LO);
  std::string Error;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(HostCR.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Error)) << Error;
  for (const MCFIObject &P : Plugins)
    L.registerLibrary(P); // copies; both modes reuse the compiled set

  uint64_t UpdatesBefore = M.tables().updateCount();
  uint64_t VersionedBefore = M.tables().versionedUpdateCount();

  std::atomic<int> BadHandles{0};
  std::atomic<int> FailedChecks{0};
  std::atomic<int> LoadersLeft{Loaders};
  std::atomic<uint64_t> TornWords{0};

  // Reserved-bit canaries sweep until the storm ends, with a wall-clock
  // deadline as the flake-proof bound (TSan can slow sweeps ~20x).
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  auto Canary = [&] {
    while (LoadersLeft.load(std::memory_order_acquire) != 0 &&
           std::chrono::steady_clock::now() < Deadline) {
      for (uint64_t Off = 0; Off < M.tables().taryCapacityBytes(); Off += 4) {
        uint32_t W = M.tables().taryRead(Off);
        if (W != 0 && !isValidID(W))
          TornWords.fetch_add(1);
      }
      for (uint32_t I = 0; I < M.tables().baryCapacity(); ++I) {
        uint32_t W = M.tables().baryRead(I);
        if (W != 0 && !isValidID(W))
          TornWords.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> Canaries;
  for (int I = 0; I != 2; ++I)
    Canaries.emplace_back(Canary);

  auto Loader = [&](int T) {
    std::vector<int64_t> Ids;
    for (int I = 0; I != PerBatch; ++I)
      Ids.push_back(T * PerBatch + I);
    std::vector<DlopenResult> R = L.dlopenBatch(Ids);
    for (const DlopenResult &D : R)
      if (D.Handle < 0)
        BadHandles.fetch_add(1);
    // Cross-module edges *within this batch* must hold the instant the
    // batch returns, and keep holding under every later batch's install
    // (ECN stability): module i's indirect-call site against module
    // (i+1)'s address-taken target, wrapping around.
    for (int I = 0; I != PerBatch; ++I) {
      const DlopenResult &Site = R[static_cast<size_t>(I)];
      const DlopenResult &Tgt = R[static_cast<size_t>((I + 1) % PerBatch)];
      if (Site.Handle < 0 || Tgt.Handle < 0)
        continue;
      uint32_t Bary = Site.SiteIndexBase + LocalSite[Ids[I]];
      uint64_t Off = Tgt.CodeBase + TargetOff[Ids[(I + 1) % PerBatch]] -
                     Machine::CodeBase;
      if (M.tables().txCheck(Bary, Off) != CheckResult::Pass)
        FailedChecks.fetch_add(1);
    }
    LoadersLeft.fetch_sub(1, std::memory_order_release);
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != Loaders; ++T)
    Threads.emplace_back(Loader, T);
  for (std::thread &T : Threads)
    T.join();
  for (std::thread &T : Canaries)
    T.join();
  ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
      << "storm exceeded its wall-clock budget";

  EXPECT_EQ(BadHandles.load(), 0) << L.lastError();
  EXPECT_EQ(FailedChecks.load(), 0)
      << "a check observed a half-installed batch";
  EXPECT_EQ(TornWords.load(), 0u)
      << "a table word violated the reserved-bit ID signature";

  // Exactly one install per batch...
  EXPECT_EQ(M.tables().updateCount() - UpdatesBefore,
            static_cast<uint64_t>(Loaders));
  ASSERT_EQ(L.batchHistory().size(), static_cast<size_t>(Loaders));
  for (const DlopenBatchStats &BS : L.batchHistory()) {
    EXPECT_EQ(BS.Requested, static_cast<uint32_t>(PerBatch));
    EXPECT_EQ(BS.Loaded, static_cast<uint32_t>(PerBatch));
    EXPECT_TRUE(BS.Installed);
    EXPECT_EQ(BS.Incremental, Incremental);
  }
  // ...and version bumps only where the mode spends them: every batch is
  // a pure extension, so incremental mode coalesces 128 dlopens into 8
  // installs with zero version bumps, while full mode pays one per batch.
  EXPECT_EQ(M.tables().versionedUpdateCount() - VersionedBefore,
            Incremental ? 0u : static_cast<uint64_t>(Loaders));

  // Post-storm: every cross-batch edge holds (the final policy contains
  // all 128 modules in one class).
  const std::vector<DlopenBatchStats> &History = L.batchHistory();
  (void)History;
}

TEST(DlopenStorm, BatchedLoadsFullAndIncremental) {
  constexpr int NumPlugins = 128;
  std::vector<MCFIObject> Plugins;
  std::vector<uint64_t> TargetOff(NumPlugins, 0);
  std::vector<uint32_t> LocalSite(NumPlugins, 0);
  for (int I = 0; I != NumPlugins; ++I) {
    CompileOptions CO;
    CO.ModuleName = "storm" + std::to_string(I);
    // Keep the checked site a plain IndirectCall (tail-call optimization
    // would lower `return tab[i](v)` to an indirect jump).
    CO.TailCalls = false;
    CompileResult CR = compileModule(stormPluginSource(I), CO);
    ASSERT_TRUE(CR.Ok) << "plugin " << I;
    std::string AName = "storm" + std::to_string(I) + "_a";
    for (const FunctionInfo &F : CR.Obj.Aux.Functions)
      if (F.Name == AName) {
        ASSERT_TRUE(F.AddressTaken);
        TargetOff[I] = F.CodeOffset;
      }
    bool FoundSite = false;
    for (size_t S = 0; S != CR.Obj.Aux.BranchSites.size(); ++S)
      if (CR.Obj.Aux.BranchSites[S].Kind == BranchKind::IndirectCall) {
        LocalSite[I] = static_cast<uint32_t>(S);
        FoundSite = true;
        break;
      }
    ASSERT_TRUE(FoundSite);
    Plugins.push_back(std::move(CR.Obj));
  }

  runDlopenStorm(/*Incremental=*/false, Plugins, TargetOff, LocalSite);
  runDlopenStorm(/*Incremental=*/true, Plugins, TargetOff, LocalSite);
}

/// Regression for the dlsym/dlopen race: the Dlsym syscall used to walk
/// Machine::Mapped without ModuleLock while dlopen's push_back could
/// relocate the vector under it. Guest threads spin in dlsym — both the
/// global walk (handle -1) and the handle-scoped probe (whose bounds
/// check reads Mapped.size()) — while loader threads dlopenBatch new
/// modules. Run under TSan this is the race detector; in a normal build
/// it asserts clean exits plus correct post-storm resolution.
TEST(DlopenStorm, GuestDlsymRacesDlopen) {
  constexpr int NumPlugins = 24;
  std::vector<MCFIObject> Plugins;
  for (int I = 0; I != NumPlugins; ++I) {
    CompileOptions CO;
    CO.ModuleName = "sym" + std::to_string(I);
    CO.TailCalls = false;
    CompileResult CR = compileModule(stormPluginSource(I), CO);
    ASSERT_TRUE(CR.Ok) << "plugin " << I;
    Plugins.push_back(std::move(CR.Obj));
  }

  const char *HostSource = R"(
    long lookup(long iters) {
      long bad = 0;
      long i;
      for (i = 0; i < iters; i = i + 1) {
        /* global walk over every mapped module; resolves mid-storm */
        dlsym(-1, "storm5_b");
        /* handle-scoped: module index 7 only exists mid-storm */
        dlsym(7, "storm2_a");
        if (dlsym(-1, "no_such_symbol") != NULL) bad = 1;
      }
      exit((int)bad);
      return 0;
    }
    int main() { return 0; }
  )";
  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.TailCalls = false;
  CompileResult HostCR = compileModule(HostSource, HostCO);
  ASSERT_TRUE(HostCR.Ok);

  Machine M;
  LinkOptions LO;
  Linker L(M, LO);
  std::string Error;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(HostCR.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Error)) << Error;
  for (const MCFIObject &P : Plugins)
    L.registerLibrary(P);

  constexpr int Guests = 3;
  constexpr int Loaders = 3;
  constexpr int PerBatch = NumPlugins / Loaders;
  std::atomic<int> CleanExits{0};
  std::atomic<int> BadStops{0};
  std::atomic<int> BadHandles{0};

  std::vector<std::thread> Threads;
  for (int G = 0; G != Guests; ++G) {
    Threads.emplace_back([&] {
      Thread T;
      if (!M.makeThread("lookup", T))
        return;
      T.Regs[visa::RegArg0] = 1500;
      RunResult R = M.run(T, ~0ull);
      if (R.Reason == StopReason::Exited && R.ExitCode == 0)
        CleanExits.fetch_add(1);
      else
        BadStops.fetch_add(1);
    });
  }
  for (int T = 0; T != Loaders; ++T) {
    Threads.emplace_back([&, T] {
      std::vector<int64_t> Ids;
      for (int I = 0; I != PerBatch; ++I)
        Ids.push_back(T * PerBatch + I);
      for (const DlopenResult &D : L.dlopenBatch(Ids))
        if (D.Handle < 0)
          BadHandles.fetch_add(1);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(CleanExits.load(), Guests);
  EXPECT_EQ(BadStops.load(), 0);
  EXPECT_EQ(BadHandles.load(), 0) << L.lastError();
  // Post-storm, every plugin symbol resolves through both paths.
  EXPECT_NE(M.findFunction("storm5_b"), 0u);
  EXPECT_NE(M.dlsymLookup(-1, "storm23_a"), 0u);
  EXPECT_EQ(M.dlsymLookup(-1, "no_such_symbol"), 0u);
}

//===----------------------------------------------------------------------===//
// Dlclose churn: open/close storms with zero-leak accounting
//===----------------------------------------------------------------------===//

/// The unload tentpole's stress proof, in two phases over one compiled
/// plugin set.
///
/// Phase A (deterministic): one thread cycles open-all-16 /
/// validate-edges / close-all-16 / drain. Every cycle the update and
/// version counters must satisfy the exact identities the batch and
/// unload histories imply (opens coalesce to ONE install, closes to ONE
/// retire, version bumps only for non-incremental installs and policy
/// reinstalls), and the machine must return to its pre-open footprint:
/// no pending regions, no condemned ECNs, an empty free list after the
/// tail-trim, baseline codeTop and module count.
///
/// Phase B (concurrent): 8 loaders interleave dlopenBatch/dlcloseBatch
/// over their own module pairs with interspersed drains, while
/// reserved-bit canaries sweep the tables. Intra-batch edges must check
/// Pass the moment a batch returns (they are legal in every policy
/// while the owner's modules live, and ECN numbering is stable across
/// concurrent retires). Post-storm the same counter identities and the
/// same zero-leak footprint must hold: after the final drain, every
/// Tary word above the host's code extent and every Bary slot above the
/// host's site count reads zero — a nonzero word there is a leaked
/// table slot from some unload.
TEST(DlcloseChurn, StormWithZeroLeakAccounting) {
  constexpr int NumPlugins = 16;
  std::vector<MCFIObject> Plugins;
  std::vector<uint64_t> TargetOff(NumPlugins, 0);
  std::vector<uint32_t> LocalSite(NumPlugins, 0);
  for (int I = 0; I != NumPlugins; ++I) {
    CompileOptions CO;
    CO.ModuleName = "storm" + std::to_string(I);
    CO.TailCalls = false; // keep the checked site a plain IndirectCall
    CompileResult CR = compileModule(stormPluginSource(I), CO);
    ASSERT_TRUE(CR.Ok) << "plugin " << I;
    std::string AName = "storm" + std::to_string(I) + "_a";
    for (const FunctionInfo &F : CR.Obj.Aux.Functions)
      if (F.Name == AName) {
        ASSERT_TRUE(F.AddressTaken);
        TargetOff[I] = F.CodeOffset;
      }
    bool FoundSite = false;
    for (size_t S = 0; S != CR.Obj.Aux.BranchSites.size(); ++S)
      if (CR.Obj.Aux.BranchSites[S].Kind == BranchKind::IndirectCall) {
        LocalSite[I] = static_cast<uint32_t>(S);
        FoundSite = true;
        break;
      }
    ASSERT_TRUE(FoundSite);
    Plugins.push_back(std::move(CR.Obj));
  }

  auto freshLinker = [&](Machine &M) {
    LinkOptions LO;
    LO.IncrementalUpdates = true;
      auto L = std::make_unique<Linker>(M, LO);
    CompileOptions HostCO;
    HostCO.ModuleName = "host";
    CompileResult HostCR = compileModule("int main() { return 0; }", HostCO);
    EXPECT_TRUE(HostCR.Ok);
    std::string Error;
    std::vector<MCFIObject> Objs;
    Objs.push_back(std::move(HostCR.Obj));
    EXPECT_TRUE(L->linkProgram(std::move(Objs), Error)) << Error;
    for (const MCFIObject &P : Plugins)
      L->registerLibrary(P);
    return L;
  };

  // Sums the counter-relevant facts over a history suffix.
  struct HistoryDelta {
    uint64_t Installs = 0, NonIncremental = 0, Loaded = 0;
    uint64_t Retires = 0, Reinstalls = 0, Closed = 0;
  };
  auto tally = [](const Linker &L, size_t Batches0, size_t Unloads0) {
    HistoryDelta D;
    const std::vector<DlopenBatchStats> &BH = L.batchHistory();
    for (size_t I = Batches0; I != BH.size(); ++I) {
      D.Installs += BH[I].Installed ? 1 : 0;
      D.NonIncremental += (BH[I].Installed && !BH[I].Incremental) ? 1 : 0;
      D.Loaded += BH[I].Loaded;
    }
    const std::vector<DlcloseBatchStats> &UH = L.unloadHistory();
    for (size_t I = Unloads0; I != UH.size(); ++I) {
      ++D.Retires;
      D.Reinstalls += UH[I].PolicyReinstalled ? 1 : 0;
      D.Closed += UH[I].Closed;
    }
    return D;
  };

  // Zero-leak sweep: nothing above the host's own footprint survives a
  // full unload + drain.
  auto expectNoLeakedSlots = [](const Machine &M, uint64_t CodeTop0,
                                uint32_t Bary0) {
    uint64_t Leaked = 0;
    for (uint64_t Off = CodeTop0 - Machine::CodeBase;
         Off < M.tables().taryCapacityBytes(); Off += 4)
      if (M.tables().taryRead(Off) != 0)
        ++Leaked;
    for (uint32_t I = Bary0; I < M.tables().baryCapacity(); ++I)
      if (M.tables().baryRead(I) != 0)
        ++Leaked;
    EXPECT_EQ(Leaked, 0u) << "table slots leaked past the full unload";
  };

  //===--------------------------------------------------------------------===//
  // Phase A: deterministic open/close cycles with exact accounting.
  //===--------------------------------------------------------------------===//
  {
    Machine M;
    auto L = freshLinker(M);
    size_t Modules0 = M.modules().size();
    uint64_t CodeTop0 = M.codeTop();
    uint32_t Bary0 = L->shadow().image().BaryCount;

    constexpr int CyclesA = 4;
    for (int C = 0; C != CyclesA; ++C) {
      uint64_t U0 = M.tables().updateCount();
      uint64_t V0 = M.tables().versionedUpdateCount();
      size_t Batches0 = L->batchHistory().size();
      size_t Unloads0 = L->unloadHistory().size();

      std::vector<int64_t> Ids;
      for (int I = 0; I != NumPlugins; ++I)
        Ids.push_back(I);
      std::vector<DlopenResult> R = L->dlopenBatch(Ids);
      ASSERT_EQ(R.size(), static_cast<size_t>(NumPlugins));
      std::vector<int64_t> Handles;
      for (const DlopenResult &D : R) {
        ASSERT_GE(D.Handle, 0) << "cycle " << C << ": " << L->lastError();
        Handles.push_back(D.Handle);
      }
      // The ring of cross-module edges holds the instant the batch lands.
      for (int I = 0; I != NumPlugins; ++I) {
        int J = (I + 1) % NumPlugins;
        uint32_t Bary = R[static_cast<size_t>(I)].SiteIndexBase +
                        LocalSite[static_cast<size_t>(I)];
        uint64_t Off = R[static_cast<size_t>(J)].CodeBase +
                       TargetOff[static_cast<size_t>(J)] - Machine::CodeBase;
        EXPECT_EQ(M.tables().txCheck(Bary, Off), CheckResult::Pass)
            << "cycle " << C << " edge " << I << "->" << J;
      }

      for (bool Ok : L->dlcloseBatch(Handles))
        EXPECT_TRUE(Ok) << "cycle " << C << ": " << L->lastError();
      M.drainReclaim();

      // Exact identities: the open batch is ONE install, the close batch
      // ONE retire; versions move only for non-incremental installs and
      // policy reinstalls.
      HistoryDelta D = tally(*L, Batches0, Unloads0);
      EXPECT_EQ(D.Installs, 1u) << "cycle " << C;
      EXPECT_EQ(D.Loaded, static_cast<uint64_t>(NumPlugins));
      EXPECT_EQ(D.Retires, 1u) << "cycle " << C;
      EXPECT_EQ(D.Closed, static_cast<uint64_t>(NumPlugins));
      EXPECT_EQ(M.tables().updateCount() - U0,
                D.Installs + D.Retires + D.Reinstalls)
          << "cycle " << C;
      EXPECT_EQ(M.tables().versionedUpdateCount() - V0,
                D.NonIncremental + D.Reinstalls)
          << "cycle " << C;

      // The footprint is restored every cycle: drained, tail-trimmed,
      // back to the host-only baseline.
      ReclaimStats RS = M.reclaimStats();
      EXPECT_EQ(RS.PendingRegions, 0u) << "cycle " << C;
      EXPECT_EQ(RS.CondemnedECNs, 0u) << "cycle " << C;
      EXPECT_EQ(RS.FreeRanges, 0u) << "cycle " << C;
      EXPECT_EQ(M.codeTop(), CodeTop0) << "cycle " << C;
      EXPECT_EQ(M.modules().size(), Modules0) << "cycle " << C;
    }
    ReclaimStats RS = M.reclaimStats();
    EXPECT_EQ(RS.Retired, RS.Reclaimed);
    EXPECT_GE(RS.Reclaimed, static_cast<uint64_t>(CyclesA));
    EXPECT_GT(RS.BytesReclaimed, 0u);
    expectNoLeakedSlots(M, CodeTop0, Bary0);
  }

  //===--------------------------------------------------------------------===//
  // Phase B: 8 loaders churn their own pairs against live canaries.
  //===--------------------------------------------------------------------===//
  {
    Machine M;
    auto L = freshLinker(M);
    size_t Modules0 = M.modules().size();
    uint64_t CodeTop0 = M.codeTop();
    uint32_t Bary0 = L->shadow().image().BaryCount;
    uint64_t U0 = M.tables().updateCount();
    uint64_t V0 = M.tables().versionedUpdateCount();

    constexpr int Loaders = 8;
    constexpr int PerLoader = 2; // ids {2T, 2T+1}
    constexpr int CyclesB = 6;

    std::atomic<int> BadHandles{0};
    std::atomic<int> BadCloses{0};
    std::atomic<int> FailedChecks{0};
    std::atomic<int> LoadersLeft{Loaders};
    std::atomic<uint64_t> TornWords{0};
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);

    auto Canary = [&] {
      while (LoadersLeft.load(std::memory_order_acquire) != 0 &&
             std::chrono::steady_clock::now() < Deadline) {
        for (uint64_t Off = 0; Off < M.tables().taryCapacityBytes(); Off += 4) {
          uint32_t W = M.tables().taryRead(Off);
          if (W != 0 && !isValidID(W))
            TornWords.fetch_add(1);
        }
        for (uint32_t I = 0; I < M.tables().baryCapacity(); ++I) {
          uint32_t W = M.tables().baryRead(I);
          if (W != 0 && !isValidID(W))
            TornWords.fetch_add(1);
        }
      }
    };
    std::vector<std::thread> Canaries;
    for (int I = 0; I != 2; ++I)
      Canaries.emplace_back(Canary);

    auto Loader = [&](int T) {
      std::vector<int64_t> Ids;
      for (int I = 0; I != PerLoader; ++I)
        Ids.push_back(T * PerLoader + I);
      for (int C = 0; C != CyclesB; ++C) {
        std::vector<DlopenResult> R = L->dlopenBatch(Ids);
        bool AllUp = true;
        std::vector<int64_t> Handles;
        for (const DlopenResult &D : R) {
          if (D.Handle < 0) {
            BadHandles.fetch_add(1);
            AllUp = false;
            continue;
          }
          Handles.push_back(D.Handle);
        }
        if (AllUp) {
          // Both directions of this loader's intra-batch edge are legal
          // in EVERY policy while its modules live — a failed check here
          // is a half-installed batch or an unload that revoked a
          // surviving module's edges.
          for (int I = 0; I != PerLoader; ++I) {
            int J = (I + 1) % PerLoader;
            uint32_t Bary = R[static_cast<size_t>(I)].SiteIndexBase +
                            LocalSite[static_cast<size_t>(Ids[I])];
            uint64_t Off = R[static_cast<size_t>(J)].CodeBase +
                           TargetOff[static_cast<size_t>(Ids[J])] -
                           Machine::CodeBase;
            if (M.tables().txCheck(Bary, Off) != CheckResult::Pass)
              FailedChecks.fetch_add(1);
          }
        }
        for (bool Ok : L->dlcloseBatch(Handles))
          if (!Ok)
            BadCloses.fetch_add(1);
        // Interleave drains across loaders so reclamation (and range
        // reuse) runs concurrently with other loaders' opens.
        if ((C & 1) == (T & 1))
          M.drainReclaim();
      }
      LoadersLeft.fetch_sub(1, std::memory_order_release);
    };
    std::vector<std::thread> Threads;
    for (int T = 0; T != Loaders; ++T)
      Threads.emplace_back(Loader, T);
    for (std::thread &T : Threads)
      T.join();
    for (std::thread &T : Canaries)
      T.join();
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "churn storm exceeded its wall-clock budget";

    EXPECT_EQ(BadHandles.load(), 0) << L->lastError();
    EXPECT_EQ(BadCloses.load(), 0) << L->lastError();
    EXPECT_EQ(FailedChecks.load(), 0)
        << "a live loader's own intra-batch edge failed mid-churn";
    EXPECT_EQ(TornWords.load(), 0u)
        << "a table word violated the reserved-bit ID signature";

    // Post-storm: drain whatever the interleaved drains left pending,
    // then demand the same exact identities and zero-leak footprint.
    M.drainReclaim();
    HistoryDelta D = tally(*L, 0, 0);
    EXPECT_EQ(D.Loaded,
              static_cast<uint64_t>(Loaders) * PerLoader * CyclesB);
    EXPECT_EQ(D.Closed,
              static_cast<uint64_t>(Loaders) * PerLoader * CyclesB);
    EXPECT_EQ(M.tables().updateCount() - U0,
              D.Installs + D.Retires + D.Reinstalls);
    EXPECT_EQ(M.tables().versionedUpdateCount() - V0,
              D.NonIncremental + D.Reinstalls);

    ReclaimStats RS = M.reclaimStats();
    EXPECT_EQ(RS.PendingRegions, 0u);
    EXPECT_EQ(RS.CondemnedECNs, 0u);
    EXPECT_EQ(RS.FreeRanges, 0u);
    EXPECT_EQ(RS.Retired, RS.Reclaimed);
    EXPECT_EQ(M.codeTop(), CodeTop0);
    EXPECT_EQ(M.modules().size(), Modules0);
    expectNoLeakedSlots(M, CodeTop0, Bary0);
  }
}

TEST(GuestThreads, StacksAreDisjoint) {
  BuiltProgram BP = buildShared();
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Thread A, B, C;
  ASSERT_TRUE(BP.M->makeThread("worker", A));
  ASSERT_TRUE(BP.M->makeThread("worker", B));
  ASSERT_TRUE(BP.M->makeThread("worker", C));
  // Initial stack pointers differ by at least a full stack size.
  uint64_t SA = A.Regs[visa::RegSP], SB = B.Regs[visa::RegSP],
           SC = C.Regs[visa::RegSP];
  EXPECT_GT(SA, SB);
  EXPECT_GT(SB, SC);
  EXPECT_GE(SA - SB, 1u << 20);
  EXPECT_GE(SB - SC, 1u << 20);
}

} // namespace
