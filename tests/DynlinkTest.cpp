//===- tests/DynlinkTest.cpp - Dynamic linking tests ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the paper's headline capability: dynamically linking
/// separately instrumented libraries into a running, multithreaded
/// program, with the CFG policy updated through check/update
/// transactions. Covers the three dlopen steps, PLT/GOT behaviour,
/// cross-module control flow, and concurrency between executing threads
/// and the dynamic linker.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mcfi;

namespace {

const char *PluginSource = R"(
long plugin_fn(long x) { return x * 10 + 1; }
long plugin_cb(long (*cb)(long), long v) { return cb(v) + 1000; }
/* dlsym hands out plugin_fn's address, so the plugin must mark it
   address-taken -- under MCFI only address-taken functions are legal
   indirect-call targets. */
long (*plugin_exports)(long) = plugin_fn;
)";

const char *HostSource = R"(
long plugin_fn(long x);
long plugin_cb(long (*cb)(long), long v);
long local_cb(long x) { return x + 5; }
int main() {
  long h = dlopen(0);
  if (h < 0) { print_str("dlopen failed\n"); return 1; }
  print_int(plugin_fn(4));                 /* via PLT */
  print_int(plugin_cb(local_cb, 7));       /* plugin calls back into main */
  long (*f)(long) = (long (*)(long))dlsym(h, "plugin_fn");
  if (f) print_int(f(9));                  /* via dlsym'd pointer */
  return 0;
}
)";

struct DynProgram {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
  bool Ok = false;
  std::string Error;
};

DynProgram buildDynamic(const std::string &Host, const std::string &Plugin) {
  DynProgram D;
  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.EmitPlt = true;
  CompileResult HostCR = compileModule(Host, HostCO);
  if (!HostCR.Ok) {
    D.Error = HostCR.Errors.empty() ? "host compile" : HostCR.Errors.front();
    return D;
  }
  CompileOptions PlugCO;
  PlugCO.ModuleName = "plugin";
  CompileResult PlugCR = compileModule(Plugin, PlugCO);
  if (!PlugCR.Ok) {
    D.Error =
        PlugCR.Errors.empty() ? "plugin compile" : PlugCR.Errors.front();
    return D;
  }

  D.M = std::make_unique<Machine>();
  D.L = std::make_unique<Linker>(*D.M);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(HostCR.Obj));
  if (!D.L->linkProgram(std::move(Objs), D.Error))
    return D;
  D.L->registerLibrary(std::move(PlugCR.Obj));
  D.Ok = true;
  return D;
}

TEST(Dynlink, DlopenPltAndDlsym) {
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  uint32_t VersionBefore = D.M->tables().currentVersion();

  RunResult R = runProgram(*D.M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(D.M->takeOutput(), "41\n1012\n91\n");
  // dlopen executed an update transaction: the CFG version advanced.
  EXPECT_GT(D.M->tables().currentVersion(), VersionBefore);
}

TEST(Dynlink, CallingImportBeforeDlopenFailsClosed) {
  const char *Eager = R"(
    long plugin_fn(long x);
    int main() {
      print_int(plugin_fn(4)); /* library not loaded: GOT is empty */
      return 0;
    }
  )";
  DynProgram D = buildDynamic(Eager, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  RunResult R = runProgram(*D.M);
  // The PLT check transaction reads an invalid target ID and halts.
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST(Dynlink, HijackedGotEntryIsBlocked) {
  // Even though the GOT lives in writable data, corrupting it cannot
  // redirect the PLT jump to a non-IBT (the PLT jump is checked).
  const char *LoopingHost = R"(
    long plugin_fn(long x);
    int main() {
      if (dlopen(0) < 0) return 1;
      long acc = 0;
      long i;
      for (i = 0; i < 1000000; i = i + 1)
        acc = acc + plugin_fn(i);
      print_int(acc & 255);
      return 0;
    }
  )";
  DynProgram D = buildDynamic(LoopingHost, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;

  Thread T;
  ASSERT_TRUE(D.M->makeThread("_start", T));
  // Run until mid-loop (GOT already resolved), then corrupt it.
  RunResult Mid = D.M->run(T, 300'000);
  ASSERT_EQ(Mid.Reason, StopReason::OutOfFuel) << Mid.Message;
  uint64_t GotAddr = 0;
  for (const MappedModule &Mod : D.M->modules()) {
    auto It = Mod.Obj->DataSymbols.find("got$plugin_fn");
    if (It != Mod.Obj->DataSymbols.end())
      GotAddr = Mod.DataBase + It->second;
  }
  ASSERT_NE(GotAddr, 0u);
  ASSERT_TRUE(D.M->store(GotAddr, 8, D.M->findFunction("plugin_fn") + 2));
  RunResult R = D.M->run(T, ~0ull);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST(Dynlink, SecondDlopenExtendsPolicy) {
  const char *Host = R"(
    long plugin_fn(long x);
    long extra_fn(long x);
    int main() {
      if (dlopen(0) < 0) return 1;
      print_int(plugin_fn(1));
      if (dlopen(1) < 0) return 2;
      print_int(extra_fn(1));
      return 0;
    }
  )";
  const char *Extra = "long extra_fn(long x) { return x + 77; }";

  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.EmitPlt = true;
  CompileResult HostCR = compileModule(Host, HostCO);
  ASSERT_TRUE(HostCR.Ok) << HostCR.Errors.front();
  CompileResult Plug1 = compileModule(PluginSource, {.ModuleName = "p1"});
  ASSERT_TRUE(Plug1.Ok);
  CompileResult Plug2 = compileModule(Extra, {.ModuleName = "p2"});
  ASSERT_TRUE(Plug2.Ok);

  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(HostCR.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  L.registerLibrary(std::move(Plug1.Obj));
  L.registerLibrary(std::move(Plug2.Obj));

  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(M.takeOutput(), "11\n78\n");
  // Two dlopens + the initial install = at least 3 update transactions.
  EXPECT_GE(M.tables().updateCount(), 3u);
}

TEST(Dynlink, ConcurrentThreadsDuringDlopen) {
  // The paper's central concurrency scenario: user threads execute
  // check transactions while another thread dynamically links a
  // library. The spinning thread's indirect calls must keep passing
  // (retrying across the update), never spuriously halting.
  const char *Host = R"(
    long plugin_fn(long x);
    long w0(long x) { return x + 1; }
    long w1(long x) { return x * 2; }
    long (*tab[2])(long);
    void spinner(void) {
      tab[0] = w0;
      tab[1] = w1;
      long acc = 0;
      long i = 0;
      while (1) {
        acc = acc + tab[i & 1](i);
        i = i + 1;
      }
    }
    int main() { return 0; }
  )";
  DynProgram D = buildDynamic(Host, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;

  // The spinner runs forever; drive it in fuel slices on another host
  // thread while this thread performs the dynamic link.
  Thread T;
  ASSERT_TRUE(D.M->makeThread("spinner", T));
  std::atomic<bool> Stop{false};
  std::atomic<bool> Violated{false};
  std::thread Guest([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      RunResult R = D.M->run(T, 500'000);
      if (R.Reason != StopReason::OutOfFuel) {
        Violated.store(R.Reason == StopReason::CfiViolation);
        break;
      }
    }
  });

  // Dynamically link the plugin while the guest thread runs, several
  // times the machinery: repeated full-policy reinstalls also exercise
  // version bumps racing the spinner's check transactions.
  int64_t Handle = D.L->dlopen(0);
  EXPECT_GE(Handle, 0) << D.L->lastError();
  for (int I = 0; I != 20 && !Violated.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  Stop.store(true);
  Guest.join();
  EXPECT_FALSE(Violated.load())
      << "a check transaction failed during dynamic linking";
  // The newly linked code is callable.
  EXPECT_NE(D.M->findFunction("plugin_fn"), 0u);
}

//===----------------------------------------------------------------------===//
// Module unload (dlclose)
//===----------------------------------------------------------------------===//

TEST(Dynlink, DlcloseFailsClosedAndInvalidatesHandle) {
  // After dlclose the module's IDs are zeroed and its GOT-published
  // address is gone: a replayed PLT call must lose at the check, and a
  // stale handle must stop resolving symbols.
  const char *Host = R"(
    long plugin_fn(long x);
    int main() {
      long h = dlopen(0);
      if (h < 0) return 1;
      print_int(plugin_fn(4));                 /* works while loaded */
      if (dlclose(h) != 0) return 2;
      long (*f)(long) = (long (*)(long))dlsym(h, "plugin_fn");
      if (f) print_str("stale handle resolved\n");
      else print_str("gone\n");
      print_int(plugin_fn(5));                 /* must fail closed */
      return 0;
    }
  )";
  DynProgram D = buildDynamic(Host, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  RunResult R = runProgram(*D.M);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
  EXPECT_EQ(D.M->takeOutput(), "41\ngone\n");
  ASSERT_EQ(D.L->unloadHistory().size(), 1u);
  EXPECT_EQ(D.L->unloadHistory()[0].Closed, 1u);
  // The unloaded function is invisible to symbol lookup.
  EXPECT_EQ(D.M->findFunction("plugin_fn"), 0u);
}

TEST(Dynlink, DlcloseRejectsBadHandles) {
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  // Static program modules (bootstrap + host) can never be closed.
  EXPECT_FALSE(D.L->dlcloseOne(0));
  EXPECT_FALSE(D.L->dlcloseOne(1));
  // Out-of-range and negative handles.
  EXPECT_FALSE(D.L->dlcloseOne(-1));
  EXPECT_FALSE(D.L->dlcloseOne(99));
  // Double close: the second must fail.
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  EXPECT_TRUE(D.L->dlcloseOne(H));
  EXPECT_FALSE(D.L->dlcloseOne(H));
  // Duplicate handles within one batch: exactly one wins.
  int64_t H2 = D.L->dlopen(0);
  ASSERT_GE(H2, 0);
  std::vector<bool> Ok = D.L->dlcloseBatch({H2, H2});
  EXPECT_TRUE(Ok[0]);
  EXPECT_FALSE(Ok[1]);
}

TEST(Dynlink, DlopenAfterMallocKeepsHeapIntact) {
  // A module's globals come from the heap's bump pointer, so a dlopen
  // after a malloc places them past the live block instead of on it.
  const char *Host = R"(
    long plugin_get(long i);
    int main() {
      long *p = (long *)malloc(64);
      p[0] = 42;
      p[1] = 43;
      if (dlopen(0) < 0) return 1;
      print_int(p[0]);
      print_int(p[1]);
      print_int(plugin_get(0));
      print_int(plugin_get(1));
      return 0;
    }
  )";
  const char *Plugin = R"(
    long g0 = 7;
    long g1 = 8;
    long plugin_get(long i) { if (i) return g1; return g0; }
  )";
  DynProgram D = buildDynamic(Host, Plugin);
  ASSERT_TRUE(D.Ok) << D.Error;
  RunResult R = runProgram(*D.M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(D.M->takeOutput(), "42\n43\n7\n8\n");
}

TEST(Dynlink, DlcloseReclaimRestoresFootprint) {
  // The zero-leak property: open -> close -> drain returns the machine
  // to its pre-dlopen footprint (module count, code usage, no pending
  // regions, no condemned ECNs, empty free list after the tail-trim).
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  size_t Modules0 = D.M->modules().size();
  uint64_t CodeTop0 = D.M->codeTop();

  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  uint64_t PluginBase = D.M->modules()[static_cast<size_t>(H)].CodeBase;
  EXPECT_GT(D.M->codeTop(), CodeTop0);

  ASSERT_TRUE(D.L->dlcloseOne(H));
  // Retired, not yet reclaimed: the region waits out its grace period.
  EXPECT_TRUE(D.M->reclaimPending());
  EXPECT_EQ(D.M->reclaimStats().PendingRegions, 1u);

  // No guest threads are running, so the drain matures everything.
  D.M->drainReclaim();
  ReclaimStats RS = D.M->reclaimStats();
  EXPECT_EQ(RS.PendingRegions, 0u);
  EXPECT_EQ(RS.Reclaimed, 1u);
  EXPECT_EQ(RS.CondemnedECNs, 0u);
  // Tail-trim: the hole was at the top of the code region, so the
  // machine shrinks back instead of keeping a free-list entry.
  EXPECT_EQ(RS.FreeRanges, 0u);
  EXPECT_EQ(D.M->codeTop(), CodeTop0);
  EXPECT_EQ(D.M->modules().size(), Modules0);

  // Re-merge after unload is identical to never having loaded: a fresh
  // dlopen of the same library lands at the same base and flattens to
  // the same policy image as the first load did.
  int64_t H2 = D.L->dlopen(0);
  ASSERT_GE(H2, 0) << D.L->lastError();
  EXPECT_EQ(D.M->modules()[static_cast<size_t>(H2)].CodeBase, PluginBase);
}

TEST(Dynlink, ReopenAfterUnloadIsByteIdentical) {
  // Stronger determinism check: the installed policy and table extents
  // after open/close/drain/open equal those after the first open.
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0);
  CFGPolicy First = D.L->policy(); // copy
  uint64_t TaryBytes = D.M->tables().installedTaryLimitBytes();
  uint32_t BaryCount = D.M->tables().installedBaryCount();
  ASSERT_TRUE(D.L->dlcloseOne(H));
  D.M->drainReclaim();
  int64_t H2 = D.L->dlopen(0);
  ASSERT_GE(H2, 0);
  const CFGPolicy &Second = D.L->policy();
  EXPECT_EQ(D.M->tables().installedTaryLimitBytes(), TaryBytes);
  EXPECT_EQ(D.M->tables().installedBaryCount(), BaryCount);
  EXPECT_TRUE(First.TargetECN == Second.TargetECN);
  EXPECT_TRUE(First.BranchECN == Second.BranchECN);
}

/// Expects every entry of the linker's policy to read back from the ID
/// tables: each target's Tary ID and each site's Bary ID carries the
/// policy's ECN, and a site with no ID reads 0.
void expectPolicyMatchesTables(const DynProgram &D) {
  const CFGPolicy &P = D.L->policy();
  const IDTables &T = D.M->tables();
  for (const auto &[Addr, ECN] : P.TargetECN) {
    uint32_t ID = T.taryRead(Addr - Machine::CodeBase);
    ASSERT_TRUE(isValidID(ID)) << "target " << Addr;
    EXPECT_EQ(idECN(ID), ECN) << "target " << Addr;
  }
  for (uint32_t I = 0; I != P.BranchECN.size(); ++I) {
    uint32_t ID = T.baryRead(I);
    if (P.BranchECN[I] < 0) {
      EXPECT_EQ(ID, 0u) << "site " << I;
      continue;
    }
    ASSERT_TRUE(isValidID(ID)) << "site " << I;
    EXPECT_EQ(idECN(ID), static_cast<uint32_t>(P.BranchECN[I]))
        << "site " << I;
  }
}

TEST(Dynlink, RefusedInstallLeavesPolicyMatchingTables) {
  // The host imports from the plugin, so this dlopen rewrites the host's
  // PLT site and needs the full, version-bumping install. With the
  // version space exhausted that install is refused, and policy() must
  // still name what the tables hold.
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  const CFGPolicy &P = D.L->policy();
  uint64_t TaryLimit = D.M->codeTop() - Machine::CodeBase;
  // ECN-preserving full updates burn the rest of the version space.
  TxUpdateStatus Status = TxUpdateStatus::Ok;
  while (Status == TxUpdateStatus::Ok)
    Status = D.M->tables().txUpdate(
        TaryLimit,
        [&](uint64_t Off) { return P.getTaryECN(Machine::CodeBase + Off); },
        static_cast<uint32_t>(P.BranchECN.size()),
        [&](uint32_t I) { return P.getBaryECN(I); });
  ASSERT_EQ(Status, TxUpdateStatus::VersionExhausted);

  EXPECT_LT(D.L->dlopen(0), 0);
  EXPECT_NE(D.L->lastError().find("refused"), std::string::npos)
      << D.L->lastError();
  expectPolicyMatchesTables(D);
  // The refused load stays mapped but was never installed, so its index
  // is not a handle dlclose accepts.
  EXPECT_FALSE(D.L->dlcloseOne(
      static_cast<int64_t>(D.M->modules().size()) - 1));

  // After a quiescence point the same load installs, and the policy
  // still reads back from the tables.
  D.M->tables().resetVersionEpoch();
  ASSERT_GE(D.L->dlopen(0), 0) << D.L->lastError();
  EXPECT_FALSE(D.L->updateHistory().back().Incremental);
  expectPolicyMatchesTables(D);
}

TEST(Dynlink, DlopenAfterDrainStaysIncremental) {
  // The drain's tail-trim lowers codeTop and pops the closed modules'
  // branch-site slots. The installed Tary limit and Bary count stay at
  // their high-water marks, and the entries above the trimmed top were
  // zeroed by the retire, so the next dlopen into that space is still a
  // pure extension: no full install, no version bump. The host gives
  // the plugin nothing to call back into, so loading it changes no
  // installed entry.
  DynProgram D = buildDynamic("int main() { return 0; }", PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  std::vector<int64_t> Handles;
  for (const DlopenResult &R : D.L->dlopenBatch({0, 0})) {
    ASSERT_GE(R.Handle, 0) << D.L->lastError();
    Handles.push_back(R.Handle);
  }
  uint64_t TopWithTwo = D.M->codeTop();
  for (bool Ok : D.L->dlcloseBatch(Handles))
    ASSERT_TRUE(Ok);
  D.M->drainReclaim();
  ASSERT_LT(D.M->codeTop(), TopWithTwo);

  // One copy comes back: both extents stay below the high-water marks.
  uint32_t Version = D.M->tables().currentVersion();
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  ASSERT_LT(D.M->codeTop(), TopWithTwo);
  EXPECT_TRUE(D.L->batchHistory().back().Incremental);
  EXPECT_TRUE(D.L->updateHistory().back().Incremental);
  EXPECT_EQ(D.M->tables().currentVersion(), Version);
}

TEST(Dynlink, DlcloseBatchOneRetireTransaction) {
  // Closing N modules as one batch runs ONE retire transaction.
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  std::vector<DlopenResult> Opened = D.L->dlopenBatch({0, 0, 0});
  std::vector<int64_t> Handles;
  for (const DlopenResult &R : Opened) {
    ASSERT_GE(R.Handle, 0);
    Handles.push_back(R.Handle);
  }
  uint64_t Updates0 = D.M->tables().updateCount();
  std::vector<bool> Ok = D.L->dlcloseBatch(Handles);
  for (bool B : Ok)
    EXPECT_TRUE(B);
  ASSERT_FALSE(D.L->unloadHistory().empty());
  const DlcloseBatchStats &BS = D.L->unloadHistory().back();
  EXPECT_EQ(BS.Requested, 3u);
  EXPECT_EQ(BS.Closed, 3u);
  // One retire transaction, plus at most one reinstall when surviving
  // classes changed shape.
  uint64_t Delta = D.M->tables().updateCount() - Updates0;
  EXPECT_GE(Delta, 1u);
  EXPECT_LE(Delta, 2u);
}

TEST(Dynlink, ConcurrentCheckersDuringDlclose) {
  // The unload twin of ConcurrentThreadsDuringDlopen: a spinner whose
  // indirect calls target only its OWN module must never falter while
  // an unrelated plugin is unloaded out from under it.
  const char *Host = R"(
    long plugin_fn(long x);
    long w0(long x) { return x + 1; }
    long w1(long x) { return x * 2; }
    long (*tab[2])(long);
    void spinner(void) {
      tab[0] = w0;
      tab[1] = w1;
      long acc = 0;
      long i = 0;
      while (1) {
        acc = acc + tab[i & 1](i);
        i = i + 1;
      }
    }
    int main() { return 0; }
  )";
  DynProgram D = buildDynamic(Host, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;

  Thread T;
  ASSERT_TRUE(D.M->makeThread("spinner", T));
  std::atomic<bool> Stop{false};
  std::atomic<bool> Violated{false};
  std::thread Guest([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      RunResult R = D.M->run(T, 200'000);
      if (R.Reason != StopReason::OutOfFuel) {
        Violated.store(R.Reason == StopReason::CfiViolation);
        break;
      }
    }
  });

  for (int Cycle = 0; Cycle != 10 && !Violated.load(); ++Cycle) {
    int64_t H = D.L->dlopen(0);
    ASSERT_GE(H, 0) << D.L->lastError();
    ASSERT_TRUE(D.L->dlcloseOne(H));
    D.M->drainReclaim(); // spinner never syscalls; grace stays open
  }

  Stop.store(true);
  Guest.join();
  EXPECT_FALSE(Violated.load())
      << "a survivor's check transaction failed during dlclose";
}

} // namespace
