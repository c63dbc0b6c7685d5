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
/// cross-module control flow, concurrency between executing threads and
/// the dynamic linker, and the symbol index behind findFunction and dlsym.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <random>
#include <set>
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

/// Links \p Host (with PLT entries for its imports when \p HostPlt) and
/// registers \p Plugins in order (registry ids 0, 1, ...).
DynProgram buildWithPlugins(const std::string &Host,
                            const std::vector<std::string> &Plugins,
                            bool HostPlt = false) {
  DynProgram D;
  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.EmitPlt = HostPlt;
  CompileResult HostCR = compileModule(Host, HostCO);
  if (!HostCR.Ok) {
    D.Error = HostCR.Errors.empty() ? "host compile" : HostCR.Errors.front();
    return D;
  }
  D.M = std::make_unique<Machine>();
  D.L = std::make_unique<Linker>(*D.M);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(HostCR.Obj));
  if (!D.L->linkProgram(std::move(Objs), D.Error))
    return D;
  for (size_t I = 0; I != Plugins.size(); ++I) {
    CompileOptions CO;
    CO.ModuleName = "plugin" + std::to_string(I);
    CompileResult CR = compileModule(Plugins[I], CO);
    if (!CR.Ok) {
      D.Error = CR.Errors.empty() ? "plugin compile" : CR.Errors.front();
      return D;
    }
    D.L->registerLibrary(std::move(CR.Obj));
  }
  D.Ok = true;
  return D;
}

DynProgram buildDynamic(const std::string &Host, const std::string &Plugin) {
  return buildWithPlugins(Host, {Plugin}, /*HostPlt=*/true);
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

  // The new occupant of the reused index is patched like any new module:
  // every BaryIndex32 immediate reads its site's global index.
  ASSERT_EQ(H2, H);
  const MappedModule &Mod = D.M->modules()[static_cast<size_t>(H2)];
  uint32_t Base = D.L->policy().SiteIndexBase[static_cast<size_t>(H2)];
  ASSERT_GT(Base, 0u);
  unsigned Patched = 0;
  for (const visa::RelocEntry &R : Mod.Obj->Relocs) {
    if (R.Kind != visa::RelocKind::BaryIndex32)
      continue;
    const uint8_t *Imm = D.M->codePtr(Mod.CodeBase + R.Offset, 4);
    uint32_t Index = uint32_t(Imm[0]) | uint32_t(Imm[1]) << 8 |
                     uint32_t(Imm[2]) << 16 | uint32_t(Imm[3]) << 24;
    EXPECT_EQ(Index, Base + R.SiteId) << "site " << R.SiteId;
    ++Patched;
  }
  EXPECT_EQ(Patched, Mod.Obj->Aux.BranchSites.size());
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
  // The refused load was never installed: it is retired on the spot, so
  // its index is not a handle dlclose accepts.
  int64_t Refused = static_cast<int64_t>(D.M->modules().size()) - 1;
  EXPECT_TRUE(D.M->modules()[static_cast<size_t>(Refused)].Retired);
  EXPECT_FALSE(D.L->dlcloseOne(Refused));

  // After a quiescence point the same load installs, and the policy
  // still reads back from the tables.
  D.M->tables().resetVersionEpoch();
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  EXPECT_FALSE(D.L->updateHistory().back().Incremental);
  expectPolicyMatchesTables(D);
  // Symbol lookup finds the installed copy, not the refused one, and
  // closing it leaves no definition behind.
  const MappedModule &Mod = D.M->modules()[static_cast<size_t>(H)];
  uint64_t Fn = D.M->findFunction("plugin_fn");
  EXPECT_GE(Fn, Mod.CodeBase);
  EXPECT_LT(Fn, Mod.CodeBase + Mod.CodeSize);
  ASSERT_TRUE(D.L->dlcloseOne(H));
  EXPECT_EQ(D.M->findFunction("plugin_fn"), 0u);
}

TEST(Dynlink, FailedBatchMembersAreRetiredAndReclaimed) {
  // A batch with an unverifiable member fails closed, and all of its
  // members, the verifiable one too, are retired on the spot: no later
  // install may give Tary IDs to code the verifier never accepted, and
  // the reclaimer must get their ranges back. A dlopen whose relocation
  // fails retires its module the same way.
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  CompileOptions BadCO;
  BadCO.ModuleName = "unverifiable";
  BadCO.Instrument = false; // its indirect call goes unchecked
  CompileResult Bad = compileModule(
      "long bad_apply(long (*f)(long), long x) { return f(x); }", BadCO);
  ASSERT_TRUE(Bad.Ok);
  int64_t BadId = D.L->registerLibrary(std::move(Bad.Obj));
  CompileOptions UnresolvedCO;
  UnresolvedCO.ModuleName = "unresolved";
  CompileResult Unresolved = compileModule(
      "long nowhere(long x);\nlong (*keep)(long) = nowhere;\n", UnresolvedCO);
  ASSERT_TRUE(Unresolved.Ok);
  int64_t UnresolvedId = D.L->registerLibrary(std::move(Unresolved.Obj));

  size_t First = D.M->modules().size();
  for (const DlopenResult &R : D.L->dlopenBatch({0, BadId}))
    EXPECT_LT(R.Handle, 0);
  EXPECT_LT(D.L->dlopen(UnresolvedId), 0);
  EXPECT_NE(D.L->lastError().find("unresolved"), std::string::npos)
      << D.L->lastError();
  ASSERT_EQ(D.M->modules().size(), First + 3);
  std::vector<std::pair<uint64_t, uint64_t>> Failed;
  for (size_t I = First; I != First + 3; ++I) {
    const MappedModule &Mod = D.M->modules()[I];
    EXPECT_TRUE(Mod.Retired) << "member " << I;
    Failed.push_back({Mod.CodeBase, Mod.CodeBase + Mod.CodeSize});
  }

  ASSERT_GE(D.L->dlopen(0), 0) << D.L->lastError();
  for (const auto &Entry : D.L->policy().TargetECN)
    for (const auto &[Begin, End] : Failed)
      EXPECT_FALSE(Entry.first >= Begin && Entry.first < End)
          << "target " << Entry.first << " lies in a failed member";
  expectPolicyMatchesTables(D);

  D.M->drainReclaim();
  for (size_t I = First; I != First + 3; ++I)
    EXPECT_TRUE(D.M->modules()[I].Reclaimed) << "member " << I;
}

TEST(Dynlink, RelocationPastItsModuleIsRefused) {
  // A relocation patches 8 bytes (4 for CallSym and BaryIndex32). One
  // that starts inside the module but ends past it, or whose data offset
  // wraps, must be refused by readObject and by dlopen: patched anyway,
  // its tail would land on whatever follows the module, which after a
  // free-list reuse can be a sealed, verified neighbour.
  DynProgram D = buildDynamic(HostSource, PluginSource);
  ASSERT_TRUE(D.Ok) << D.Error;
  CompileOptions CO;
  CO.ModuleName = "crafted";
  CompileResult CR = compileModule(PluginSource, CO);
  ASSERT_TRUE(CR.Ok);
  const MCFIObject &Good = CR.Obj;
  ASSERT_GE(Good.DataSize, 8u);
  MCFIObject RoundTrip;
  ASSERT_TRUE(readObject(writeObject(Good), RoundTrip));

  const uint64_t Code = Good.Code.size();
  struct Crafted {
    visa::RelocKind Kind;
    uint64_t Offset;
  };
  const Crafted Cases[] = {
      {visa::RelocKind::CodeAddr64, Code - 1},
      {visa::RelocKind::JumpTable64, Code - 4},
      {visa::RelocKind::FuncAddr64, Code - 7},
      {visa::RelocKind::CallSym, Code - 3},
      {visa::RelocKind::BaryIndex32, Code - 1},
      {visa::RelocKind::DataFuncAddr64, Good.DataSize - 4},
      {visa::RelocKind::DataGlobalAddr64, ~0ull - 3}, // wraps past 2^64
  };
  for (const Crafted &C : Cases) {
    std::string What = "kind " + std::to_string(static_cast<int>(C.Kind)) +
                       " at " + std::to_string(C.Offset);
    MCFIObject Bad = Good;
    visa::RelocEntry R;
    R.Kind = C.Kind;
    R.Offset = C.Offset;
    R.Symbol = "plugin_fn";
    Bad.Relocs.push_back(R);
    MCFIObject Read;
    EXPECT_FALSE(readObject(writeObject(Bad), Read)) << What;
    int64_t Id = D.L->registerLibrary(std::move(Bad));
    EXPECT_LT(D.L->dlopen(Id), 0) << What;
    EXPECT_NE(D.L->lastError().find("outside the module"), std::string::npos)
        << What << ": " << D.L->lastError();
  }

  // The host survives: the real plugin loads, its policy is installed,
  // and main runs through it.
  ASSERT_GE(D.L->dlopen(0), 0) << D.L->lastError();
  expectPolicyMatchesTables(D);
  Thread T;
  ASSERT_TRUE(D.M->makeThread("_start", T));
  RunResult RR = D.M->run(T, 1u << 22);
  EXPECT_EQ(RR.Reason, StopReason::Exited) << RR.Message;
}

TEST(Dynlink, DataInitializerPastItsGlobalsIsRefused) {
  // Module A declares 8 bytes of globals and initializes the 8 after
  // them. Globals are packed, so those bytes are the next module's: a
  // mapped A would fill B's zero-initialized global with 0xAA. Neither
  // linkProgram nor dlopen may map A, and nothing it holds is written.
  MCFIObject A;
  A.Name = "overreach";
  A.DataSize = 8;
  A.DataInit.push_back({8, std::vector<uint8_t>(8, 0xAA)});
  MCFIObject ReadBack;
  EXPECT_FALSE(readObject(writeObject(A), ReadBack));
  {
    // mapModule names the cause of a refusal: the linker's message comes
    // from it, not from a second check.
    MachineOptions Small;
    Small.CodeCapacity = 1 << 16;
    Small.DataCapacity = 4 << 20;
    Small.StackSize = 1 << 16;
    Machine M(Small);
    EXPECT_EQ(M.mapModule(std::make_shared<const MCFIObject>(A)),
              Machine::MapBadDataInit);
    MCFIObject Big;
    Big.Name = "big";
    Big.Code.assign((1 << 16) + 8, 0);
    EXPECT_EQ(M.mapModule(std::make_shared<const MCFIObject>(std::move(Big))),
              Machine::MapNoRoom);
    EXPECT_TRUE(M.modules().empty());
  }

  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  CompileResult Host = compileModule("int main() { return 0; }\n", HostCO);
  ASSERT_TRUE(Host.Ok);
  {
    Machine M;
    Linker L(M);
    std::vector<MCFIObject> Objs;
    Objs.push_back(Host.Obj);
    Objs.push_back(A);
    std::string Error;
    EXPECT_FALSE(L.linkProgram(std::move(Objs), Error));
    EXPECT_NE(Error.find("outside its globals"), std::string::npos) << Error;
  }

  DynProgram D = buildWithPlugins("int main() { return 0; }\n",
                                  {"long b_zero;\n"
                                   "long b_get(long x) { return b_zero + x; }\n"
                                   "long (*b_ref)(long) = b_get;\n"});
  ASSERT_TRUE(D.Ok) << D.Error;
  int64_t AId = D.L->registerLibrary(A);
  EXPECT_LT(D.L->dlopen(AId), 0);
  EXPECT_NE(D.L->lastError().find("outside its globals"), std::string::npos)
      << D.L->lastError();
  int64_t B = D.L->dlopen(0);
  ASSERT_GE(B, 0) << D.L->lastError();
  const MappedModule &Mod = D.M->modules()[static_cast<size_t>(B)];
  uint64_t Zero = ~0ull;
  ASSERT_TRUE(D.M->load<8>(Mod.DataBase + Mod.Obj->DataSymbols.at("b_zero"),
                           Zero));
  EXPECT_EQ(Zero, 0u);
}

/// The GOT slots of every live module of \p M: its imports that have one.
uint32_t liveGotSlots(const Machine &M) {
  uint32_t Slots = 0;
  for (const MappedModule &Mod : M.modules())
    if (!Mod.Retired)
      for (const std::string &Imp : Mod.Obj->Imports)
        Slots += Mod.Obj->DataSymbols.count("got$" + Imp) != 0;
  return Slots;
}

TEST(Dynlink, GotPassWalksOnlyTheLiveModules) {
  // jit-concurrent's shape: small ops, some importing from the host
  // through their GOT, opened one at a time; once 16 are live each open
  // first closes the oldest. Nothing is drained, so no tail is trimmed
  // and every closed op stays a tombstone at the front of the module
  // list. Every install and retire transaction's GOT pass must walk the
  // live modules and write their GOT slots, and nothing else.
  constexpr int Ops = 1024, MaxLive = 16, Shapes = 24;
  std::vector<std::string> Sources;
  for (int K = 0; K != Shapes; ++K) {
    std::string F = "j" + std::to_string(K);
    std::string Body = K % 3 ? "host_add(x, " + std::to_string(K) + ")"
                             : "x * " + std::to_string(K + 2);
    Sources.push_back((K % 3 ? "long host_add(long x, long y);\n" : "") +
                      std::string("long ") + F + "(long x) { return " + Body +
                      "; }\nlong (*" + F + "_ref)(long) = " + F + ";\n");
  }
  DynProgram D = buildWithPlugins(
      "long host_add(long x, long y) { return x + y; }\n"
      "long (*host_keep)(long, long) = host_add;\n"
      "int main() { return 0; }\n",
      {});
  ASSERT_TRUE(D.Ok) << D.Error;
  for (int K = 0; K != Shapes; ++K) {
    CompileOptions CO;
    CO.ModuleName = "op" + std::to_string(K);
    CO.EmitPlt = true;
    CompileResult CR = compileModule(Sources[K], CO);
    ASSERT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
    D.L->registerLibrary(std::move(CR.Obj));
  }
  Machine &M = *D.M;
  const size_t Static = M.modules().size();

  std::mt19937 Rng(26);
  std::deque<int64_t> Live;
  uint64_t SlotsSeen = 0;
  auto expectGotPinned = [&](size_t From, const std::string &What) {
    const auto &History = D.L->updateHistory();
    ASSERT_LT(From, History.size()) << What << ": no transaction ran";
    uint32_t Modules = static_cast<uint32_t>(Static + Live.size());
    uint32_t Slots = liveGotSlots(M);
    SlotsSeen += Slots;
    for (size_t I = From; I != History.size(); ++I) {
      EXPECT_EQ(History[I].GotModules, Modules) << What;
      EXPECT_EQ(History[I].GotSlots, Slots) << What;
    }
  };
  for (int Op = 0; Op != Ops; ++Op) {
    std::string What = "op " + std::to_string(Op);
    if (Live.size() == MaxLive) {
      size_t From = D.L->updateHistory().size();
      ASSERT_TRUE(D.L->dlcloseOne(Live.front())) << What;
      Live.pop_front();
      expectGotPinned(From, What + " dlclose");
    }
    size_t From = D.L->updateHistory().size();
    int64_t H = D.L->dlopen(static_cast<int64_t>(Rng() % Shapes));
    ASSERT_GE(H, 0) << What << ": " << D.L->lastError();
    Live.push_back(H);
    expectGotPinned(From, What + " dlopen");
  }
  EXPECT_GT(M.modules().size(), 900u);
  EXPECT_EQ(M.modules().size(), Static + Ops);
  EXPECT_GT(SlotsSeen, 0u);
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

/// Expects the policy's targets to ascend strictly by address.
void expectTargetsSorted(const CFGPolicy &P) {
  auto Unsorted = std::adjacent_find(
      P.TargetECN.begin(), P.TargetECN.end(),
      [](const auto &A, const auto &B) { return A.first >= B.first; });
  EXPECT_TRUE(Unsorted == P.TargetECN.end())
      << "target " << Unsorted->first << " out of order";
}

/// The ECNs a dlclose of \p Handles must condemn, by brute force over the
/// installed policy: every ECN (the reserved empty class aside) all of
/// whose target and site occurrences lie in the closing modules.
std::set<uint32_t> expectedCondemned(const DynProgram &D,
                                     const std::vector<int64_t> &Handles) {
  const CFGPolicy &P = D.L->policy();
  auto DyingAddr = [&](uint64_t Addr) {
    for (int64_t H : Handles) {
      const MappedModule &Mod = D.M->modules()[static_cast<size_t>(H)];
      if (Addr >= Mod.CodeBase && Addr < Mod.CodeBase + Mod.CodeSize)
        return true;
    }
    return false;
  };
  auto DyingSite = [&](uint32_t Site) {
    for (int64_t H : Handles) {
      const MappedModule &Mod = D.M->modules()[static_cast<size_t>(H)];
      uint32_t Base = P.SiteIndexBase[static_cast<size_t>(H)];
      if (Site >= Base && Site < Base + Mod.Obj->Aux.BranchSites.size())
        return true;
    }
    return false;
  };
  std::map<uint32_t, std::pair<size_t, size_t>> Count; // {total, dying}
  for (const auto &[Addr, ECN] : P.TargetECN) {
    ++Count[ECN].first;
    Count[ECN].second += DyingAddr(Addr);
  }
  for (uint32_t S = 0; S != P.BranchECN.size(); ++S) {
    if (P.BranchECN[S] < 0 || P.BranchECN[S] == EmptyClassECN)
      continue;
    auto &C = Count[static_cast<uint32_t>(P.BranchECN[S])];
    ++C.first;
    C.second += DyingSite(S);
  }
  std::set<uint32_t> Out;
  for (const auto &[ECN, C] : Count)
    if (C.second != 0 && C.second == C.first)
      Out.insert(ECN);
  return Out;
}

TEST(Dynlink, SeededChurnCondemnsExactlyTheExclusiveClasses) {
  // Plugins that own a class no other module uses (a signature of their
  // own) mix with plugins whose class the host shares. Before every
  // dlclose the condemned set is computed by brute force from policy();
  // after it, the reclaimer must hold exactly that set.
  const char *Host = R"(
    long hcb(long x) { return x + 1; }
    long (*hp)(long) = hcb;
    int main() { return (int)hp(1); }
  )";
  const char *Sources[] = {
      // Shares long(long) with the host.
      R"(
        long sa(long x) { return x * 2; }
        long (*sa_p)(long) = sa;
        long sa_call(long (*f)(long), long v) { return f(v) + 1; }
      )",
      // Exclusive: the only four-argument function pointer type.
      R"(
        long xb(long a, long b, long c, long d) { return a + b + c + d; }
        long (*xb_p)(long, long, long, long) = xb;
        long xb_call(long (*f)(long, long, long, long)) {
          return f(1, 2, 3, 4);
        }
      )",
      // Exclusive: the only three-argument one; shares long(long) too.
      R"(
        long xc(long a, long b, long c) { return a * b * c; }
        long (*xc_p)(long, long, long) = xc;
        long xc_one(long x) { return x - 1; }
        long (*xc_q)(long) = xc_one;
        long xc_call(long (*f)(long, long, long)) { return f(2, 3, 4); }
      )"};
  DynProgram D =
      buildWithPlugins(Host, {std::begin(Sources), std::end(Sources)});
  ASSERT_TRUE(D.Ok) << D.Error;
  expectTargetsSorted(D.L->policy());

  std::mt19937 Rng(20140609);
  std::vector<int64_t> Live;
  size_t Condemning = 0, Sparing = 0;
  for (int Step = 0; Step != 40; ++Step) {
    if (Live.empty() || (Live.size() < 5 && Rng() % 3 != 0)) {
      int64_t H = D.L->dlopen(static_cast<int64_t>(Rng() % 3));
      ASSERT_GE(H, 0) << D.L->lastError();
      Live.push_back(H);
    } else {
      // Close one module, or two as one batch.
      std::vector<int64_t> Closing;
      for (size_t N = Live.size() >= 2 && Rng() % 2 ? 2 : 1; N != 0; --N) {
        size_t Pick = Rng() % Live.size();
        Closing.push_back(Live[Pick]);
        Live.erase(Live.begin() + static_cast<ptrdiff_t>(Pick));
      }
      std::set<uint32_t> Expected = expectedCondemned(D, Closing);
      uint32_t ECNs = static_cast<uint32_t>(D.L->policy().NumEQCs);
      for (bool Ok : D.L->dlcloseBatch(Closing))
        ASSERT_TRUE(Ok) << D.L->lastError();
      for (uint32_t E = 0; E != ECNs; ++E)
        EXPECT_EQ(D.M->reclaimer().anyCondemned({E}), Expected.count(E) != 0)
            << "step " << Step << ", ECN " << E;
      (Expected.empty() ? Sparing : Condemning) += 1;
      // No guest runs, so the drain matures everything: the next close
      // starts from an empty condemned set.
      D.M->drainReclaim();
      ASSERT_EQ(D.M->reclaimStats().CondemnedECNs, 0u);
    }
    expectTargetsSorted(D.L->policy());
    expectPolicyMatchesTables(D);
  }
  EXPECT_GT(Condemning, 0u);
  EXPECT_GT(Sparing, 0u);
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

//===----------------------------------------------------------------------===//
// The symbol index
//===----------------------------------------------------------------------===//

/// The reference for Machine::findFunction: the first unretired module,
/// in index order, that defines \p Name.
uint64_t walkFind(const Machine &M, const std::string &Name) {
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired)
      continue;
    if (const FunctionInfo *F = Mod.Obj->findFunction(Name))
      return Mod.CodeBase + F->CodeOffset;
  }
  return 0;
}

/// What the index must hold: one entry per distinct function name of
/// every unretired module.
size_t liveFunctionNames(const Machine &M) {
  size_t N = 0;
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired)
      continue;
    std::set<std::string> Names;
    for (const FunctionInfo &F : Mod.Obj->Aux.Functions)
      Names.insert(F.Name);
    N += Names.size();
  }
  return N;
}

void expectIndexMatchesWalk(const Machine &M,
                            const std::set<std::string> &Names,
                            const std::string &What) {
  for (const std::string &Name : Names)
    ASSERT_EQ(M.findFunction(Name), walkFind(M, Name)) << What << ": " << Name;
  ASSERT_EQ(M.symbolIndexEntries(), liveFunctionNames(M)) << What;
}

/// The entry address of \p Name in module \p Handle, from its own object.
uint64_t definitionIn(const Machine &M, int64_t Handle,
                      const std::string &Name) {
  const MappedModule &Mod = M.modules()[static_cast<size_t>(Handle)];
  const FunctionInfo *F = Mod.Obj->findFunction(Name);
  return F ? Mod.CodeBase + F->CodeOffset : 0;
}

TEST(SymbolIndex, FirstLiveDefinitionShadowsLaterOnes) {
  // The host and both plugins define shared(); each plugin also defines
  // own_a/own_b. A lookup returns the lowest-index live definer; dlsym
  // by handle returns the handle's own definition.
  DynProgram D = buildWithPlugins(
      "long shared(long x) { return x; }\nint main() { return 0; }\n",
      {"long shared(long x) { return x + 1; }\n"
       "long own_a(long x) { return x + 2; }\n",
       "long shared(long x) { return x + 3; }\n"
       "long own_b(long x) { return shared(x); }\n"});
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  uint64_t HostShared = M.findFunction("shared");
  ASSERT_NE(HostShared, 0u);
  int64_t A = D.L->dlopen(0);
  int64_t B = D.L->dlopen(1);
  ASSERT_GE(A, 0) << D.L->lastError();
  ASSERT_GE(B, 0) << D.L->lastError();
  std::set<std::string> Names = {"shared", "own_a", "own_b", "main"};
  expectIndexMatchesWalk(M, Names, "both open");
  EXPECT_EQ(M.findFunction("shared"), HostShared);
  EXPECT_EQ(M.dlsymLookup(-1, "shared"), HostShared);
  EXPECT_EQ(M.dlsymLookup(A, "shared"), definitionIn(M, A, "shared"));
  EXPECT_EQ(M.dlsymLookup(B, "shared"), definitionIn(M, B, "shared"));
  EXPECT_NE(M.dlsymLookup(A, "shared"), M.dlsymLookup(B, "shared"));
  EXPECT_EQ(M.dlsymLookup(A, "own_b"), 0u) << "own_b is B's, not A's";
  EXPECT_EQ(M.dlsymLookup(B, "own_b"), M.findFunction("own_b"));

  // makeThread starts at the same definition findFunction names.
  Thread T;
  ASSERT_TRUE(M.makeThread("own_a", T));
  EXPECT_EQ(T.PC, definitionIn(M, A, "own_a"));
  ASSERT_TRUE(M.makeThread("shared", T));
  EXPECT_EQ(T.PC, HostShared);
}

TEST(SymbolIndex, DlcloseUncoversTheNextLiveDefiner) {
  DynProgram D = buildWithPlugins(
      "int main() { return 0; }\n",
      {"long twin(long x) { return x + 1; }\n",
       "long twin(long x) { return x + 2; }\n"});
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  int64_t A = D.L->dlopen(0);
  int64_t B = D.L->dlopen(1);
  ASSERT_GE(A, 0) << D.L->lastError();
  ASSERT_GE(B, 0) << D.L->lastError();
  uint64_t InB = definitionIn(M, B, "twin");
  EXPECT_EQ(M.findFunction("twin"), definitionIn(M, A, "twin"));

  ASSERT_TRUE(D.L->dlcloseOne(A));
  EXPECT_EQ(M.findFunction("twin"), InB);
  EXPECT_EQ(M.dlsymLookup(A, "twin"), 0u) << "a stale handle resolves nothing";
  EXPECT_EQ(M.dlsymLookup(B, "twin"), InB);
  expectIndexMatchesWalk(M, {"twin"}, "A closed");

  ASSERT_TRUE(D.L->dlcloseOne(B));
  EXPECT_EQ(M.findFunction("twin"), 0u);
  Thread T;
  EXPECT_FALSE(M.makeThread("twin", T));
  expectIndexMatchesWalk(M, {"twin"}, "both closed");
}

TEST(SymbolIndex, FailedBatchMembersLeaveTheIndex) {
  // The verifiable member of a failed batch is discarded with the
  // unverifiable one: neither's names resolve afterwards.
  DynProgram D = buildWithPlugins(
      "int main() { return 0; }\n",
      {"long good_member(long x) { return x + 1; }\n"});
  ASSERT_TRUE(D.Ok) << D.Error;
  CompileOptions BadCO;
  BadCO.ModuleName = "unverifiable";
  BadCO.Instrument = false; // its indirect call goes unchecked
  CompileResult Bad = compileModule(
      "long bad_apply(long (*f)(long), long x) { return f(x); }", BadCO);
  ASSERT_TRUE(Bad.Ok);
  int64_t BadId = D.L->registerLibrary(std::move(Bad.Obj));
  size_t Entries = D.M->symbolIndexEntries();

  for (const DlopenResult &R : D.L->dlopenBatch({0, BadId}))
    EXPECT_LT(R.Handle, 0);
  EXPECT_EQ(D.M->findFunction("good_member"), 0u);
  EXPECT_EQ(D.M->findFunction("bad_apply"), 0u);
  EXPECT_EQ(D.M->symbolIndexEntries(), Entries);
  expectIndexMatchesWalk(*D.M, {"good_member", "bad_apply"}, "batch failed");

  // The good member alone still loads, under its own name.
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  EXPECT_EQ(D.M->findFunction("good_member"), definitionIn(*D.M, H,
                                                           "good_member"));
}

TEST(SymbolIndex, DlopenIntoATrimmedSlotIsIndexedThere) {
  // A drain's tail-trim pops the closed module's slot; the next dlopen
  // maps into that index, and the index must name the new occupant.
  DynProgram D = buildWithPlugins(
      "int main() { return 0; }\n",
      {"long first_tenant(long x) { return x + 1; }\n",
       "long second_tenant(long x) { return x + 2; }\n"});
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  size_t HostModules = M.modules().size();
  size_t HostEntries = M.symbolIndexEntries();
  int64_t H = D.L->dlopen(0);
  ASSERT_GE(H, 0) << D.L->lastError();
  ASSERT_TRUE(D.L->dlcloseOne(H));
  M.drainReclaim();
  ASSERT_EQ(M.modules().size(), HostModules) << "the slot was popped";
  EXPECT_EQ(M.symbolIndexEntries(), HostEntries);

  int64_t Reused = D.L->dlopen(1);
  ASSERT_EQ(Reused, H) << "the popped index is reused";
  EXPECT_EQ(M.findFunction("first_tenant"), 0u);
  EXPECT_EQ(M.findFunction("second_tenant"),
            definitionIn(M, Reused, "second_tenant"));
  EXPECT_EQ(M.dlsymLookup(Reused, "second_tenant"),
            M.findFunction("second_tenant"));
  EXPECT_EQ(M.dlsymLookup(Reused, "first_tenant"), 0u);
  expectIndexMatchesWalk(M, {"first_tenant", "second_tenant"}, "reused");
}

TEST(SymbolIndex, RepeatedNameInOneModuleKeepsItsFirstDefinition) {
  // Object bytes are untrusted: an aux table may name a function twice.
  // The first definition wins, as in MCFIObject::findFunction, and the
  // retire leaves no entry behind to resolve into the dead module.
  MCFIObject Obj;
  Obj.Name = "twice";
  Obj.Code.assign(16, 0);
  for (uint64_t Off : {0u, 8u}) {
    FunctionInfo F;
    F.Name = "dup";
    F.CodeOffset = Off;
    Obj.Aux.Functions.push_back(F);
  }
  Machine M;
  int Idx = M.mapModule(std::make_shared<const MCFIObject>(std::move(Obj)));
  ASSERT_GE(Idx, 0);
  EXPECT_EQ(M.findFunction("dup"), M.modules()[Idx].CodeBase);
  EXPECT_EQ(M.symbolIndexEntries(), 1u);
  M.markModuleRetired(Idx, 0);
  EXPECT_EQ(M.findFunction("dup"), 0u);
  EXPECT_EQ(M.symbolIndexEntries(), 0u);
}

TEST(SymbolIndex, SeededChurnMatchesALinearWalk) {
  // 64 plugins, each with a name of its own and a name they all share,
  // plus plugin 0 registered a second time so whole modules shadow each
  // other, opened and closed in a seeded order with drains in between.
  // After every operation each registered name resolves as the linear
  // walk does, and the index holds exactly the live modules' names.
  constexpr int Plugins = 64;
  std::vector<std::string> Sources;
  std::set<std::string> Names = {"main", "churn_shared"};
  for (int I = 0; I != Plugins; ++I) {
    std::string Own = "churn_own" + std::to_string(I);
    Names.insert(Own);
    Sources.push_back("long " + Own + "(long x) { return x + " +
                      std::to_string(I) + "; }\n" +
                      "long churn_shared(long x) { return " + Own +
                      "(x) * 2; }\n");
  }
  Sources.push_back(Sources.front()); // registry id 64: plugin 0 again
  DynProgram D = buildWithPlugins("int main() { return 0; }\n", Sources);
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  size_t HostEntries = M.symbolIndexEntries();
  ASSERT_EQ(HostEntries, liveFunctionNames(M));

  std::mt19937 Rng(25);
  std::vector<int64_t> Unopened;
  for (int64_t Id = 0; Id != Plugins + 1; ++Id)
    Unopened.push_back(Id);
  std::vector<int64_t> Live;
  for (int Op = 0; !Unopened.empty() || !Live.empty(); ++Op) {
    std::string What = "op " + std::to_string(Op);
    if (!Unopened.empty() && (Live.empty() || Rng() % 3 != 0)) {
      size_t Pick = Rng() % Unopened.size();
      int64_t H = D.L->dlopen(Unopened[Pick]);
      ASSERT_GE(H, 0) << What << ": " << D.L->lastError();
      Unopened.erase(Unopened.begin() + static_cast<ptrdiff_t>(Pick));
      Live.push_back(H);
    } else {
      size_t Pick = Rng() % Live.size();
      ASSERT_TRUE(D.L->dlcloseOne(Live[Pick])) << What;
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Pick));
      if (Rng() % 4 == 0)
        M.drainReclaim();
    }
    expectIndexMatchesWalk(M, Names, What);
    for (int64_t H : Live)
      ASSERT_EQ(M.dlsymLookup(H, "churn_shared"),
                definitionIn(M, H, "churn_shared"))
          << What;
  }
  M.drainReclaim();
  EXPECT_EQ(M.symbolIndexEntries(), HostEntries);
  expectIndexMatchesWalk(M, Names, "drained");
}

} // namespace
