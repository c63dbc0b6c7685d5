//===- tests/LinkerTest.cpp - Static linker tests --------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for relocation resolution, symbol binding across modules,
/// bootstrap synthesis, Bary-index patching, link-failure paths, and the
/// install-eligibility diff (computeInstallDelta).
///
//===----------------------------------------------------------------------===//

#include "tables/ID.h"
#include "toolchain/Toolchain.h"
#include "visa/ISA.h"

#include <gtest/gtest.h>

using namespace mcfi;

namespace {

CompileResult mustCompile(const char *Src, const char *Name,
                          bool EmitPlt = false) {
  CompileOptions CO;
  CO.ModuleName = Name;
  CO.EmitPlt = EmitPlt;
  CompileResult CR = compileModule(Src, CO);
  EXPECT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
  return CR;
}

TEST(Linker, UnresolvedDirectCallFailsLink) {
  CompileResult Main = mustCompile(R"(
    long missing(long x);
    int main() { return (int)missing(1); }
  )",
                                   "main");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  EXPECT_FALSE(L.linkProgram(std::move(Objs), Err));
  EXPECT_NE(Err.find("missing"), std::string::npos);
}

TEST(Linker, UnresolvedAddressTakenImportFailsLink) {
  CompileResult Main = mustCompile(R"(
    long missing(long x);
    long (*p)(long) = missing;
    int main() { return 0; }
  )",
                                   "main");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  EXPECT_FALSE(L.linkProgram(std::move(Objs), Err));
}

TEST(Linker, MissingMainStillLinksButCannotRun) {
  CompileResult Lib = mustCompile("long f(long x) { return x; }", "lib");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Lib.Obj));
  // The bootstrap's "call main" cannot resolve.
  EXPECT_FALSE(L.linkProgram(std::move(Objs), Err));
  EXPECT_NE(Err.find("main"), std::string::npos);
}

TEST(Linker, CrossModuleDirectCallsResolve) {
  CompileResult A = mustCompile(R"(
    long from_b(long x);
    long from_a(long x) { return from_b(x) + 1; }
    int main() { print_int(from_a(10)); return 0; }
  )",
                                "a");
  CompileResult B = mustCompile("long from_b(long x) { return x * 2; }",
                                "b");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(A.Obj));
  Objs.push_back(std::move(B.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(M.takeOutput(), "21\n");
}

TEST(Linker, DataRelocationsAcrossGlobals) {
  CompileResult Main = mustCompile(R"(
    long value = 7;
    char *msg = "hi";
    long f(long x) { return x + value; }
    long (*fp)(long) = f;
    int main() {
      print_str(msg);
      print_str("\n");
      print_int(fp(3));
      return 0;
    }
  )",
                                   "main");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(M.takeOutput(), "hi\n10\n");
}

TEST(Linker, BaryIndexesPatchedConsistently) {
  // After linking, every BaryRead site must carry a Bary index whose
  // installed branch ID matches the policy's ECN for that site.
  CompileResult Main = mustCompile(R"(
    long a(long x) { return x; }
    long (*p)(long) = a;
    int main() { return (int)p(1); }
  )",
                                   "main");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  const CFGPolicy &Policy = L.policy();

  size_t Checked = 0;
  for (size_t Idx = 0; Idx != M.modules().size(); ++Idx) {
    const MappedModule &Mod = M.modules()[Idx];
    uint32_t Base = Policy.SiteIndexBase[Idx];
    for (const visa::RelocEntry &R : Mod.Obj->Relocs) {
      if (R.Kind != visa::RelocKind::BaryIndex32)
        continue;
      // Decode the patched BaryRead and compare against the policy.
      const uint8_t *Code = M.codePtr(Mod.CodeBase + R.Offset - 2, 8);
      ASSERT_NE(Code, nullptr);
      visa::Instr I;
      ASSERT_TRUE(visa::decode(Code, 8, 0, I));
      ASSERT_EQ(I.Op, visa::Opcode::BaryRead);
      uint32_t GlobalIndex = static_cast<uint32_t>(I.Imm);
      EXPECT_EQ(GlobalIndex, Base + R.SiteId);
      int64_t ECN = Policy.getBaryECN(GlobalIndex);
      uint32_t ID = M.tables().baryRead(GlobalIndex);
      ASSERT_GE(ECN, 0);
      EXPECT_TRUE(isValidID(ID));
      EXPECT_EQ(idECN(ID), static_cast<uint32_t>(ECN));
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(Linker, SiteIndexBasesAreStableAcrossDlopen) {
  CompileResult Main = mustCompile(R"(
    long f(long x) { return x; }
    long (*p)(long) = f;
    int main() { return (int)p(1); }
  )",
                                   "main");
  CompileResult Lib =
      mustCompile("long extra(long x) { return x + 1; }", "lib");

  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  std::vector<uint32_t> Before = L.policy().SiteIndexBase;

  L.registerLibrary(std::move(Lib.Obj));
  ASSERT_GE(L.dlopen(0), 0) << L.lastError();
  const std::vector<uint32_t> &After = L.policy().SiteIndexBase;

  // Existing modules keep their (already-sealed) index bases; the new
  // module appends.
  ASSERT_EQ(After.size(), Before.size() + 1);
  for (size_t I = 0; I != Before.size(); ++I)
    EXPECT_EQ(After[I], Before[I]);
}

TEST(Linker, BaselineLinkSkipsPolicy) {
  CompileOptions CO;
  CO.ModuleName = "main";
  CO.Instrument = false;
  CompileResult Main = compileModule("int main() { return 5; }", CO);
  ASSERT_TRUE(Main.Ok);

  Machine M;
  LinkOptions LO;
  LO.Verify = false;
  LO.InstallPolicy = false;
  LO.InstrumentBootstrap = false;
  Linker L(M, LO);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  EXPECT_EQ(M.tables().updateCount(), 0u); // no policy installed
  RunResult R = runProgram(M);
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Linker, DuplicateModuleNamesStillLink) {
  // Two modules may carry the same module name; symbols must still bind
  // (first definition wins, as with common linkers).
  CompileResult A = mustCompile(R"(
    long helper(long x);
    int main() { print_int(helper(4)); return 0; }
  )",
                                "dup");
  CompileResult B = mustCompile("long helper(long x) { return x + 2; }",
                                "dup");
  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(A.Obj));
  Objs.push_back(std::move(B.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  RunResult R = runProgram(M);
  EXPECT_EQ(M.takeOutput(), "6\n");
  EXPECT_EQ(R.Reason, StopReason::Exited);
}

//===----------------------------------------------------------------------===//
// Install eligibility (computeInstallDelta)
//===----------------------------------------------------------------------===//

/// A policy with targets at code-region offsets \p Tary and the given
/// per-site ECNs.
CFGPolicy makePolicy(std::initializer_list<std::pair<uint64_t, uint32_t>> Tary,
                     std::initializer_list<int64_t> Bary) {
  CFGPolicy P;
  std::vector<TargetECNTable::value_type> Targets;
  for (auto &[Off, ECN] : Tary)
    Targets.push_back({Machine::CodeBase + Off, ECN});
  P.TargetECN = TargetECNTable(std::move(Targets));
  P.BranchECN.assign(Bary);
  return P;
}

TEST(InstallDelta, FirstInstallIsFullRebuild) {
  InstallDelta D =
      computeInstallDelta(CFGPolicy(), makePolicy({{0, 1}}, {1}), 0, 0, 32);
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "first install");
  EXPECT_EQ(D.TaryLimitBytes, 32u);
  EXPECT_EQ(D.BaryCount, 1u);
}

TEST(InstallDelta, PureExtensionIsIncremental) {
  CFGPolicy Installed = makePolicy({{0, 1}, {8, 2}}, {1, 2});
  InstallDelta D = computeInstallDelta(
      Installed, makePolicy({{0, 1}, {8, 2}, {40, 1}, {48, 3}}, {1, 2, 3}),
      32, 2, 64);
  ASSERT_FALSE(D.FullRebuild) << D.Reason;
  EXPECT_EQ(D.TaryLimitBytes, 64u);
  EXPECT_EQ(D.BaryCount, 3u);
  EXPECT_EQ(D.TaryDirtyOffsets, (std::vector<uint64_t>{40, 48}));
  EXPECT_EQ(D.BaryDirty, (std::vector<uint32_t>{2}));
  // Nearby offsets coalesce into one range.
  ASSERT_EQ(D.TaryDirty.size(), 1u);
  EXPECT_EQ(D.TaryDirty[0].BeginBytes, 40u);
  EXPECT_EQ(D.TaryDirty[0].EndBytes, 52u);
}

TEST(InstallDelta, DistantOffsetsSplitRanges) {
  InstallDelta D = computeInstallDelta(
      makePolicy({{0, 1}}, {1}),
      makePolicy({{0, 1}, {8, 2}, {4000, 2}}, {1}), 8, 1, 4096);
  ASSERT_FALSE(D.FullRebuild) << D.Reason;
  ASSERT_EQ(D.TaryDirty.size(), 2u);
  EXPECT_EQ(D.TaryDirty[0].BeginBytes, 8u);
  EXPECT_EQ(D.TaryDirty[1].BeginBytes, 4000u);
}

TEST(InstallDelta, ExtentsStayAtHighWaterMarks) {
  // A tail-trimmed code region and site table (smaller CodeBytes, shorter
  // BranchECN) install at the installed extents; the trimmed site held
  // no ID, and a site with no ID that gains one is an extension.
  CFGPolicy Installed = makePolicy({{0, 1}}, {1, -1, -1});
  InstallDelta D = computeInstallDelta(Installed, makePolicy({{0, 1}}, {1}),
                                       64, 3, 32);
  ASSERT_FALSE(D.FullRebuild) << D.Reason;
  EXPECT_EQ(D.TaryLimitBytes, 64u);
  EXPECT_EQ(D.BaryCount, 3u);
  EXPECT_TRUE(D.TaryDirty.empty());
  EXPECT_TRUE(D.BaryDirty.empty());

  D = computeInstallDelta(Installed, makePolicy({{0, 1}}, {1, 5}), 64, 3, 32);
  ASSERT_FALSE(D.FullRebuild) << D.Reason;
  EXPECT_EQ(D.BaryDirty, (std::vector<uint32_t>{1}));
}

TEST(InstallDelta, ChangedEntriesForceFullRebuild) {
  CFGPolicy Installed = makePolicy({{0, 1}, {8, 2}}, {1, 2});
  auto Diff = [&](const CFGPolicy &Next) {
    return computeInstallDelta(Installed, Next, 64, 2, 64);
  };
  InstallDelta D = Diff(makePolicy({{0, 1}, {8, 7}}, {1, 2}));
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed target changed class");
  D = Diff(makePolicy({{0, 1}}, {1, 2}));
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed target removed");
  // Existing branch site changed (e.g. a resolved import): value change
  // at a live index needs the version bump.
  D = Diff(makePolicy({{0, 1}, {8, 2}}, {1, 7}));
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed branch site changed");
  // A live site past Next's BranchECN reads as -1: also a change.
  D = Diff(makePolicy({{0, 1}, {8, 2}}, {1}));
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed branch site changed");
}

TEST(InstallDelta, NewTargetsBelowInstalledOnesComeOutSorted) {
  // New targets below, between and above the installed ones: the merge
  // walk must emit them in address order and coalesce neighbours.
  CFGPolicy Installed = makePolicy({{200, 1}, {400, 2}}, {1});
  InstallDelta D = computeInstallDelta(
      Installed,
      makePolicy({{8, 3}, {16, 3}, {200, 1}, {300, 4}, {400, 2}, {4000, 1}},
                 {1}),
      512, 1, 4096);
  ASSERT_FALSE(D.FullRebuild) << D.Reason;
  EXPECT_EQ(D.TaryDirtyOffsets, (std::vector<uint64_t>{8, 16, 300, 4000}));
  ASSERT_EQ(D.TaryDirty.size(), 3u);
  EXPECT_EQ(D.TaryDirty[0].BeginBytes, 8u);
  EXPECT_EQ(D.TaryDirty[0].EndBytes, 20u);
  EXPECT_EQ(D.TaryDirty[1].BeginBytes, 300u);
  EXPECT_EQ(D.TaryDirty[1].EndBytes, 304u);
  EXPECT_EQ(D.TaryDirty[2].BeginBytes, 4000u);
  EXPECT_EQ(D.TaryDirty[2].EndBytes, 4004u);
}

TEST(InstallDelta, TargetRemovedFromTheMiddleForcesFullRebuild) {
  // Next is no smaller than Installed (a new target replaces the removed
  // one), so only the walk itself can notice the removal.
  CFGPolicy Installed = makePolicy({{0, 1}, {8, 2}, {16, 3}}, {1});
  InstallDelta D = computeInstallDelta(
      Installed, makePolicy({{0, 1}, {16, 3}, {24, 4}}, {1}), 64, 1, 64);
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed target removed");
  EXPECT_TRUE(D.TaryDirtyOffsets.empty());
  EXPECT_TRUE(D.TaryDirty.empty());
}

TEST(InstallDelta, LastTargetChangingClassForcesFullRebuild) {
  CFGPolicy Installed = makePolicy({{0, 1}, {8, 2}}, {1});
  InstallDelta D = computeInstallDelta(
      Installed, makePolicy({{0, 1}, {4, 6}, {8, 5}, {16, 3}}, {1}), 64, 1,
      64);
  EXPECT_TRUE(D.FullRebuild);
  EXPECT_EQ(D.Reason, "installed target changed class");
  EXPECT_TRUE(D.TaryDirtyOffsets.empty());
}

/// Reads back every Tary word below the installed limit: the policy's
/// targets hold valid IDs carrying their ECNs, every other word is zero.
void expectTaryWordsMatchPolicy(const Machine &M, const CFGPolicy &P) {
  const IDTables &T = M.tables();
  auto Next = P.TargetECN.begin();
  for (uint64_t Off = 0; Off < T.installedTaryLimitBytes(); Off += 4) {
    uint32_t ID = T.taryRead(Off);
    if (Next != P.TargetECN.end() && Next->first == Machine::CodeBase + Off) {
      ASSERT_TRUE(isValidID(ID)) << "target at offset " << Off;
      EXPECT_EQ(idECN(ID), Next->second) << "target at offset " << Off;
      ++Next;
    } else {
      EXPECT_EQ(ID, 0u) << "no target at offset " << Off;
    }
  }
  EXPECT_TRUE(Next == P.TargetECN.end()) << "target past the Tary limit";
}

TEST(InstallDelta, FullInstallWritesEveryTaryWordFromThePolicy) {
  // The full txUpdate asks for every Tary word in ascending order, and
  // the linker answers with a cursor over the sorted targets: the static
  // link and a forced-full dlopen must both leave exactly the policy in
  // the table.
  CompileResult Main = mustCompile(R"(
    long lib_fn(long x);
    long twice(long x) { return x * 2; }
    long thrice(long x) { return x * 3; }
    long apply(long (*f)(long), long v) { return f(v); }
    int main() { print_int(apply(twice, 1) + apply(thrice, 2)); return 0; }
  )",
                                   "main", /*EmitPlt=*/true);
  CompileResult Lib = mustCompile(R"(
    long lib_fn(long x) { return x + 1; }
    long (*lib_ptr)(long) = lib_fn;
  )",
                                  "lib");
  Machine M;
  LinkOptions Opts;
  Opts.IncrementalUpdates = false;
  Linker L(M, Opts);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Main.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  ASSERT_GT(L.policy().TargetECN.size(), 4u);
  expectTaryWordsMatchPolicy(M, L.policy());

  L.registerLibrary(std::move(Lib.Obj));
  ASSERT_GE(L.dlopen(0), 0) << L.lastError();
  EXPECT_FALSE(L.updateHistory().back().Incremental);
  expectTaryWordsMatchPolicy(M, L.policy());
}

} // namespace
