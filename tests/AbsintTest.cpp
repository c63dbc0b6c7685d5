//===- tests/AbsintTest.cpp - Semantic verifier engine tests --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the abstract-interpretation tier: the lattice laws the join
/// must satisfy for the fixpoint to be sound and terminating, fixpoint
/// convergence on loop nests, and the semantic properties the engine must
/// decide differently from the syntactic template matcher — hoisted
/// sandbox masks and rescheduled ID loads prove, a clobber or an
/// unchecked join between check and dispatch rejects.
///
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"
#include "module/Pending.h"
#include "rewriter/Rewriter.h"
#include "support/RNG.h"
#include "toolchain/Toolchain.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::absint;
using namespace mcfi::visa;

namespace {

//===----------------------------------------------------------------------===//
// Lattice laws
//===----------------------------------------------------------------------===//

AbsVal randomVal(RNG &R) {
  static const VK Kinds[] = {
      VK::Top,        VK::Const,      VK::Masked,    VK::Checked,
      VK::BranchID,   VK::TargetID,   VK::DiffFull,  VK::ValidBit,
      VK::DiffVer,    VK::BoundsFlag, VK::BoundedIdx, VK::ScaledIdx,
      VK::TableBase,  VK::TableSlot,  VK::JTTarget,
  };
  AbsVal V;
  V.K = Kinds[R.below(sizeof(Kinds) / sizeof(Kinds[0]))];
  V.Tok = R.below(6);
  V.Ref = R.below(4);
  // Small constants stay masked-ish; occasionally exceed 2^32 so the
  // Const/masked boundary is exercised.
  V.Aux = R.chancePercent(20) ? (1ull << 32) + R.below(8) : R.below(8);
  V.Site = static_cast<uint32_t>(R.below(3));
  return V;
}

AbsVal joinFresh(const AbsVal &A, const AbsVal &B) {
  JoinCtx Ctx;
  bool Minted = false;
  return joinVal(A, B, Ctx, /*MintTok=*/999, Minted);
}

TEST(AbsDomain, JoinIdempotent) {
  RNG R(1);
  for (int I = 0; I != 2000; ++I) {
    AbsVal A = randomVal(R);
    JoinCtx Ctx;
    bool Minted = false;
    AbsVal J = joinVal(A, A, Ctx, 999, Minted);
    EXPECT_EQ(J, A) << printVal(A);
    EXPECT_FALSE(Minted);
  }
}

TEST(AbsDomain, JoinCommutativeUpToTokens) {
  // Tokens are re-minted deterministically by the caller, so commutativity
  // holds on everything except the value name: kind, constant payload, and
  // site must not depend on the operand order.
  RNG R(2);
  for (int I = 0; I != 4000; ++I) {
    AbsVal A = randomVal(R), B = randomVal(R);
    JoinCtx C1, C2;
    bool M1 = false, M2 = false;
    AbsVal AB = joinVal(A, B, C1, 999, M1);
    AbsVal BA = joinVal(B, A, C2, 999, M2);
    EXPECT_EQ(AB.K, BA.K) << printVal(A) << " vs " << printVal(B);
    EXPECT_EQ(M1, M2);
    EXPECT_EQ(AB.Site, BA.Site);
    if (AB.K == VK::Const) {
      EXPECT_EQ(AB.Aux, BA.Aux);
    }
  }
}

TEST(AbsDomain, JoinMonotoneDegrade) {
  // The join never invents precision: the result is the left operand
  // unchanged, or Checked (from two Checked values), or Masked (both
  // operands provably < 2^32), or Top. And two masked-ish values always
  // join masked-ish — the sandbox fact survives every join.
  RNG R(3);
  for (int I = 0; I != 4000; ++I) {
    AbsVal A = randomVal(R), B = randomVal(R);
    JoinCtx Ctx;
    bool Minted = false;
    AbsVal J = joinVal(A, B, Ctx, 999, Minted);
    if (maskedIsh(A) && maskedIsh(B)) {
      EXPECT_TRUE(maskedIsh(J)) << printVal(A) << " vs " << printVal(B);
    }
    bool Allowed = (!Minted && J == A) || J.K == VK::Checked ||
                   J.K == VK::Masked || J.K == VK::Top;
    EXPECT_TRUE(Allowed) << printVal(A) << " join " << printVal(B) << " = "
                         << printVal(J);
  }
}

TEST(AbsDomain, JoinAssociativeOnKinds) {
  RNG R(4);
  for (int I = 0; I != 2000; ++I) {
    AbsVal A = randomVal(R), B = randomVal(R), C = randomVal(R);
    AbsVal L = joinFresh(joinFresh(A, B), C);
    AbsVal Rv = joinFresh(A, joinFresh(B, C));
    // Kinds can differ in one way only: token re-minting may demote an
    // exact match to Masked on one side. Both orders must still agree on
    // masked-ish-ness and on reaching Top.
    EXPECT_EQ(maskedIsh(L), maskedIsh(Rv))
        << printVal(A) << ", " << printVal(B) << ", " << printVal(C);
    EXPECT_EQ(L.K == VK::Top, Rv.K == VK::Top);
  }
}

TEST(AbsDomain, TokenUnificationIsBijective) {
  JoinCtx Ctx;
  EXPECT_TRUE(Ctx.unify(1, 10));
  EXPECT_TRUE(Ctx.unify(1, 10)); // consistent re-query
  EXPECT_FALSE(Ctx.unify(1, 11)); // 1 already maps to 10
  EXPECT_FALSE(Ctx.unify(2, 10)); // 10 already claimed by 1
  EXPECT_TRUE(Ctx.unify(2, 11));
}

//===----------------------------------------------------------------------===//
// Hand-assembled modules
//===----------------------------------------------------------------------===//

Instr mk(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

/// Appends the canonical Fig. 4 check core for \p SiteId, exactly as the
/// rewriter emits it (target already in r15). If \p ClobberBeforeBranch,
/// a movi r15 is planted after the pass label — the classic time-of-check/
/// time-of-use break the semantic tier must catch.
void emitCore(AsmFunction &Fn, uint32_t SiteId, bool ClobberBeforeBranch) {
  int Try = Fn.newLabel(), Halt = Fn.newLabel(), Go = Fn.newLabel();
  auto push = [&](AsmItem It) { Fn.Items.push_back(std::move(It)); };
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegTarget;
    I.Imm = 0xffffffffull;
    push(AsmItem::instr(I));
  }
  push(AsmItem::label(Try));
  {
    Instr I = mk(Opcode::BaryRead);
    I.Rd = RegBranchID;
    AsmItem It = AsmItem::instr(I);
    It.Reloc = RelocKind::BaryIndex32;
    It.SiteId = SiteId;
    push(It);
  }
  {
    Instr I = mk(Opcode::TableRead);
    I.Rd = RegTargetID;
    I.Ra = RegTarget;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Xor);
    I.Rd = RegIDDiff;
    I.Ra = RegBranchID;
    I.Rb = RegTargetID;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Go;
    push(It);
  }
  {
    Instr I = mk(Opcode::MovImm);
    I.Rd = RegIDDiff;
    I.Imm = 1;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::And);
    I.Rd = RegIDDiff;
    I.Ra = RegIDDiff;
    I.Rb = RegTargetID;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Halt;
    push(It);
  }
  {
    Instr I = mk(Opcode::Xor);
    I.Rd = RegIDDiff;
    I.Ra = RegBranchID;
    I.Rb = RegTargetID;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegIDDiff;
    I.Imm = 0xffffull;
    push(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jnz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Try;
    push(It);
  }
  push(AsmItem::label(Halt));
  push(AsmItem::instr(mk(Opcode::Halt)));
  push(AsmItem::label(Go));
  if (ClobberBeforeBranch) {
    Instr I = mk(Opcode::MovImm);
    I.Rd = RegTarget;
    I.Imm = 64;
    push(AsmItem::instr(I));
  }
}

/// Finalizes a single-function module named "f".
MCFIObject seal(PendingModule &&PM, AsmFunction &&Fn) {
  Fn.Name = "f";
  FunctionInfo Info;
  Info.Name = Fn.Name;
  Info.TypeSig = "()->i64";
  PM.FunctionInfos.push_back(std::move(Info));
  PM.Functions.push_back(std::move(Fn));
  PM.Name = "handmade";
  return finalizeObject(std::move(PM));
}

/// A module whose one function is a hand-written return check sequence,
/// optionally broken between check and dispatch.
MCFIObject returnSequenceModule(bool ClobberBeforeBranch) {
  PendingModule PM;
  AsmFunction Fn;
  int SeqStart = Fn.newLabel();
  Fn.Items.push_back(AsmItem::label(SeqStart));
  {
    Instr I = mk(Opcode::Pop);
    I.Rd = RegTarget;
    I.Ra = RegTarget;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  emitCore(Fn, 0, ClobberBeforeBranch);
  int Branch = Fn.newLabel();
  Fn.Items.push_back(AsmItem::label(Branch));
  {
    Instr I = mk(Opcode::JmpInd);
    I.Ra = RegTarget;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  PendingBranchSite BS;
  BS.FuncIndex = 0;
  BS.Kind = BranchKind::Return;
  BS.SeqStartLabel = SeqStart;
  BS.BranchLabel = Branch;
  PM.BranchSites.push_back(std::move(BS));
  return seal(std::move(PM), std::move(Fn));
}

VerifyResult runTier(const MCFIObject &Obj, bool Syntactic, bool Semantic) {
  VerifyOptions Opts;
  Opts.UseSyntactic = Syntactic;
  Opts.UseSemantic = Semantic;
  return verifyModule(Obj.Code.data(), Obj.Code.size(), Obj, Opts);
}

TEST(Absint, HandWrittenTemplateProves) {
  MCFIObject Obj = returnSequenceModule(/*ClobberBeforeBranch=*/false);
  VerifyResult Syn = runTier(Obj, true, false);
  EXPECT_TRUE(Syn.Ok) << (Syn.Errors.empty() ? "?" : Syn.Errors.front());
  VerifyResult Sem = runTier(Obj, false, true);
  EXPECT_TRUE(Sem.Ok) << (Sem.Errors.empty() ? "?" : Sem.Errors.front());
  EXPECT_GT(Sem.FixpointIters, 0u);
}

TEST(Absint, ClobberBetweenCheckAndBranchRejected) {
  MCFIObject Obj = returnSequenceModule(/*ClobberBeforeBranch=*/true);
  EXPECT_FALSE(runTier(Obj, true, false).Ok);
  VerifyResult Sem = runTier(Obj, false, true);
  ASSERT_FALSE(Sem.Ok);
  // The finding names the dispatch and carries a trace witness.
  EXPECT_NE(Sem.Errors.front().find("0x"), std::string::npos)
      << Sem.Errors.front();
  EXPECT_FALSE(runTier(Obj, true, true).Ok);
}

TEST(Absint, HoistedMaskProvesSemantallyOnly) {
  // andi r6; store [r6]; store [r6+8]: the second store shares the first
  // store's mask. Illegal for the adjacency template, provable by
  // dataflow.
  PendingModule PM;
  AsmFunction Fn;
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = 6;
    I.Imm = 0xffffffffull;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  for (int32_t Off : {0, 8}) {
    Instr S = mk(Opcode::Store);
    S.Rd = 6;
    S.Ra = 7;
    S.Off = Off;
    Fn.Items.push_back(AsmItem::instr(S));
  }
  Fn.Items.push_back(AsmItem::instr(mk(Opcode::Halt)));
  MCFIObject Obj = seal(std::move(PM), std::move(Fn));

  EXPECT_FALSE(runTier(Obj, true, false).Ok);
  VerifyResult Sem = runTier(Obj, false, true);
  EXPECT_TRUE(Sem.Ok) << (Sem.Errors.empty() ? "?" : Sem.Errors.front());
  VerifyResult Both = runTier(Obj, true, true);
  EXPECT_TRUE(Both.Ok);
  EXPECT_EQ(Both.DecidedBy, VerifyTier::Semantic);
  EXPECT_FALSE(Both.SyntacticFindings.empty());
}

TEST(Absint, MaskClobberedBetweenStoresRejected) {
  // Same shape, but the base register is overwritten between the stores:
  // the hoisted mask no longer covers the second store.
  PendingModule PM;
  AsmFunction Fn;
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = 6;
    I.Imm = 0xffffffffull;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  {
    Instr S = mk(Opcode::Store);
    S.Rd = 6;
    S.Ra = 7;
    Fn.Items.push_back(AsmItem::instr(S));
  }
  {
    Instr I = mk(Opcode::Mov);
    I.Rd = 6;
    I.Ra = 8; // r8 is unknown at entry
    Fn.Items.push_back(AsmItem::instr(I));
  }
  {
    Instr S = mk(Opcode::Store);
    S.Rd = 6;
    S.Ra = 7;
    S.Off = 8;
    Fn.Items.push_back(AsmItem::instr(S));
  }
  Fn.Items.push_back(AsmItem::instr(mk(Opcode::Halt)));
  MCFIObject Obj = seal(std::move(PM), std::move(Fn));

  VerifyResult Sem = runTier(Obj, false, true);
  ASSERT_FALSE(Sem.Ok);
  EXPECT_NE(Sem.Errors.front().find("store"), std::string::npos)
      << Sem.Errors.front();
}

TEST(Absint, UncheckedJoinIntoDispatchRejected) {
  // One path runs the full transaction, the other only masks; they meet
  // at the dispatch. The joined value is Masked, not Checked — reject.
  PendingModule PM;
  AsmFunction Fn;
  int SeqStart = Fn.newLabel();
  int Skip = Fn.newLabel();
  int Disp = Fn.newLabel();
  Fn.Items.push_back(AsmItem::label(SeqStart));
  {
    Instr I = mk(Opcode::Pop);
    I.Rd = RegTarget;
    I.Ra = RegTarget;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jnz);
    I.Ra = 8; // unknown condition: both paths reachable
    AsmItem It = AsmItem::instr(I);
    It.Label = Skip;
    Fn.Items.push_back(It);
  }
  emitCore(Fn, 0, /*ClobberBeforeBranch=*/false);
  {
    Instr I = mk(Opcode::Jmp);
    AsmItem It = AsmItem::instr(I);
    It.Label = Disp;
    Fn.Items.push_back(It);
  }
  Fn.Items.push_back(AsmItem::label(Skip));
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegTarget;
    I.Imm = 0xffffffffull;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  Fn.Items.push_back(AsmItem::label(Disp));
  {
    Instr I = mk(Opcode::JmpInd);
    I.Ra = RegTarget;
    Fn.Items.push_back(AsmItem::instr(I));
  }
  PendingBranchSite BS;
  BS.FuncIndex = 0;
  BS.Kind = BranchKind::Return;
  BS.SeqStartLabel = SeqStart;
  BS.BranchLabel = Disp;
  PM.BranchSites.push_back(std::move(BS));
  MCFIObject Obj = seal(std::move(PM), std::move(Fn));

  VerifyResult Sem = runTier(Obj, false, true);
  ASSERT_FALSE(Sem.Ok);
  EXPECT_FALSE(runTier(Obj, true, true).Ok);
}

//===----------------------------------------------------------------------===//
// Rewriter Optimize output and fixpoint behavior
//===----------------------------------------------------------------------===//

TEST(Absint, ScheduledCheckProvesSemantallyOnly) {
  // Rewriter Optimize schedules the Tary read before the Bary read: the
  // template walk trips on the first reordered instruction, the dataflow
  // proof does not care about the order of two independent loads.
  PendingModule PM;
  AsmFunction Fn;
  Fn.Items.push_back(AsmItem::instr(mk(Opcode::Ret)));
  RewriteOptions RO;
  RO.Optimize = true;
  PM.Functions.push_back(std::move(Fn));
  PM.Functions.back().Name = "f";
  FunctionInfo Info;
  Info.Name = "f";
  Info.TypeSig = "()->i64";
  PM.FunctionInfos.push_back(std::move(Info));
  PM.Name = "sched";
  instrumentModule(PM, RO);
  MCFIObject Obj = finalizeObject(std::move(PM));

  EXPECT_FALSE(runTier(Obj, true, false).Ok);
  VerifyResult Sem = runTier(Obj, false, true);
  EXPECT_TRUE(Sem.Ok) << (Sem.Errors.empty() ? "?" : Sem.Errors.front());
  VerifyResult Both = runTier(Obj, true, true);
  EXPECT_TRUE(Both.Ok);
  EXPECT_EQ(Both.DecidedBy, VerifyTier::Semantic);
}

const char *LoopNestSource = R"(
  long acc = 0;
  long work(long x) { acc = acc + x; return acc; }
  int main() {
    long i; long j; long k;
    i = 0;
    while (i < 4) {
      j = 0;
      while (j < 4) {
        k = 0;
        while (k < 4) {
          acc = acc + work(i + j + k);
          k = k + 1;
        }
        j = j + 1;
      }
      i = i + 1;
    }
    print_int(acc);
    return 0;
  }
)";

TEST(Absint, FixpointTerminatesOnLoopNest) {
  CompileResult CR = compileModule(LoopNestSource, {.ModuleName = "nest"});
  ASSERT_TRUE(CR.Ok) << CR.Errors.front();
  const MCFIObject &Obj = CR.Obj;

  Disassembly Dis = disassembleModule(Obj.Code.data(), Obj.Code.size(), Obj);
  ASSERT_TRUE(Dis.complete()) << "undecodable byte at " << Dis.FirstBad;
  SemanticResult R = prove(Obj.Code.data(), Obj.Code.size(), Obj, Dis);
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors.front());
  EXPECT_GT(R.FixpointIters, 0u);
  EXPECT_GT(R.Blocks, 0u);
  // Convergence must not rely on the iteration cap.
  EXPECT_LT(R.FixpointIters,
            std::max<uint64_t>(1024, Dis.Instrs.size() * 256));
}

TEST(Absint, AggressiveWideningStaysSound) {
  // Widening after a single update is maximally lossy; it must neither
  // diverge nor reject a correct module (the check transaction re-derives
  // its facts inside the Try loop each iteration).
  CompileResult CR = compileModule(LoopNestSource, {.ModuleName = "nest"});
  ASSERT_TRUE(CR.Ok);
  const MCFIObject &Obj = CR.Obj;
  Disassembly Dis = disassembleModule(Obj.Code.data(), Obj.Code.size(), Obj);
  ASSERT_TRUE(Dis.complete());
  AbsIntOptions Opts;
  Opts.WidenUpdates = 1;
  SemanticResult R =
      prove(Obj.Code.data(), Obj.Code.size(), Obj, Dis, Opts);
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors.front());
}

TEST(Absint, BlockDumpRendersStates) {
  CompileResult CR = compileModule(LoopNestSource, {.ModuleName = "nest"});
  ASSERT_TRUE(CR.Ok);
  const MCFIObject &Obj = CR.Obj;
  Disassembly Dis = disassembleModule(Obj.Code.data(), Obj.Code.size(), Obj);
  ASSERT_TRUE(Dis.complete());
  AbsIntOptions Opts;
  Opts.CollectBlockDump = true;
  SemanticResult R =
      prove(Obj.Code.data(), Obj.Code.size(), Obj, Dis, Opts);
  EXPECT_TRUE(R.Ok);
  EXPECT_NE(R.BlockDump.find("bb0"), std::string::npos);
  EXPECT_NE(R.BlockDump.find("sp"), std::string::npos);
  EXPECT_NE(R.BlockDump.find("->"), std::string::npos);
}

} // namespace
