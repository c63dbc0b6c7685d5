//===- tests/VerifierTest.cpp - Modular verifier tests --------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The verifier removes the rewriter from the trusted computing base: a
/// tampered or mis-instrumented module must be rejected before it is
/// sealed executable. These tests accept correctly instrumented modules
/// and reject targeted corruptions of every property the verifier
/// guards.
///
//===----------------------------------------------------------------------===//

#include "toolchain/Toolchain.h"
#include "verifier/Verifier.h"
#include "visa/ISA.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

const char *Source = R"(
  long g_total = 0;
  long work(long x) { g_total = g_total + x; return x * 7; }
  long twice(long (*f)(long), long v) { return f(v) + f(v); }
  long sel(long x) {
    switch (x) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return 4;
    case 4: return 5;
    default: return 0;
    }
  }
  int main() {
    print_int(twice(work, 3) + sel(2));
    return 0;
  }
)";

struct ModuleFixture : public ::testing::Test {
  void SetUp() override {
    CompileResult CR = compileModule(Source, {.ModuleName = "victim"});
    ASSERT_TRUE(CR.Ok) << CR.Errors.front();
    Obj = std::move(CR.Obj);
  }

  VerifyResult verify() {
    return verifyModule(Obj.Code.data(), Obj.Code.size(), Obj);
  }

  /// Decodes the instruction at \p Off.
  Instr at(uint64_t Off) {
    Instr I;
    EXPECT_TRUE(decode(Obj.Code.data(), Obj.Code.size(), Off, I));
    return I;
  }

  MCFIObject Obj;
};

TEST_F(ModuleFixture, CorrectModuleVerifies) {
  VerifyResult R = verify();
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors.front());
}

TEST_F(ModuleFixture, UninstrumentedModuleRejected) {
  CompileOptions CO;
  CO.ModuleName = "plain";
  CO.Instrument = false;
  CompileResult Plain = compileModule(Source, CO);
  ASSERT_TRUE(Plain.Ok);
  VerifyResult R = verifyModule(Plain.Obj.Code.data(), Plain.Obj.Code.size(),
                                Plain.Obj);
  EXPECT_FALSE(R.Ok); // bare rets / unchecked indirect branches
}

TEST_F(ModuleFixture, InjectedBareRetRejected) {
  // Overwrite some no-op-sized spot with a raw ret: find a nop.
  bool Patched = false;
  uint64_t Off = 0;
  while (Off < Obj.Code.size()) {
    Instr I;
    ASSERT_TRUE(decode(Obj.Code.data(), Obj.Code.size(), Off, I));
    if (I.Op == Opcode::Nop) {
      Obj.Code[Off] = static_cast<uint8_t>(Opcode::Ret);
      Patched = true;
      break;
    }
    Off += I.Length;
  }
  ASSERT_TRUE(Patched) << "no nop found to corrupt";
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, TamperedCheckSequenceRejected) {
  // Neutralize the sandbox mask of the first return site: change the
  // andi immediate from 0xffffffff to all-ones (no masking).
  const BranchSite *Ret = nullptr;
  for (const BranchSite &BS : Obj.Aux.BranchSites)
    if (BS.Kind == BranchKind::Return) {
      Ret = &BS;
      break;
    }
  ASSERT_NE(Ret, nullptr);
  // SeqStart: pop r15; then andi r15, imm64. Patch the imm.
  Instr Pop = at(Ret->SeqStart);
  ASSERT_EQ(Pop.Op, Opcode::Pop);
  uint64_t AndiOff = Ret->SeqStart + Pop.Length;
  Instr Andi = at(AndiOff);
  ASSERT_EQ(Andi.Op, Opcode::AndImm);
  for (int B = 0; B != 8; ++B)
    Obj.Code[AndiOff + 2 + B] = 0xff;
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, RetargetedCheckBranchRejected) {
  // Make the pass-branch of a check sequence jump somewhere else
  // (attempting to skip the transfer or escape the transaction).
  const BranchSite &BS = Obj.Aux.BranchSites.front();
  uint64_t Off = BS.SeqStart;
  // Scan forward for the first jz in the sequence.
  for (;;) {
    Instr I = at(Off);
    if (I.Op == Opcode::Jz) {
      // Retarget it 4 bytes further than intended.
      int32_t NewOff = I.Off + 4;
      for (int B = 0; B != 4; ++B)
        Obj.Code[Off + 2 + B] = static_cast<uint8_t>(NewOff >> (8 * B));
      break;
    }
    Off += I.Length;
    ASSERT_LT(Off, BS.BranchOffset);
  }
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, LyingAuxBranchOffsetRejected) {
  // Claim the branch is somewhere it is not.
  ASSERT_FALSE(Obj.Aux.BranchSites.empty());
  Obj.Aux.BranchSites[0].BranchOffset += 4;
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, UnmaskedStoreRejected) {
  // Find a masked store (andi rd; store via rd) and cut the mask by
  // replacing it with nops — the store becomes unsandboxed.
  uint64_t Off = 0;
  uint64_t PrevOff = ~0ull;
  Instr Prev{};
  bool Patched = false;
  while (Off < Obj.Code.size() && !Patched) {
    // Skip declared jump-table data.
    bool InTable = false;
    for (const JumpTableInfo &JT : Obj.Aux.JumpTables)
      if (Off >= JT.TableOffset && Off < JT.TableOffset + 8 * JT.Targets.size()) {
        Off = JT.TableOffset + 8 * JT.Targets.size();
        InTable = true;
        break;
      }
    if (InTable)
      continue;
    Instr I;
    ASSERT_TRUE(decode(Obj.Code.data(), Obj.Code.size(), Off, I));
    if (isStore(I.Op) && I.Rd != RegSP && Prev.Op == Opcode::AndImm) {
      for (unsigned B = 0; B != opcodeLength(Opcode::AndImm); ++B)
        Obj.Code[PrevOff + B] = static_cast<uint8_t>(Opcode::Nop);
      Patched = true;
      break;
    }
    PrevOff = Off;
    Prev = I;
    Off += I.Length;
  }
  ASSERT_TRUE(Patched) << "no masked store found";
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, CorruptedJumpTableEntryRejected) {
  ASSERT_FALSE(Obj.Aux.JumpTables.empty());
  const JumpTableInfo &JT = Obj.Aux.JumpTables.front();
  // Point entry 0 at entry-0-target + 1 (a non-boundary / wrong target).
  Obj.Code[JT.TableOffset] += 1;
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, MisalignedAddressTakenFunctionRejected) {
  for (FunctionInfo &F : Obj.Aux.Functions)
    if (F.AddressTaken) {
      F.CodeOffset += 1;
      break;
    }
  EXPECT_FALSE(verify().Ok);
}

TEST_F(ModuleFixture, GarbageBytesRejected) {
  // Stomp an instruction boundary with an invalid opcode.
  Obj.Code[Obj.Aux.Functions.front().CodeOffset] = 0xEE;
  EXPECT_FALSE(verify().Ok);
}

} // namespace
