//===- tests/VerifierMutantTest.cpp - Verifier mutation corpus ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Mutation testing of the verifier: every module embedded in the
/// examples (plus a switch-heavy local module so jump tables are always
/// covered) is compiled, confirmed to verify, then subjected to targeted
/// mutations — dropped/reordered check instructions, a flipped mask
/// immediate, a direct branch retargeted into a check sequence, a
/// misaligned return site, a corrupted jump-table entry. Each mutant must
/// be rejected with a finding that names an offset inside the affected
/// range.
///
//===----------------------------------------------------------------------===//

#include "toolchain/Toolchain.h"
#include "tools/ToolCommon.h"
#include "verifier/Verifier.h"
#include "visa/ISA.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

const char *BigSwitchSource = R"(
  long g;
  long sel(long x) {
    switch (x) {
    case 0: return 11;
    case 1: return 22;
    case 2: return 33;
    case 3: return 44;
    case 4: return 55;
    case 5: return 66;
    case 6: return 77;
    default: return 0;
    }
  }
  long apply(long (*f)(long), long v) { g = v; return f(v); }
  int main() {
    print_int(apply(sel, 3));
    return 0;
  }
)";

struct Corpus {
  std::vector<std::pair<std::string, MCFIObject>> Modules;
};

VerifyResult verify(const MCFIObject &Obj) {
  return verifyModule(Obj.Code.data(), Obj.Code.size(), Obj);
}

/// The verifier rejects, and at least one finding names an offset in
/// [Lo, Hi] (inclusive).
void expectRejected(const MCFIObject &Obj, uint64_t Lo, uint64_t Hi,
                    const std::string &What) {
  VerifyResult R = verify(Obj);
  ASSERT_FALSE(R.Ok) << What << ": verifier accepted the mutant";
  bool Named = false;
  for (const std::string &E : R.Errors) {
    size_t Pos = 0;
    while ((Pos = E.find("0x", Pos)) != std::string::npos) {
      uint64_t Off = std::strtoull(E.c_str() + Pos, nullptr, 16);
      if (Off >= Lo && Off <= Hi)
        Named = true;
      Pos += 2;
    }
  }
  EXPECT_TRUE(Named) << What << ": finding names no offset in [" << Lo
                     << ", " << Hi << "]: "
                     << (R.Errors.empty() ? "?" : R.Errors.front());
}

Instr decodeAt(const MCFIObject &Obj, uint64_t Off) {
  Instr I;
  EXPECT_TRUE(decode(Obj.Code.data(), Obj.Code.size(), Off, I));
  return I;
}

bool insideAnySeq(const MCFIObject &Obj, uint64_t Off) {
  for (const BranchSite &BS : Obj.Aux.BranchSites)
    if (Off >= BS.SeqStart && Off <= BS.BranchOffset)
      return true;
  return false;
}

/// Finds the first instruction with opcode \p Op in [From, To).
uint64_t findOp(const MCFIObject &Obj, uint64_t From, uint64_t To,
                Opcode Op) {
  for (uint64_t Off = From; Off < To;) {
    Instr I = decodeAt(Obj, Off);
    if (I.Op == Op)
      return Off;
    Off += I.Length;
  }
  return ~0ull;
}

class MutantCorpus : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    C = new Corpus;
    auto add = [&](const std::string &Name, const std::string &Src) {
      CompileOptions CO;
      CO.ModuleName = Name;
      CompileResult CR = compileModule(Src, CO);
      if (!CR.Ok)
        return; // not every embedded raw string is a MiniC module
      if (!verify(CR.Obj).Ok)
        return;
      C->Modules.emplace_back(Name, std::move(CR.Obj));
    };
    add("bigswitch", BigSwitchSource);
    const char *Examples[] = {"quickstart.cpp", "separate_compilation.cpp",
                              "dynamic_plugin.cpp", "attack_demo.cpp",
                              "jit_server.cpp"};
    for (const char *Ex : Examples) {
      std::string Text;
      if (!tools::readFileText(std::string(MCFI_EXAMPLES_DIR) + "/" + Ex,
                               Text))
        continue;
      for (const tools::ModuleSource &MS : tools::extractModules(Text))
        add(std::string(Ex) + ":" + MS.Name, MS.Source);
    }
  }

  static void TearDownTestSuite() {
    delete C;
    C = nullptr;
  }

  static Corpus *C;
};

Corpus *MutantCorpus::C = nullptr;

TEST_F(MutantCorpus, CorpusIsSubstantial) {
  ASSERT_GE(C->Modules.size(), 4u);
  size_t WithJT = 0, WithSites = 0;
  for (const auto &[Name, Obj] : C->Modules) {
    WithJT += !Obj.Aux.JumpTables.empty();
    WithSites += !Obj.Aux.BranchSites.empty();
  }
  EXPECT_GE(WithJT, 1u);
  EXPECT_GE(WithSites, C->Modules.size());
}

TEST_F(MutantCorpus, DroppedTableReadRejected) {
  for (const auto &[Name, Orig] : C->Modules) {
    for (size_t S = 0; S != Orig.Aux.BranchSites.size(); ++S) {
      const BranchSite &BS = Orig.Aux.BranchSites[S];
      uint64_t Off = findOp(Orig, BS.SeqStart, BS.BranchOffset,
                            Opcode::TableRead);
      ASSERT_NE(Off, ~0ull) << Name << " site " << S;
      MCFIObject Obj = Orig;
      Instr TR = decodeAt(Obj, Off);
      for (unsigned B = 0; B != TR.Length; ++B)
        Obj.Code[Off + B] = static_cast<uint8_t>(Opcode::Nop);
      expectRejected(Obj, BS.SeqStart, BS.BranchOffset,
                     Name + ": drop tableread, site " + std::to_string(S));
    }
  }
}

TEST_F(MutantCorpus, ReorderedCheckInstructionsRejected) {
  // Swap the ID-compare xor with the jz that branches on it: the compare
  // now happens after the branch consumed a stale flag.
  for (const auto &[Name, Orig] : C->Modules) {
    const BranchSite &BS = Orig.Aux.BranchSites.front();
    uint64_t XorOff = findOp(Orig, BS.SeqStart, BS.BranchOffset,
                             Opcode::Xor);
    ASSERT_NE(XorOff, ~0ull) << Name;
    Instr X = decodeAt(Orig, XorOff);
    Instr J = decodeAt(Orig, XorOff + X.Length);
    ASSERT_EQ(J.Op, Opcode::Jz) << Name;
    MCFIObject Obj = Orig;
    std::vector<uint8_t> XB(Obj.Code.begin() + XorOff,
                            Obj.Code.begin() + XorOff + X.Length);
    std::vector<uint8_t> JB(Obj.Code.begin() + XorOff + X.Length,
                            Obj.Code.begin() + XorOff + X.Length + J.Length);
    std::copy(JB.begin(), JB.end(), Obj.Code.begin() + XorOff);
    std::copy(XB.begin(), XB.end(), Obj.Code.begin() + XorOff + J.Length);
    expectRejected(Obj, BS.SeqStart, BS.BranchOffset, Name + ": swap xor/jz");
  }
}

TEST_F(MutantCorpus, SwappedIDReadsRejected) {
  // Read the target ID before the branch ID. The transaction stays sound,
  // but only the Fig. 4 order (Bary, then Tary) is accepted: it is the
  // order the rewriter emits and the runtime's fused check executes.
  for (const auto &[Name, Orig] : C->Modules) {
    const BranchSite &BS = Orig.Aux.BranchSites.front();
    uint64_t BaryOff = findOp(Orig, BS.SeqStart, BS.BranchOffset,
                              Opcode::BaryRead);
    ASSERT_NE(BaryOff, ~0ull) << Name;
    Instr B = decodeAt(Orig, BaryOff);
    Instr T = decodeAt(Orig, BaryOff + B.Length);
    ASSERT_EQ(T.Op, Opcode::TableRead) << Name;
    MCFIObject Obj = Orig;
    std::vector<uint8_t> BB(Obj.Code.begin() + BaryOff,
                            Obj.Code.begin() + BaryOff + B.Length);
    std::vector<uint8_t> TB(Obj.Code.begin() + BaryOff + B.Length,
                            Obj.Code.begin() + BaryOff + B.Length + T.Length);
    std::copy(TB.begin(), TB.end(), Obj.Code.begin() + BaryOff);
    std::copy(BB.begin(), BB.end(), Obj.Code.begin() + BaryOff + T.Length);
    expectRejected(Obj, BS.SeqStart, BS.BranchOffset,
                   Name + ": swap baryread/tableread");
  }
}

TEST_F(MutantCorpus, FlippedMaskImmediateRejected) {
  // Set the top byte of the sandbox mask: the "mask" no longer bounds the
  // target below 2^32.
  for (const auto &[Name, Orig] : C->Modules) {
    const BranchSite &BS = Orig.Aux.BranchSites.front();
    uint64_t Off = findOp(Orig, BS.SeqStart, BS.BranchOffset,
                          Opcode::AndImm);
    ASSERT_NE(Off, ~0ull) << Name;
    MCFIObject Obj = Orig;
    Obj.Code[Off + 2 + 7] = 0xff; // imm64 lives at offset + 2
    expectRejected(Obj, BS.SeqStart, BS.BranchOffset,
                   Name + ": flip mask imm");
  }
}

TEST_F(MutantCorpus, BranchRetargetedIntoSequenceRejected) {
  // Redirect a direct branch from outside into the middle of a check
  // sequence: control can then reach the dispatch without the full
  // transaction.
  for (const auto &[Name, Orig] : C->Modules) {
    const BranchSite &BS = Orig.Aux.BranchSites.front();
    uint64_t Target = findOp(Orig, BS.SeqStart, BS.BranchOffset,
                             Opcode::TableRead);
    ASSERT_NE(Target, ~0ull) << Name;

    uint64_t BranchOff = ~0ull;
    Instr Branch{};
    for (uint64_t Off = 0; Off < Orig.Code.size();) {
      bool InTable = false;
      for (const JumpTableInfo &JT : Orig.Aux.JumpTables)
        if (Off >= JT.TableOffset &&
            Off < JT.TableOffset + 8 * JT.Targets.size()) {
          Off = JT.TableOffset + 8 * JT.Targets.size();
          InTable = true;
          break;
        }
      if (InTable)
        continue;
      Instr I = decodeAt(Orig, Off);
      if ((I.Op == Opcode::Jmp || I.Op == Opcode::Jz ||
           I.Op == Opcode::Jnz) &&
          !insideAnySeq(Orig, Off)) {
        BranchOff = Off;
        Branch = I;
        break;
      }
      Off += I.Length;
    }
    if (BranchOff == ~0ull)
      continue; // module without a free direct branch

    MCFIObject Obj = Orig;
    int64_t Rel = static_cast<int64_t>(Target) -
                  static_cast<int64_t>(BranchOff + Branch.Length);
    uint64_t FieldOff = BranchOff + (Branch.Op == Opcode::Jmp ? 1 : 2);
    for (int B = 0; B != 4; ++B)
      Obj.Code[FieldOff + B] =
          static_cast<uint8_t>(static_cast<uint32_t>(Rel) >> (8 * B));
    // A finding may blame either end of the rogue edge: the mutated
    // branch itself or the sequence it enters.
    uint64_t Lo = std::min(BranchOff, BS.SeqStart);
    uint64_t Hi = std::max(BranchOff, BS.BranchOffset);
    expectRejected(Obj, Lo, Hi, Name + ": retarget branch into sequence");
  }
}

TEST_F(MutantCorpus, MisalignedReturnSiteRejected) {
  for (const auto &[Name, Orig] : C->Modules) {
    if (Orig.Aux.CallSites.empty())
      continue;
    MCFIObject Obj = Orig;
    uint64_t Off = Obj.Aux.CallSites.front().RetSiteOffset;
    Obj.Aux.CallSites.front().RetSiteOffset = Off + 1;
    computeIBTOffsets(Obj.Aux);
    expectRejected(Obj, Off, Off + 1, Name + ": misalign return site");
  }
}

TEST_F(MutantCorpus, CorruptedJumpTableEntryRejected) {
  bool AnyJT = false;
  for (const auto &[Name, Orig] : C->Modules) {
    if (Orig.Aux.JumpTables.empty())
      continue;
    AnyJT = true;
    const JumpTableInfo &JT = Orig.Aux.JumpTables.front();
    MCFIObject Obj = Orig;
    Obj.Code[JT.TableOffset] += 1;
    expectRejected(Obj, JT.TableOffset,
                   JT.TableOffset + 8 * JT.Targets.size(),
                   Name + ": corrupt jump-table entry");
  }
  EXPECT_TRUE(AnyJT);
}

TEST_F(MutantCorpus, JumpTableDispatchMutantsRejected) {
  bool AnyJT = false;
  for (const auto &[Name, Orig] : C->Modules) {
    if (Orig.Aux.JumpTables.empty())
      continue;
    AnyJT = true;
    const JumpTableInfo &JT = Orig.Aux.JumpTables.front();

    // The bounds check of the dispatch turned into no-ops: the jmpi
    // would load past the table.
    Disassembly Dis = disassembleModule(Orig.Code.data(), Orig.Code.size(),
                                        Orig);
    int32_t K = Dis.indexAt(JT.JmpOffset);
    ASSERT_GE(K, 7) << Name;
    uint64_t Cmp = Dis.offsetOf(static_cast<size_t>(K) - 7);
    ASSERT_EQ(decodeAt(Orig, Cmp).Op, Opcode::CmpLtU) << Name;
    MCFIObject NoBound = Orig;
    for (uint64_t Off = Cmp;;) {
      Instr I = decodeAt(Orig, Off);
      if (I.Op == Opcode::MovImm)
        break; // keep the table address and what follows
      for (unsigned B = 0; B != I.Length; ++B)
        NoBound.Code[Off + B] = static_cast<uint8_t>(Opcode::Nop);
      Off += I.Length;
    }
    expectRejected(NoBound, Cmp - 16, JT.JmpOffset,
                   Name + ": drop dispatch bounds check");

    // A return whose check is gone, its jmpi declared as the table's
    // dispatch: only the dispatch template tells the two apart.
    for (size_t S = 0; S != Orig.Aux.BranchSites.size(); ++S) {
      const BranchSite &BS = Orig.Aux.BranchSites[S];
      if (BS.Kind != BranchKind::Return)
        continue;
      MCFIObject Obj = Orig;
      Obj.Aux.BranchSites.erase(Obj.Aux.BranchSites.begin() +
                                static_cast<ptrdiff_t>(S));
      uint64_t AfterPop = BS.SeqStart + decodeAt(Orig, BS.SeqStart).Length;
      for (uint64_t Off = AfterPop; Off != BS.BranchOffset; ++Off)
        Obj.Code[Off] = static_cast<uint8_t>(Opcode::Nop);
      JumpTableInfo Fake = JT;
      Fake.JmpOffset = BS.BranchOffset;
      Obj.Aux.JumpTables.push_back(Fake);
      expectRejected(Obj, BS.SeqStart, BS.BranchOffset,
                     Name + ": unchecked return declared as a dispatch");
      break;
    }
  }
  EXPECT_TRUE(AnyJT);
}

} // namespace
