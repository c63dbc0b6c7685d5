//===- verifier/Verifier.cpp - Modular MCFI verification ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "support/Assert.h"
#include "support/StringUtils.h"
#include "visa/ISA.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const uint8_t *Code, size_t Size, const MCFIObject &Obj,
               const Disassembly &Dis)
      : Code(Code), Size(Size), Obj(Obj), Dis(Dis),
        Flags(Dis.Instrs.size(), 0) {}

  VerifyResult run() {
    if (!Dis.complete())
      error(formatString("undecodable byte at offset 0x%llx",
                         static_cast<unsigned long long>(Dis.FirstBad)));
    if (Result.Ok) {
      // The structural checks pin down the facts (complete disassembly,
      // table contents, boundaries, alignment) the template walk builds
      // on.
      checkJumpTables();
      checkBareRets();
      checkDirectBranchBoundaries();
      checkAlignment();
    }
    if (!Result.Ok)
      return std::move(Result);
    checkBranchSequences();
    checkStoreMasks();
    checkStrayIndirects();
    checkDirectBranchEntries();
    return std::move(Result);
  }

private:
  void error(const std::string &Msg) {
    Result.Ok = false;
    Result.Errors.push_back(Msg);
  }

  //===--------------------------------------------------------------------===//
  // The disassembly, indexed flat
  //===--------------------------------------------------------------------===//

  const Instr *instrAt(uint64_t Off) const { return Dis.at(Off); }

  /// Per-instruction facts the template sweeps record.
  enum : uint8_t {
    CheckedBranch = 1, ///< a jmpi/calli ending a verified sequence or table
    MaskedStore = 2,   ///< a store directly preceded by its sandbox mask
    DispatchExit = 4,  ///< the bounds-check jz of a jump-table dispatch
  };

  void setFlag(uint64_t Off, uint8_t F) {
    Flags[static_cast<size_t>(Dis.indexAt(Off))] |= F;
  }

  bool hasFlag(uint64_t Off, uint8_t F) const {
    int32_t K = Dis.indexAt(Off);
    return K >= 0 && (Flags[static_cast<size_t>(K)] & F);
  }

  /// Calls \p Fn(Off, I) for every instruction in offset order.
  template <typename FnT> void forEachInstr(FnT Fn) const {
    for (size_t K = 0; K != Dis.Instrs.size(); ++K)
      Fn(Dis.offsetOf(K), Dis.Instrs[K].I);
  }

  //===--------------------------------------------------------------------===//
  // Check-sequence templates (Fig. 4)
  //===--------------------------------------------------------------------===//

  /// Matches one instruction satisfying \p Pred; advances \p Off on
  /// success.
  template <typename PredT>
  bool expect(uint64_t &Off, Opcode Op, PredT Pred, const char *What) {
    const Instr *I = instrAt(Off);
    if (!I || I->Op != Op || !Pred(*I)) {
      error(formatString("check sequence at 0x%llx: expected %s at 0x%llx",
                         static_cast<unsigned long long>(SeqStart), What,
                         static_cast<unsigned long long>(Off)));
      return false;
    }
    Off += I->Length;
    return true;
  }

  /// Verifies the core of a check transaction starting at \p Off (after
  /// the target register has been produced). On success, \p Off points at
  /// the final indirect branch and \p TryOff holds the retry target.
  bool matchCheckCore(uint64_t &Off, uint64_t &TryOff, uint64_t RetryTarget) {
    // andi r15, 0xffffffff
    if (!expect(Off, Opcode::AndImm,
                [](const Instr &I) {
                  return I.Rd == RegTarget && I.Imm == 0xffffffffull;
                },
                "sandbox mask"))
      return false;
    // Optional footnote-1 alignment mask (strictly stronger; accepted).
    if (const Instr *I = instrAt(Off);
        I && I->Op == Opcode::AndImm && I->Rd == RegTarget &&
        I->Imm == 0xfffffffcull)
      Off += I->Length;
    TryOff = Off;
    if (RetryTarget == ~0ull)
      RetryTarget = TryOff;
    // baryread r12, [idx]
    if (!expect(Off, Opcode::BaryRead,
                [](const Instr &I) { return I.Rd == RegBranchID; },
                "branch-ID read"))
      return false;
    // tableread r13, [r15]
    if (!expect(Off, Opcode::TableRead,
                [](const Instr &I) {
                  return I.Rd == RegTargetID && I.Ra == RegTarget;
                },
                "target-ID read"))
      return false;
    // xor r11, r12, r13
    if (!expect(Off, Opcode::Xor,
                [](const Instr &I) {
                  return I.Rd == RegIDDiff && I.Ra == RegBranchID &&
                         I.Rb == RegTargetID;
                },
                "ID comparison"))
      return false;
    // jz r11, Go
    uint64_t JzOff = Off;
    const Instr *Jz = instrAt(Off);
    if (!expect(Off, Opcode::Jz,
                [](const Instr &I) { return I.Ra == RegIDDiff; },
                "pass branch"))
      return false;
    uint64_t GoTarget = JzOff + Jz->Length + static_cast<int64_t>(Jz->Off);
    // movi r11, 1 ; and r11, r11, r13 ; jz r11, Halt
    if (!expect(Off, Opcode::MovImm,
                [](const Instr &I) { return I.Rd == RegIDDiff && I.Imm == 1; },
                "validity constant"))
      return false;
    if (!expect(Off, Opcode::And,
                [](const Instr &I) {
                  return I.Rd == RegIDDiff && I.Rb == RegTargetID;
                },
                "validity test"))
      return false;
    uint64_t JzHaltOff = Off;
    const Instr *JzHalt = instrAt(Off);
    if (!expect(Off, Opcode::Jz,
                [](const Instr &I) { return I.Ra == RegIDDiff; },
                "halt branch"))
      return false;
    uint64_t HaltTarget =
        JzHaltOff + JzHalt->Length + static_cast<int64_t>(JzHalt->Off);
    // xor ; andi 0xffff ; jnz Try
    if (!expect(Off, Opcode::Xor,
                [](const Instr &I) {
                  return I.Rd == RegIDDiff && I.Ra == RegBranchID &&
                         I.Rb == RegTargetID;
                },
                "version comparison"))
      return false;
    if (!expect(Off, Opcode::AndImm,
                [](const Instr &I) {
                  return I.Rd == RegIDDiff && I.Imm == 0xffffull;
                },
                "version mask"))
      return false;
    uint64_t JnzOff = Off;
    const Instr *Jnz = instrAt(Off);
    if (!expect(Off, Opcode::Jnz,
                [](const Instr &I) { return I.Ra == RegIDDiff; },
                "retry branch"))
      return false;
    uint64_t ActualRetry =
        JnzOff + Jnz->Length + static_cast<int64_t>(Jnz->Off);
    if (ActualRetry != RetryTarget) {
      error(formatString("check sequence at 0x%llx: retry branch escapes "
                         "the transaction",
                         static_cast<unsigned long long>(SeqStart)));
      return false;
    }
    // hlt
    if (HaltTarget != Off) {
      error(formatString("check sequence at 0x%llx: halt branch does not "
                         "target the hlt",
                         static_cast<unsigned long long>(SeqStart)));
      return false;
    }
    if (!expect(Off, Opcode::Halt, [](const Instr &) { return true; },
                "hlt"))
      return false;
    // Skip alignment no-ops between the hlt and the branch (call return
    // sites are pre-padded).
    uint64_t Cursor = Off;
    while (const Instr *I = instrAt(Cursor)) {
      if (I->Op != Opcode::Nop)
        break;
      Cursor += I->Length;
    }
    if (GoTarget != Off && GoTarget != Cursor) {
      error(formatString("check sequence at 0x%llx: pass branch does not "
                         "target the transfer",
                         static_cast<unsigned long long>(SeqStart)));
      return false;
    }
    Off = Cursor;
    return true;
  }

  void checkBranchSequences() {
    for (const BranchSite &BS : Obj.Aux.BranchSites) {
      SeqStart = BS.SeqStart;
      uint64_t Off = BS.SeqStart;
      uint64_t TryOff = 0;
      bool Core = false;
      switch (BS.Kind) {
      case BranchKind::Return:
        // pop r15
        Core = expect(Off, Opcode::Pop,
                      [](const Instr &I) { return I.Rd == RegTarget; },
                      "pop of return address") &&
               matchCheckCore(Off, TryOff, ~0ull);
        break;
      case BranchKind::IndirectCall:
      case BranchKind::IndirectJump:
        // mov r15, rX
        Core = expect(Off, Opcode::Mov,
                      [](const Instr &I) { return I.Rd == RegTarget; },
                      "target staging move") &&
               matchCheckCore(Off, TryOff, ~0ull);
        break;
      case BranchKind::PltJump: {
        // movi r15, &got$sym ; load r15, [r15]
        uint64_t Reload = Off;
        Core = expect(Off, Opcode::MovImm,
                      [](const Instr &I) { return I.Rd == RegTarget; },
                      "GOT address") &&
               expect(Off, Opcode::Load,
                      [](const Instr &I) {
                        return I.Rd == RegTarget && I.Ra == RegTarget &&
                               I.Off == 0;
                      },
                      "GOT load") &&
               matchCheckCore(Off, TryOff, Reload);
        break;
      }
      }
      if (!Core)
        continue;
      // The final transfer.
      if (Off != BS.BranchOffset) {
        error(formatString(
            "branch site at 0x%llx: declared branch offset mismatch",
            static_cast<unsigned long long>(BS.SeqStart)));
        continue;
      }
      const Instr *Br = instrAt(Off);
      Opcode Expected = BS.Kind == BranchKind::IndirectCall
                            ? Opcode::CallInd
                            : Opcode::JmpInd;
      if (!Br || Br->Op != Expected || Br->Ra != RegTarget) {
        error(formatString(
            "branch site at 0x%llx: terminal branch is not %s via r15",
            static_cast<unsigned long long>(BS.SeqStart),
            Expected == Opcode::CallInd ? "calli" : "jmpi"));
        continue;
      }
      setFlag(Off, CheckedBranch);
      SeqSpans.emplace_back(BS.SeqStart, Off + Br->Length);
    }
    indexSeqSpans();
  }

  //===--------------------------------------------------------------------===//
  // Jump tables: contents match the declaration, dispatch matches its
  // template
  //===--------------------------------------------------------------------===//

  /// Registers of the code generator's jump-table dispatch (mir/AsmGen).
  static constexpr uint8_t RegIndex = 6, RegBound = 7, RegEntry = 8;

  /// Verifies the dispatch that ends in \p JT's jmpi, as the code
  /// generator emits it:
  ///
  ///   movi r7, <entries>  ; cmpltu r7, r6, r7 ; jz r7, Default
  ///   movi r8, <table>    ; movi r7, 3        ; shl r6, r6, r7
  ///   add r8, r8, r6      ; load r8, [r8]     ; jmpi r8
  ///
  /// so the jmpi only ever reads an entry of the verified table at
  /// \p TableAddr. Only then does the jmpi count as checked. The span
  /// joins the check-sequence spans, so no direct branch enters it past
  /// its bounds check.
  void checkDispatch(const JumpTableInfo &JT, uint64_t TableAddr) {
    constexpr int32_t Before = 8; // instructions ahead of the jmpi
    int32_t K = Dis.indexAt(JT.JmpOffset);
    auto Mismatch = [&] {
      error(formatString("jump table dispatch at 0x%llx does not match the "
                         "template",
                         static_cast<unsigned long long>(JT.JmpOffset)));
    };
    if (K < Before) {
      Mismatch();
      return;
    }
    uint64_t Off = SeqStart = Dis.offsetOf(K - Before);
    uint64_t Entries = JT.Targets.size();
    if (!expect(Off, Opcode::MovImm,
                [&](const Instr &I) {
                  return I.Rd == RegBound && I.Imm == Entries;
                },
                "table bound") ||
        !expect(Off, Opcode::CmpLtU,
                [](const Instr &I) {
                  return I.Rd == RegBound && I.Ra == RegIndex &&
                         I.Rb == RegBound;
                },
                "bounds check") ||
        !expect(Off, Opcode::Jz,
                [](const Instr &I) { return I.Ra == RegBound; },
                "bounds branch") ||
        !expect(Off, Opcode::MovImm,
                [&](const Instr &I) {
                  return I.Rd == RegEntry && I.Imm == TableAddr;
                },
                "table address") ||
        !expect(Off, Opcode::MovImm,
                [](const Instr &I) {
                  return I.Rd == RegBound && I.Imm == 3;
                },
                "entry scale") ||
        !expect(Off, Opcode::Shl,
                [](const Instr &I) {
                  return I.Rd == RegIndex && I.Ra == RegIndex &&
                         I.Rb == RegBound;
                },
                "index scaling") ||
        !expect(Off, Opcode::Add,
                [](const Instr &I) {
                  return I.Rd == RegEntry && I.Ra == RegEntry &&
                         I.Rb == RegIndex;
                },
                "entry address") ||
        !expect(Off, Opcode::Load,
                [](const Instr &I) {
                  return I.Rd == RegEntry && I.Ra == RegEntry && I.Off == 0;
                },
                "entry load"))
      return;
    const Instr *Jmp = instrAt(Off);
    if (Off != JT.JmpOffset || Jmp->Ra != RegEntry) {
      Mismatch();
      return;
    }
    // The walk landed on the jmpi, so it visited the sweep's starts
    // K-8..K-1 and the bounds branch is K-6.
    setFlag(Off, CheckedBranch);
    setFlag(Dis.offsetOf(K - 6), DispatchExit);
    SeqSpans.emplace_back(SeqStart, Off + Jmp->Length);
  }

  void checkJumpTables() {
    for (const JumpTableInfo &JT : Obj.Aux.JumpTables) {
      const Instr *Jmp = instrAt(JT.JmpOffset);
      if (!Jmp || Jmp->Op != Opcode::JmpInd) {
        error(formatString("jump table: no jmpi at 0x%llx",
                           static_cast<unsigned long long>(JT.JmpOffset)));
        continue;
      }
      // Table entries must be the declared targets (stored as
      // *absolute* addresses after relocation: base + declared offset,
      // all within this module). The common base is recovered from the
      // first entry and must place every target inside the module.
      if (JT.Targets.empty()) {
        error("jump table with no targets");
        continue;
      }
      if (JT.TableOffset > Size ||
          JT.Targets.size() > (Size - JT.TableOffset) / 8) {
        error("jump table extends past the module");
        continue;
      }
      uint64_t First = 0;
      for (unsigned B = 0; B != 8; ++B)
        First |= static_cast<uint64_t>(Code[JT.TableOffset + B]) << (8 * B);
      if (First < JT.Targets[0]) {
        error("jump table entry below its declared target offset");
        continue;
      }
      uint64_t Base = First - JT.Targets[0];
      bool EntriesOk = true;
      for (size_t E = 0; EntriesOk && E != JT.Targets.size(); ++E) {
        uint64_t V = 0;
        for (unsigned B = 0; B != 8; ++B)
          V |= static_cast<uint64_t>(Code[JT.TableOffset + 8 * E + B])
               << (8 * B);
        if (V != Base + JT.Targets[E]) {
          error(formatString("jump table entry %zu at 0x%llx does not "
                             "match the declared target",
                             E,
                             static_cast<unsigned long long>(JT.TableOffset +
                                                             8 * E)));
          EntriesOk = false;
        } else if (JT.Targets[E] >= Size || !instrAt(JT.Targets[E])) {
          error(formatString("jump table target %zu (0x%llx) is not an "
                             "instruction boundary",
                             E,
                             static_cast<unsigned long long>(JT.Targets[E])));
          EntriesOk = false;
        }
      }
      if (EntriesOk)
        checkDispatch(JT, Base + JT.TableOffset);
    }
  }

  //===--------------------------------------------------------------------===//
  // Structural sweeps
  //===--------------------------------------------------------------------===//

  void checkBareRets() {
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if (I.Op == Opcode::Ret)
        error(formatString("bare ret at 0x%llx (must be rewritten)",
                           static_cast<unsigned long long>(Off)));
    });
  }

  static bool isDirectBranch(Opcode Op) {
    return Op == Opcode::Jmp || Op == Opcode::Jz || Op == Opcode::Jnz ||
           Op == Opcode::Call;
  }

  void checkDirectBranchBoundaries() {
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if (!isDirectBranch(I.Op))
        return;
      uint64_t Target = Off + I.Length + static_cast<int64_t>(I.Off);
      // Direct calls/jumps may leave the module (cross-module direct
      // calls after relocation); only intra-module targets are checked.
      if (Target >= Size)
        return;
      if (!instrAt(Target))
        error(formatString("direct branch at 0x%llx targets a non-boundary",
                           static_cast<unsigned long long>(Off)));
    });
  }

  void checkAlignment() {
    for (const FunctionInfo &F : Obj.Aux.Functions) {
      if (F.AddressTaken && (F.CodeOffset & 3))
        error("address-taken function '" + F.Name + "' is not 4-aligned");
    }
    for (const CallSiteInfo &CS : Obj.Aux.CallSites) {
      if (!CS.IsSetjmp && (CS.RetSiteOffset & 3))
        error(formatString("return site at 0x%llx is not 4-aligned",
                           static_cast<unsigned long long>(
                               CS.RetSiteOffset)));
    }
  }

  //===--------------------------------------------------------------------===//
  // Template sweeps
  //===--------------------------------------------------------------------===//

  void checkStrayIndirects() {
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if ((I.Op == Opcode::JmpInd || I.Op == Opcode::CallInd) &&
          !hasFlag(Off, CheckedBranch))
        error(formatString(
            "unchecked indirect branch at 0x%llx",
            static_cast<unsigned long long>(Off)));
    });
  }

  void checkStoreMasks() {
    uint64_t PrevOff = ~0ull;
    const Instr *Prev = nullptr;
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if (isStore(I.Op) && I.Rd != RegSP) {
        bool Masked = Prev && Prev->Op == Opcode::AndImm &&
                      Prev->Rd == I.Rd && Prev->Imm == 0xffffffffull &&
                      PrevOff + Prev->Length == Off;
        if (!Masked)
          error(formatString("unmasked memory write at 0x%llx",
                             static_cast<unsigned long long>(Off)));
        else
          setFlag(Off, MaskedStore);
      }
      PrevOff = Off;
      Prev = &I;
    });
  }

  /// Sorts SeqSpans by start and records each prefix's furthest end, so
  /// insideSeq is one binary search even if declared spans overlap.
  void indexSeqSpans() {
    std::sort(SeqSpans.begin(), SeqSpans.end());
    SeqMaxEnd.resize(SeqSpans.size());
    uint64_t MaxEnd = 0;
    for (size_t K = 0; K != SeqSpans.size(); ++K)
      SeqMaxEnd[K] = MaxEnd = std::max(MaxEnd, SeqSpans[K].second);
  }

  /// True if \p Off lies strictly inside some verified sequence span.
  bool insideSeq(uint64_t Off) const {
    // The spans starting before Off are a sorted prefix; one of them
    // holds Off iff the furthest end among them lies past it.
    auto It = std::lower_bound(
        SeqSpans.begin(), SeqSpans.end(), Off,
        [](const std::pair<uint64_t, uint64_t> &S, uint64_t O) {
          return S.first < O;
        });
    size_t N = static_cast<size_t>(It - SeqSpans.begin());
    return N != 0 && SeqMaxEnd[N - 1] > Off;
  }

  void checkDirectBranchEntries() {
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if (!isDirectBranch(I.Op))
        return;
      uint64_t Target = Off + I.Length + static_cast<int64_t>(I.Off);
      if (Target >= Size || !instrAt(Target))
        return;
      // A branch may not hop into the middle of a check transaction
      // unless it is itself part of that transaction (the retry path).
      // A dispatch's bounds branch leaves its sequence for an unverified
      // target, so it is held to the rule of an outside branch.
      if (insideSeq(Target) &&
          (!insideSeq(Off) || hasFlag(Off, DispatchExit))) {
        error(formatString("direct branch at 0x%llx enters a check "
                           "sequence",
                           static_cast<unsigned long long>(Off)));
      }
      // A branch may not target a masked store directly (bypassing the
      // mask).
      if (hasFlag(Target, MaskedStore)) {
        error(formatString("direct branch at 0x%llx bypasses a sandbox "
                           "mask",
                           static_cast<unsigned long long>(Off)));
      }
    });
  }

  const uint8_t *Code;
  size_t Size;
  const MCFIObject &Obj;
  VerifyResult Result;

  const Disassembly &Dis;
  std::vector<uint8_t> Flags; ///< per instruction: CheckedBranch | MaskedStore
  std::vector<std::pair<uint64_t, uint64_t>> SeqSpans;
  std::vector<uint64_t> SeqMaxEnd; ///< see indexSeqSpans
  uint64_t SeqStart = 0;
};

} // namespace

VerifyResult mcfi::verifyModule(const uint8_t *Code, size_t Size,
                                const MCFIObject &Obj,
                                const Disassembly &Dis) {
  assert(Dis.IndexByOff.size() == Size && "disassembly of other bytes");
  return VerifierImpl(Code, Size, Obj, Dis).run();
}

VerifyResult mcfi::verifyModule(const uint8_t *Code, size_t Size,
                                const MCFIObject &Obj) {
  return verifyModule(Code, Size, Obj, disassembleModule(Code, Size, Obj));
}
