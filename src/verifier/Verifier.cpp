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
#include <iterator>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

/// The little-endian 64-bit value at \p P.
uint64_t read64(const uint8_t *P) {
  uint64_t V = 0;
  for (unsigned B = 0; B != 8; ++B)
    V |= static_cast<uint64_t>(P[B]) << (8 * B);
  return V;
}

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
      // relocated fields, table contents, boundaries, alignment) the
      // template walk builds on.
      checkRelocations();
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
    checkFunctionEntries();
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
    RelocatedField = 8, ///< a relocation patches its immediate or rel32
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
  // Relocations: what a mapping may change
  //===--------------------------------------------------------------------===//

  static bool patchesCode(RelocKind K) {
    return K != RelocKind::None && K != RelocKind::DataFuncAddr64 &&
           K != RelocKind::DataGlobalAddr64;
  }

  /// Where a relocated field starts in its instruction: the rel32 of a
  /// call or jmp 1 byte in, the imm64 of a movi and the imm32 of a
  /// baryread 2 bytes in.
  static constexpr unsigned RelField = 1, ImmField = 2;

  /// True when \p K may patch the field of an instruction of opcode \p Op.
  static bool patchesField(RelocKind K, Opcode Op) {
    switch (K) {
    case RelocKind::CallSym:
      return Op == Opcode::Call || Op == Opcode::Jmp;
    case RelocKind::BaryIndex32:
      return Op == Opcode::BaryRead;
    default:
      return Op == Opcode::MovImm;
    }
  }

  static const char *fieldName(RelocKind K) {
    switch (K) {
    case RelocKind::CallSym:
      return "the rel32 of a call or jmp";
    case RelocKind::BaryIndex32:
      return "the imm32 of a baryread";
    case RelocKind::JumpTable64:
      return "a declared jump-table entry";
    default:
      return "the imm64 of a movi";
    }
  }

  /// True when \p Off starts an entry of a declared jump table.
  /// TableRanges is sorted by start; should declared tables overlap, only
  /// the last one starting at or before \p Off is tried, which can only
  /// refuse.
  bool isTableEntry(uint64_t Off) const {
    auto It = std::upper_bound(
        TableRanges.begin(), TableRanges.end(), Off,
        [](uint64_t O, const std::pair<uint64_t, uint64_t> &T) {
          return O < T.first;
        });
    return It != TableRanges.begin() && Off < std::prev(It)->second &&
           (Off - std::prev(It)->first) % 8 == 0;
  }

  /// Each code relocation covers exactly one field: the immediate of an
  /// instruction of the kind its RelocKind names, or one declared
  /// jump-table entry; and no two overlap. So no mapping changes an
  /// opcode or register byte: every mapping disassembles to the same
  /// instructions, which differ only in the fields listed here. Each
  /// covered instruction is flagged RelocatedField.
  void checkRelocations() {
    TableRanges = jumpTableRanges(Obj);
    CodeRelocs.reserve(Obj.Relocs.size());
    for (const RelocEntry &R : Obj.Relocs)
      if (patchesCode(R.Kind))
        CodeRelocs.emplace_back(R.Offset, &R);
    // The assembler emits them in offset order.
    if (!std::is_sorted(CodeRelocs.begin(), CodeRelocs.end()))
      std::sort(CodeRelocs.begin(), CodeRelocs.end());
    uint64_t End = 0;
    for (const auto &[Off, R] : CodeRelocs) {
      if (Off < End)
        error(formatString("relocation at 0x%llx overlaps another",
                           static_cast<unsigned long long>(Off)));
      uint64_t Width = relocWidth(R->Kind);
      End = Off > ~0ull - Width ? ~0ull : Off + Width;
      bool Covers;
      if (R->Kind == RelocKind::JumpTable64) {
        Covers = isTableEntry(Off);
      } else {
        unsigned At = R->Kind == RelocKind::CallSym ? RelField : ImmField;
        const Instr *I = Off < At ? nullptr : instrAt(Off - At);
        Covers = I && patchesField(R->Kind, I->Op);
        if (Covers)
          setFlag(Off - At, RelocatedField);
      }
      if (!Covers)
        error(formatString("relocation at 0x%llx does not cover %s",
                           static_cast<unsigned long long>(Off),
                           fieldName(R->Kind)));
    }
  }

  /// The code relocation whose field starts at \p Field, or null.
  const RelocEntry *relocAt(uint64_t Field) const {
    auto It = std::lower_bound(
        CodeRelocs.begin(), CodeRelocs.end(), Field,
        [](const std::pair<uint64_t, const RelocEntry *> &R, uint64_t F) {
          return R.first < F;
        });
    return It != CodeRelocs.end() && It->first == Field ? It->second
                                                        : nullptr;
  }

  /// The relocation patching the imm64 of the movi, or the imm32 of the
  /// baryread, at \p Off, or null.
  const RelocEntry *relocOf(uint64_t Off) const {
    return hasFlag(Off, RelocatedField) ? relocAt(Off + ImmField) : nullptr;
  }

  /// Fails the sequence when a relocation patches the immediate of the
  /// instruction at \p Off, which the template compared against a
  /// constant.
  bool unrelocated(uint64_t Off, const char *What) {
    if (!hasFlag(Off, RelocatedField))
      return true;
    error(formatString("check sequence at 0x%llx: relocation patches the "
                       "%s at 0x%llx",
                       static_cast<unsigned long long>(SeqStart), What,
                       static_cast<unsigned long long>(Off)));
    return false;
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

  /// Verifies the core of branch site \p Site's check transaction starting
  /// at \p Off (after the target register has been produced). On success,
  /// \p Off points at the final indirect branch and \p TryOff holds the
  /// retry target.
  bool matchCheckCore(uint64_t &Off, uint64_t &TryOff, uint64_t RetryTarget,
                      uint32_t Site) {
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
    // baryread r12, [idx], idx patched to this site's Bary index
    uint64_t BaryOff = Off;
    if (!expect(Off, Opcode::BaryRead,
                [](const Instr &I) { return I.Rd == RegBranchID; },
                "branch-ID read"))
      return false;
    const RelocEntry *Idx = relocOf(BaryOff);
    if (!Idx || Idx->SiteId != Site) {
      error(formatString("check sequence at 0x%llx: branch-ID read at "
                         "0x%llx does not read site %u's ID",
                         static_cast<unsigned long long>(SeqStart),
                         static_cast<unsigned long long>(BaryOff), Site));
      return false;
    }
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
    uint64_t ValidityOff = Off;
    if (!expect(Off, Opcode::MovImm,
                [](const Instr &I) { return I.Rd == RegIDDiff && I.Imm == 1; },
                "validity constant") ||
        !unrelocated(ValidityOff, "validity constant"))
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
    for (uint32_t Site = 0; Site != Obj.Aux.BranchSites.size(); ++Site) {
      const BranchSite &BS = Obj.Aux.BranchSites[Site];
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
               matchCheckCore(Off, TryOff, ~0ull, Site);
        break;
      case BranchKind::IndirectCall:
      case BranchKind::IndirectJump:
        // mov r15, rX
        Core = expect(Off, Opcode::Mov,
                      [](const Instr &I) { return I.Rd == RegTarget; },
                      "target staging move") &&
               matchCheckCore(Off, TryOff, ~0ull, Site);
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
               matchCheckCore(Off, TryOff, Reload, Site);
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
  /// \p TableAddr. The bound and the scale are the module's own
  /// constants, and the table address is relocated to the table (a
  /// CodeAddr64 whose addend is the table's offset), so every mapping
  /// dispatches through its own table. Only then does the jmpi count as
  /// checked. The span joins the check-sequence spans, so no direct
  /// branch enters it past its bounds check.
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
    // K-8..K-1: the bound is K-8, the bounds branch K-6, the table
    // address K-5 and the scale K-4.
    if (!unrelocated(Dis.offsetOf(K - 8), "table bound") ||
        !unrelocated(Dis.offsetOf(K - 4), "entry scale"))
      return;
    uint64_t AddrOff = Dis.offsetOf(K - 5);
    const RelocEntry *Addr = relocOf(AddrOff);
    if (!Addr || Addr->Kind != RelocKind::CodeAddr64 ||
        Addr->Addend != JT.TableOffset) {
      error(formatString("jump table dispatch at 0x%llx: the table address "
                         "at 0x%llx is not relocated to the table",
                         static_cast<unsigned long long>(SeqStart),
                         static_cast<unsigned long long>(AddrOff)));
      return;
    }
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
      // Table entries must be the declared targets. Each is relocated
      // to the module's code base plus its declared offset (a
      // JumpTable64 whose addend is the target), so the mapping at
      // Dis.Base stores Dis.Base + target, and the bytes read here must
      // say so: a table that agrees only with itself on some other base
      // is refused at its first entry.
      if (JT.Targets.empty()) {
        error("jump table with no targets");
        continue;
      }
      if (JT.TableOffset > Size ||
          JT.Targets.size() > (Size - JT.TableOffset) / 8) {
        error("jump table extends past the module");
        continue;
      }
      // An instruction running into the table would share bytes the
      // entries' relocations patch.
      for (uint64_t S = JT.TableOffset; S != 0 && JT.TableOffset - S < 10;) {
        const Instr *I = instrAt(--S);
        if (!I)
          continue;
        if (S + I->Length > JT.TableOffset)
          error(formatString("instruction at 0x%llx runs into the jump "
                             "table at 0x%llx",
                             static_cast<unsigned long long>(S),
                             static_cast<unsigned long long>(JT.TableOffset)));
        break;
      }
      bool EntriesOk = true;
      for (size_t E = 0; EntriesOk && E != JT.Targets.size(); ++E) {
        uint64_t EntryOff = JT.TableOffset + 8 * E;
        const RelocEntry *R = relocAt(EntryOff);
        if (!R || R->Kind != RelocKind::JumpTable64 ||
            R->Addend != JT.Targets[E]) {
          error(formatString("jump table entry %zu at 0x%llx is not "
                             "relocated to its declared target",
                             E, static_cast<unsigned long long>(EntryOff)));
          EntriesOk = false;
        } else if (read64(Code + EntryOff) != Dis.Base + JT.Targets[E]) {
          error(formatString("jump table entry %zu at 0x%llx does not "
                             "hold the module's base plus its target",
                             E, static_cast<unsigned long long>(EntryOff)));
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
        checkDispatch(JT, Dis.Base + JT.TableOffset);
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

  /// True for a call or jmp whose rel32 a CallSym relocation patches.
  /// The linker binds it to a function entry of some module or to a PLT
  /// entry, both declared functions (checkFunctionEntries holds every
  /// module's), so its displacement is never read.
  bool boundByLinker(uint64_t Off, const Instr &I) const {
    return (I.Op == Opcode::Call || I.Op == Opcode::Jmp) &&
           hasFlag(Off, RelocatedField);
  }

  /// Every other direct branch stays inside its module and lands on an
  /// instruction start.
  void checkDirectBranchBoundaries() {
    forEachInstr([&](uint64_t Off, const Instr &I) {
      if (!isDirectBranch(I.Op) || boundByLinker(Off, I))
        return;
      uint64_t Target = Off + I.Length + static_cast<int64_t>(I.Off);
      if (Target >= Size)
        error(formatString("direct branch at 0x%llx leaves the module",
                           static_cast<unsigned long long>(Off)));
      else if (!instrAt(Target))
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
      if (!isDirectBranch(I.Op) || boundByLinker(Off, I))
        return;
      uint64_t Target = Off + I.Length + static_cast<int64_t>(I.Off);
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

  /// A CallSym branch of any module may land on any declared function
  /// entry, so each must be a safe landing site: an instruction start,
  /// not strictly inside a check or dispatch span, and not a store past
  /// its mask.
  void checkFunctionEntries() {
    for (const FunctionInfo &F : Obj.Aux.Functions) {
      const char *Why = !instrAt(F.CodeOffset) ? "is not an instruction start"
                        : insideSeq(F.CodeOffset)
                            ? "lies inside a check sequence"
                        : hasFlag(F.CodeOffset, MaskedStore)
                            ? "bypasses a sandbox mask"
                            : nullptr;
      if (Why)
        error(formatString("function '%s' entry at 0x%llx %s",
                           F.Name.c_str(),
                           static_cast<unsigned long long>(F.CodeOffset),
                           Why));
    }
  }

  const uint8_t *Code;
  size_t Size;
  const MCFIObject &Obj;
  VerifyResult Result;

  const Disassembly &Dis;
  std::vector<uint8_t> Flags; ///< per instruction: the flags above
  std::vector<std::pair<uint64_t, uint64_t>> SeqSpans;
  std::vector<uint64_t> SeqMaxEnd; ///< see indexSeqSpans
  /// Code relocations by offset, and the declared tables' byte ranges
  /// by start.
  std::vector<std::pair<uint64_t, const RelocEntry *>> CodeRelocs;
  std::vector<std::pair<uint64_t, uint64_t>> TableRanges;
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
  // The base the bytes were relocated at, as the first table entry
  // names it; every entry is then checked against that base.
  uint64_t Base = 0;
  if (!Obj.Aux.JumpTables.empty()) {
    const JumpTableInfo &JT = Obj.Aux.JumpTables.front();
    if (!JT.Targets.empty() && JT.TableOffset <= Size &&
        Size - JT.TableOffset >= 8)
      Base = read64(Code + JT.TableOffset) - JT.Targets[0];
  }
  return verifyModule(Code, Size, Obj,
                      disassembleModule(Code, Size, Obj, Base));
}
