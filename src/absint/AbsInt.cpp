//===- absint/AbsInt.cpp - Semantic CFI/SFI proof engine ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "absint/AbsInt.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace mcfi;
using namespace mcfi::visa;
using namespace mcfi::absint;

namespace {

unsigned long long hex(uint64_t V) {
  return static_cast<unsigned long long>(V);
}

/// Deterministic token mints. Transfer-time tokens live in the low space
/// (block << 32 | counter); join re-mints, widening snaps, and entry
/// seeds each get a tagged space of their own so no two sources can ever
/// collide.
uint64_t transferBase(uint32_t Blk) { return uint64_t(Blk) << 32; }
uint64_t joinTok(uint32_t Blk, unsigned Slot) {
  return (1ull << 63) | (uint64_t(Blk) << 32) | Slot;
}
uint64_t entryTok(uint32_t Blk, unsigned Slot) {
  return (1ull << 62) | (uint64_t(Blk) << 32) | Slot;
}
uint64_t widenTok(uint32_t Blk, unsigned Slot) {
  return (1ull << 61) | (uint64_t(Blk) << 32) | Slot;
}

struct Minter {
  uint64_t Base;
  uint64_t Ctr = 1;
  explicit Minter(uint32_t Blk) : Base(transferBase(Blk)) {}
  uint64_t mint() { return Base | Ctr++; }
};

/// Kinds whose Ref field names another value (and must be killed when
/// that value's token is redefined).
bool refBearing(VK K) {
  switch (K) {
  case VK::TargetID:
  case VK::DiffFull:
  case VK::ValidBit:
  case VK::DiffVer:
  case VK::BoundsFlag:
    return true;
  default:
    return false;
  }
}

struct Block {
  uint64_t Begin = 0;
  uint64_t End = 0;     ///< one past the last instruction byte
  uint64_t LastOff = 0; ///< offset of the last instruction
  /// The bytes after End are not an instruction boundary (jump-table
  /// data or end of module): there is no fall-through successor.
  bool FallsOff = false;
};

enum class EdgeKind : uint8_t { Fall, Jump, CondTaken, CondFall };

class Engine {
public:
  Engine(const uint8_t *Code, size_t Size, const MCFIObject &Obj,
         const Disassembly &Dis, const AbsIntOptions &Opts)
      : Code(Code), Size(Size), Obj(Obj), Dis(Dis), Opts(Opts) {
    (void)this->Code;
  }

  SemanticResult run() {
    indexAux();
    buildBlocks();
    Result.Blocks = Blocks.size();
    if (!runFixpoint())
      return std::move(Result); // non-convergence is a reject
    finalPass();
    checkAllSitesProven();
    if (Opts.CollectBlockDump)
      dump();
    return std::move(Result);
  }

private:
  void error(const std::string &Msg) {
    Result.Ok = false;
    Result.Errors.push_back(Msg);
  }

  //===------------------------------------------------------------------===//
  // Aux indexing and CFG recovery
  //===------------------------------------------------------------------===//

  void indexAux() {
    for (size_t I = 0; I != Obj.Aux.BranchSites.size(); ++I)
      SiteAt.emplace(Obj.Aux.BranchSites[I].BranchOffset,
                     static_cast<uint32_t>(I));
    for (const JumpTableInfo &JT : Obj.Aux.JumpTables) {
      JTAt.emplace(JT.JmpOffset, &JT);
      TableOffsets.insert(JT.TableOffset);
    }
    for (const RelocEntry &RE : Obj.Relocs)
      RelocAt.emplace(RE.Offset, &RE);
  }

  bool boundary(uint64_t Off) const { return Dis.indexAt(Off) >= 0; }

  const Instr &instrAt(uint64_t Off) const {
    const Instr *I = Dis.at(Off);
    assert(I && "not an instruction boundary");
    return *I;
  }

  static bool endsBlock(Opcode Op) {
    switch (Op) {
    case Opcode::Jmp:
    case Opcode::Jz:
    case Opcode::Jnz:
    case Opcode::JmpInd:
    case Opcode::Ret:
    case Opcode::Halt:
      return true;
    default:
      return false;
    }
  }

  void buildBlocks() {
    // Analysis roots: every offset where control can materialize with an
    // arbitrary machine state — function entries (direct and indirect
    // calls from other modules, signal handlers), return sites (return
    // dispatches, longjmp), and intra-module direct-call targets.
    std::set<uint64_t> RootSet;
    for (const FunctionInfo &F : Obj.Aux.Functions) {
      if (boundary(F.CodeOffset))
        RootSet.insert(F.CodeOffset);
      else
        error(formatString("function '%s' entry 0x%llx is not an "
                           "instruction boundary",
                           F.Name.c_str(), hex(F.CodeOffset)));
    }
    for (const CallSiteInfo &CS : Obj.Aux.CallSites) {
      if (boundary(CS.RetSiteOffset))
        RootSet.insert(CS.RetSiteOffset);
      else
        error(formatString("return site 0x%llx is not an instruction "
                           "boundary",
                           hex(CS.RetSiteOffset)));
    }
    // Declared check sequences are roots as well: the transaction proves
    // its dispatch from a completely unknown entry state (that is its
    // whole point), and a sequence in dead code — an epilogue behind an
    // unconditional tail call, say — must still be provable rather than
    // flagged as never reached.
    for (const BranchSite &BS : Obj.Aux.BranchSites)
      if (boundary(BS.SeqStart))
        RootSet.insert(BS.SeqStart);

    // Leaders: roots, direct-branch targets, and declared jump-table
    // targets. (Direct-branch targets are *not* roots: they are reached
    // through CFG edges with the flowing state, which is what makes
    // check-pass edges provable.)
    std::set<uint64_t> Leaders = RootSet;
    for (size_t K = 0; K != Dis.Instrs.size(); ++K) {
      uint64_t Off = Dis.offsetOf(K);
      const Instr &I = Dis.Instrs[K].I;
      switch (I.Op) {
      case Opcode::Jmp:
      case Opcode::Jz:
      case Opcode::Jnz:
      case Opcode::Call: {
        uint64_t T = Off + I.Length + static_cast<int64_t>(I.Off);
        if (T < Size && boundary(T)) {
          Leaders.insert(T);
          if (I.Op == Opcode::Call)
            RootSet.insert(T);
        }
        break;
      }
      default:
        break;
      }
    }
    for (const JumpTableInfo &JT : Obj.Aux.JumpTables)
      for (uint64_t T : JT.Targets)
        if (T < Size && boundary(T))
          Leaders.insert(T);

    // Partition the disassembly into maximal blocks.
    uint64_t Begin = ~0ull;
    for (size_t K = 0; K != Dis.Instrs.size(); ++K) {
      uint64_t Off = Dis.offsetOf(K);
      const Instr &I = Dis.Instrs[K].I;
      if (Begin == ~0ull)
        Begin = Off;
      uint64_t Next = Off + I.Length;
      bool Contig = Dis.Instrs[K].Fall >= 0;
      if (!endsBlock(I.Op) && Contig && !Leaders.count(Next))
        continue;
      Block B;
      B.Begin = Begin;
      B.End = Next;
      B.LastOff = Off;
      B.FallsOff = !Contig;
      BlockAt.emplace(Begin, static_cast<uint32_t>(Blocks.size()));
      Blocks.push_back(B);
      Begin = ~0ull;
    }

    // Static successor edges.
    Succs.resize(Blocks.size());
    for (uint32_t BI = 0; BI != Blocks.size(); ++BI) {
      const Block &B = Blocks[BI];
      const Instr &Last = instrAt(B.LastOff);
      auto addEdge = [&](uint64_t T, EdgeKind K) {
        auto It = BlockAt.find(T);
        if (It != BlockAt.end())
          Succs[BI].emplace_back(It->second, K);
      };
      uint64_t T = B.LastOff + Last.Length + static_cast<int64_t>(Last.Off);
      switch (Last.Op) {
      case Opcode::Jmp:
        if (T < Size)
          addEdge(T, EdgeKind::Jump);
        break;
      case Opcode::Jz:
      case Opcode::Jnz:
        if (T < Size)
          addEdge(T, EdgeKind::CondTaken);
        if (!B.FallsOff)
          addEdge(B.End, EdgeKind::CondFall);
        break;
      case Opcode::JmpInd:
        // A declared jump-table dispatch has statically known targets;
        // a checked dispatch targets some declared IBT, which is an
        // analysis root of its own.
        if (auto It = JTAt.find(B.LastOff); It != JTAt.end())
          for (uint64_t JT : It->second->Targets)
            addEdge(JT, EdgeKind::Jump);
        break;
      case Opcode::Ret:
      case Opcode::Halt:
        break;
      default:
        if (!B.FallsOff)
          addEdge(B.End, EdgeKind::Fall);
        break;
      }
    }

    for (uint64_t R : RootSet)
      if (auto It = BlockAt.find(R); It != BlockAt.end())
        Roots.push_back(It->second);
    std::sort(Roots.begin(), Roots.end());
    Roots.erase(std::unique(Roots.begin(), Roots.end()), Roots.end());
    Result.Entries = Roots.size();
  }

  //===------------------------------------------------------------------===//
  // Transfer functions
  //===------------------------------------------------------------------===//

  void killTok(AbsState &S, uint64_t T, unsigned ExceptReg, Minter &M) {
    for (unsigned R = 0; R != NumRegs; ++R) {
      if (R == ExceptReg)
        continue;
      AbsVal &O = S.Regs[R];
      if (O.Tok == T || (refBearing(O.K) && O.Ref == T))
        O = AbsVal::top(M.mint());
    }
    for (auto &[K, O] : S.Stack) {
      (void)K;
      if (O.Tok == T || (refBearing(O.K) && O.Ref == T))
        O = AbsVal::top(M.mint());
    }
  }

  /// Writes \p V to register \p R. FreshDef means V's token was minted by
  /// this instruction: any other location still carrying that token (a
  /// loop-carried value from a previous iteration of this block) holds a
  /// *different* runtime value now and is demoted, as is every relational
  /// fact about it.
  void setReg(AbsState &S, unsigned R, const AbsVal &V, bool FreshDef,
              Minter &M) {
    if (FreshDef)
      killTok(S, V.Tok, R, M);
    S.Regs[R] = V;
  }

  void havocRegs(AbsState &S, Minter &M) {
    for (unsigned R = 0; R != NumRegs; ++R)
      S.Regs[R] = AbsVal::top(M.mint());
  }

  /// Error sink for the final (collection) pass; null during fixpoint.
  struct Collector {
    Engine &E;
    uint32_t BlockIdx;
  };

  void transferInstr(AbsState &S, uint64_t Off, const Instr &I, Minter &M,
                     Collector *C) {
    switch (I.Op) {
    case Opcode::MovImm: {
      AbsVal V;
      if (auto It = RelocAt.find(Off + 2); It != RelocAt.end()) {
        const RelocEntry *RE = It->second;
        if (RE->Kind == RelocKind::CodeAddr64 &&
            TableOffsets.count(RE->Addend))
          V = {VK::TableBase, M.mint(), 0, RE->Addend, NoSite};
        else
          V = AbsVal::top(M.mint()); // runtime-patched absolute address
      } else {
        V = AbsVal::constant(M.mint(), I.Imm);
      }
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Mov:
      setReg(S, I.Rd, S.Regs[I.Ra], false, M);
      break;
    case Opcode::AndImm: {
      const AbsVal Cur = S.Regs[I.Rd];
      if (I.Imm == 0xffffffffull && maskedIsh(Cur))
        break; // the mask is the identity on an already-sandboxed value
      AbsVal V;
      if (I.Imm == 0xffffull && Cur.K == VK::DiffFull)
        V = {VK::DiffVer, M.mint(), Cur.Ref, 0, Cur.Site};
      else if (I.Imm <= 0xffffffffull)
        V = AbsVal::masked(M.mint());
      else
        V = AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::AddImm: {
      if (I.Rd == RegSP) {
        if (S.SpKnown) {
          int64_t Old = S.SpDelta;
          S.SpDelta += I.Off;
          // Slots below the stack pointer are dead; slots inside a fresh
          // allocation hold garbage. Either way the facts are gone.
          S.Stack.erase(
              std::remove_if(S.Stack.begin(), S.Stack.end(),
                             [&](const auto &P) {
                               return P.first < std::max(Old, S.SpDelta) &&
                                      P.first >= std::min(Old, S.SpDelta);
                             }),
              S.Stack.end());
          if (I.Off > 0)
            S.Stack.erase(std::remove_if(S.Stack.begin(), S.Stack.end(),
                                         [&](const auto &P) {
                                           return P.first < S.SpDelta;
                                         }),
                          S.Stack.end());
        }
        break;
      }
      const AbsVal Cur = S.Regs[I.Rd];
      AbsVal V = Cur.K == VK::Const
                     ? AbsVal::constant(
                           M.mint(), Cur.Aux + static_cast<int64_t>(I.Off))
                     : AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Load: {
      if (I.Ra == RegSP && S.SpKnown) {
        if (const AbsVal *Slot = S.slot(S.SpDelta + I.Off)) {
          setReg(S, I.Rd, *Slot, false, M);
          break;
        }
        setReg(S, I.Rd, AbsVal::top(M.mint()), true, M);
        break;
      }
      const AbsVal Base = S.Regs[I.Ra];
      AbsVal V = Base.K == VK::TableSlot && I.Off == 0
                     ? AbsVal{VK::JTTarget, M.mint(), 0, Base.Aux, Base.Site}
                     : AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Load8:
    case Opcode::Load16:
    case Opcode::Load32:
      setReg(S, I.Rd, AbsVal::masked(M.mint()), true, M); // zero-extended
      break;
    case Opcode::Store:
    case Opcode::Store8:
    case Opcode::Store16:
    case Opcode::Store32: {
      if (I.Rd == RegSP) {
        if (S.SpKnown) {
          int64_t Key = S.SpDelta + I.Off;
          if (I.Op == Opcode::Store)
            S.setSlot(Key, S.Regs[I.Ra]);
          else
            S.dropSlot(Key); // partial overwrite invalidates the fact
        }
        break;
      }
      if (C && !maskedIsh(S.Regs[I.Rd]))
        violation(*C, Off,
                  formatString("unproven store at 0x%llx: %s; address r%u "
                               "= %s on some path",
                               hex(Off), printInstr(I).c_str(),
                               unsigned(I.Rd),
                               printVal(S.Regs[I.Rd]).c_str()));
      // A sandboxed store may still hit the stack region: spilled facts
      // are no longer trustworthy.
      S.havocStack();
      break;
    }
    case Opcode::Add: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      AbsVal V = AbsVal::top(M.mint());
      const AbsVal *TB = A.K == VK::TableBase ? &A
                         : B.K == VK::TableBase ? &B
                                                : nullptr;
      const AbsVal *SC = A.K == VK::ScaledIdx ? &A
                         : B.K == VK::ScaledIdx ? &B
                                                : nullptr;
      if (TB && SC && SC->Aux <= 0xffffffffull)
        V = {VK::TableSlot, M.mint(), 0, TB->Aux,
             static_cast<uint32_t>(SC->Aux)};
      else if (A.K == VK::Const && B.K == VK::Const)
        V = AbsVal::constant(M.mint(), A.Aux + B.Aux);
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Sub: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      AbsVal V = A.K == VK::Const && B.K == VK::Const
                     ? AbsVal::constant(M.mint(), A.Aux - B.Aux)
                     : AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::And: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      AbsVal V;
      if (A.K == VK::Const && A.Aux == 1 && B.K == VK::TargetID)
        V = {VK::ValidBit, M.mint(), B.Ref, 0, NoSite};
      else if (B.K == VK::Const && B.Aux == 1 && A.K == VK::TargetID)
        V = {VK::ValidBit, M.mint(), A.Ref, 0, NoSite};
      else if (maskedIsh(A) || maskedIsh(B))
        V = AbsVal::masked(M.mint()); // and() cannot exceed either operand
      else
        V = AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Xor: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      const AbsVal *BID = A.K == VK::BranchID ? &A
                          : B.K == VK::BranchID ? &B
                                                : nullptr;
      const AbsVal *TID = A.K == VK::TargetID ? &A
                          : B.K == VK::TargetID ? &B
                                                : nullptr;
      AbsVal V;
      if (BID && TID)
        V = {VK::DiffFull, M.mint(), TID->Ref, 0, BID->Site};
      else if (maskedIsh(A) && maskedIsh(B))
        V = AbsVal::masked(M.mint());
      else
        V = AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::Shl: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      AbsVal V = A.K == VK::BoundedIdx && B.K == VK::Const && B.Aux == 3
                     ? AbsVal{VK::ScaledIdx, M.mint(), 0, A.Aux, NoSite}
                     : AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::CmpLtU: {
      const AbsVal A = S.Regs[I.Ra], B = S.Regs[I.Rb];
      AbsVal V = B.K == VK::Const
                     ? AbsVal{VK::BoundsFlag, M.mint(), A.Tok, B.Aux, NoSite}
                     : AbsVal::masked(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLtS:
    case Opcode::CmpLeS:
    case Opcode::CmpLeU:
      setReg(S, I.Rd, AbsVal::masked(M.mint()), true, M); // 0 or 1
      break;
    case Opcode::Mul:
    case Opcode::DivS:
    case Opcode::ModS:
    case Opcode::Or:
    case Opcode::ShrL:
    case Opcode::ShrA:
      setReg(S, I.Rd, AbsVal::top(M.mint()), true, M);
      break;
    case Opcode::Neg:
    case Opcode::Not:
      setReg(S, I.Rd, AbsVal::top(M.mint()), true, M);
      break;
    case Opcode::TableRead: {
      const AbsVal A = S.Regs[I.Ra];
      AbsVal V = maskedIsh(A)
                     ? AbsVal{VK::TargetID, M.mint(), A.Tok, 0, NoSite}
                     : AbsVal::top(M.mint());
      setReg(S, I.Rd, V, true, M);
      break;
    }
    case Opcode::BaryRead: {
      uint32_t Site = NoSite;
      if (auto It = RelocAt.find(Off + 2);
          It != RelocAt.end() && It->second->Kind == RelocKind::BaryIndex32)
        Site = It->second->SiteId;
      setReg(S, I.Rd, {VK::BranchID, M.mint(), 0, 0, Site}, true, M);
      break;
    }
    case Opcode::Push:
      if (S.SpKnown) {
        S.SpDelta -= 8;
        S.setSlot(S.SpDelta, S.Regs[I.Ra]);
      }
      break;
    case Opcode::Pop: {
      AbsVal V = AbsVal::top(M.mint());
      bool Fresh = true;
      if (S.SpKnown) {
        if (const AbsVal *Slot = S.slot(S.SpDelta)) {
          V = *Slot;
          Fresh = false;
        }
        S.dropSlot(S.SpDelta);
        S.SpDelta += 8;
      }
      setReg(S, I.Rd, V, Fresh, M);
      break;
    }
    case Opcode::Syscall:
      setReg(S, RegRet, AbsVal::top(M.mint()), true, M);
      S.havocStack(); // runtime services may write guest memory
      break;
    case Opcode::Call:
      havocRegs(S, M);
      S.havocStack(); // callee owns the frame while we are suspended
      break;
    case Opcode::CallInd:
      if (C)
        checkDispatch(S, Off, I, *C);
      havocRegs(S, M);
      S.havocStack();
      break;
    case Opcode::JmpInd:
      if (C)
        checkDispatch(S, Off, I, *C);
      break;
    case Opcode::Ret:
      if (C)
        violation(*C, Off,
                  formatString("bare ret at 0x%llx reaches execution",
                               hex(Off)));
      break;
    case Opcode::Jmp:
    case Opcode::Jz:
    case Opcode::Jnz:
    case Opcode::Nop:
    case Opcode::Halt:
    case Opcode::Invalid:
      break;
    }
  }

  /// Path-sensitive refinement on a conditional edge: \p Cond is the
  /// tested register's value, \p IsZero whether this edge is the cond==0
  /// side.
  void refine(AbsState &S, const AbsVal &Cond, bool IsZero) {
    auto eachLoc = [&](auto &&F) {
      for (unsigned R = 0; R != NumRegs; ++R)
        F(S.Regs[R]);
      for (auto &[K, V] : S.Stack) {
        (void)K;
        F(V);
      }
    };
    if (Cond.K == VK::DiffFull && IsZero) {
      // Bary ID == Tary ID for the value named Cond.Ref: every live copy
      // of that value is now checked for Cond's branch site.
      eachLoc([&](AbsVal &V) {
        if (V.Tok == Cond.Ref && maskedIsh(V))
          V = {VK::Checked, V.Tok, 0, 0, Cond.Site};
      });
    } else if (Cond.K == VK::BoundsFlag && !IsZero &&
               Cond.Aux <= 0xffffffffull) {
      eachLoc([&](AbsVal &V) {
        if (V.Tok == Cond.Ref)
          V = {VK::BoundedIdx, V.Tok, 0, Cond.Aux, NoSite};
      });
    }
  }

  //===------------------------------------------------------------------===//
  // Invariant checks (final pass)
  //===------------------------------------------------------------------===//

  std::string witness(uint32_t BlockIdx) const {
    std::vector<uint64_t> Path;
    for (int32_t B = static_cast<int32_t>(BlockIdx);
         B >= 0 && Path.size() < 64; B = Pred[B])
      Path.push_back(Blocks[B].Begin);
    std::reverse(Path.begin(), Path.end());
    std::string S = "; path:";
    size_t First = Path.size() > 12 ? Path.size() - 12 : 0;
    if (First)
      S += " ...";
    for (size_t I = First; I != Path.size(); ++I)
      S += formatString(" 0x%llx", hex(Path[I]));
    return S;
  }

  void violation(Collector &C, uint64_t Off, const std::string &Msg) {
    (void)Off;
    error(Msg + witness(C.BlockIdx));
  }

  void checkDispatch(AbsState &S, uint64_t Off, const Instr &I,
                     Collector &C) {
    const AbsVal &V = S.Regs[I.Ra];
    if (auto It = JTAt.find(Off); It != JTAt.end()) {
      const JumpTableInfo *JT = It->second;
      if (V.K == VK::JTTarget && V.Aux == JT->TableOffset &&
          V.Site <= JT->Targets.size()) {
        Proven[Off] = true;
        return;
      }
      Proven.emplace(Off, false);
      violation(C, Off,
                formatString("jump-table dispatch at 0x%llx not dominated "
                             "by an in-bounds table load: r%u = %s",
                             hex(Off), unsigned(I.Ra),
                             printVal(V).c_str()));
      return;
    }
    auto It = SiteAt.find(Off);
    if (It == SiteAt.end()) {
      violation(C, Off,
                formatString("indirect branch at 0x%llx has no declared "
                             "branch site",
                             hex(Off)));
      return;
    }
    if (V.K == VK::Checked && V.Site == It->second) {
      Proven[Off] = true;
      return;
    }
    Proven.emplace(Off, false);
    violation(C, Off,
              formatString("dispatch at 0x%llx not proven: r%u = %s, "
                           "needs an unbroken check for site %u",
                           hex(Off), unsigned(I.Ra), printVal(V).c_str(),
                           unsigned(It->second)));
  }

  void checkAllSitesProven() {
    // A declared site whose dispatch the fixpoint never reached (or
    // never reached with a provable state) is a lie in the aux info or
    // dead instrumentation; both void the module's safety story.
    for (const BranchSite &BS : Obj.Aux.BranchSites) {
      auto It = Proven.find(BS.BranchOffset);
      if (It == Proven.end())
        error(formatString("declared branch site at 0x%llx: dispatch "
                           "never reached by the analysis",
                           hex(BS.BranchOffset)));
    }
    for (const JumpTableInfo &JT : Obj.Aux.JumpTables) {
      auto It = Proven.find(JT.JmpOffset);
      if (It == Proven.end())
        error(formatString("declared jump table at 0x%llx: dispatch "
                           "never reached by the analysis",
                           hex(JT.JmpOffset)));
    }
  }

  //===------------------------------------------------------------------===//
  // Fixpoint
  //===------------------------------------------------------------------===//

  /// Runs the whole block, returning the per-edge out states.
  std::vector<std::pair<uint32_t, AbsState>>
  transferBlock(uint32_t BI, AbsState S, Collector *C) {
    const Block &B = Blocks[BI];
    Minter M(BI);
    // A block is a run of contiguous instructions: consecutive indices.
    for (size_t K = static_cast<size_t>(Dis.indexAt(B.Begin));
         K != Dis.Instrs.size() && Dis.offsetOf(K) < B.End; ++K)
      transferInstr(S, Dis.offsetOf(K), Dis.Instrs[K].I, M, C);
    std::vector<std::pair<uint32_t, AbsState>> Out;
    const Instr &Last = instrAt(B.LastOff);
    for (const auto &[SuccIdx, Kind] : Succs[BI]) {
      AbsState E = S;
      if (Kind == EdgeKind::CondTaken || Kind == EdgeKind::CondFall) {
        bool TakenIsZero = Last.Op == Opcode::Jz;
        bool IsZero =
            Kind == EdgeKind::CondTaken ? TakenIsZero : !TakenIsZero;
        refine(E, S.Regs[Last.Ra], IsZero);
      }
      Out.emplace_back(SuccIdx, std::move(E));
    }
    return Out;
  }

  AbsState entryState(uint32_t BI) {
    AbsState S;
    S.Reachable = true;
    for (unsigned R = 0; R != NumRegs; ++R)
      S.Regs[R] = AbsVal::top(entryTok(BI, R));
    return S;
  }

  AbsState joinState(const AbsState &A, const AbsState &B, uint32_t Blk) {
    AbsState R;
    R.Reachable = true;
    JoinCtx Ctx;
    std::unordered_set<uint64_t> Minted;
    std::vector<uint64_t> StackOwn;
    for (unsigned Reg = 0; Reg != NumRegs; ++Reg) {
      bool M = false;
      R.Regs[Reg] = joinVal(A.Regs[Reg], B.Regs[Reg], Ctx,
                            joinTok(Blk, Reg), M);
      if (M)
        Minted.insert(joinTok(Blk, Reg));
    }
    if (A.SpKnown && B.SpKnown && A.SpDelta == B.SpDelta) {
      R.SpKnown = true;
      R.SpDelta = A.SpDelta;
      unsigned Idx = 0;
      for (const auto &[Key, VA] : A.Stack) {
        uint64_t MT = joinTok(Blk, 32 + Idx++);
        const AbsVal *VB = B.slot(Key);
        if (!VB)
          continue;
        bool M = false;
        AbsVal J = joinVal(VA, *VB, Ctx, MT, M);
        if (M)
          Minted.insert(MT);
        if (J.K != VK::Top) {
          R.Stack.emplace_back(Key, J);
          StackOwn.push_back(MT);
        }
      }
    } else {
      R.SpKnown = false;
      R.SpDelta = 0;
    }
    if (!Minted.empty()) {
      // A re-minted token names a *merged* value. Any location carrying
      // the same token without being the location that minted it is a
      // stale copy from a previous visit of this join point, and any
      // relational fact about a re-minted token speaks about the old
      // incarnation. Both are demoted.
      unsigned Kill = 0;
      auto sweep = [&](AbsVal &V, uint64_t Own) {
        if ((Minted.count(V.Tok) && V.Tok != Own) ||
            (refBearing(V.K) && Minted.count(V.Ref)))
          V = AbsVal::top(joinTok(Blk, 64 + Kill++));
      };
      for (unsigned Reg = 0; Reg != NumRegs; ++Reg)
        sweep(R.Regs[Reg], joinTok(Blk, Reg));
      for (size_t I = 0; I != R.Stack.size(); ++I)
        sweep(R.Stack[I].second, StackOwn[I]);
    }
    return R;
  }

  /// Widening backstop: after too many in-state updates, snap every
  /// still-changing location of \p New (vs \p Old) to Top with a fixed
  /// token so the next join is a no-op.
  AbsState widen(const AbsState &Old, AbsState New, uint32_t Blk) {
    for (unsigned R = 0; R != NumRegs; ++R)
      if (New.Regs[R] != Old.Regs[R])
        New.Regs[R] = AbsVal::top(widenTok(Blk, R));
    if (!(New.SpKnown == Old.SpKnown && New.SpDelta == Old.SpDelta)) {
      New.SpKnown = false;
      New.SpDelta = 0;
      New.Stack.clear();
    }
    if (New.Stack != Old.Stack)
      New.Stack.clear();
    return New;
  }

  bool runFixpoint() {
    size_t N = Blocks.size();
    In.resize(N);
    Pred.assign(N, -1);
    Updates.assign(N, 0);
    std::deque<uint32_t> WL;
    std::vector<uint8_t> InWL(N, 0);
    for (uint32_t R : Roots) {
      In[R] = joinSeed(In[R], entryState(R), R);
      if (!InWL[R]) {
        WL.push_back(R);
        InWL[R] = 1;
      }
    }
    uint64_t MaxIters =
        Opts.MaxIters ? Opts.MaxIters
                      : std::max<uint64_t>(1024, uint64_t(N) * 256);
    while (!WL.empty()) {
      if (++Result.FixpointIters > MaxIters) {
        error(formatString("fixpoint did not converge after %llu "
                           "iterations",
                           hex(MaxIters)));
        return false;
      }
      uint32_t BI = WL.front();
      WL.pop_front();
      InWL[BI] = 0;
      for (auto &[Succ, St] : transferBlock(BI, In[BI], nullptr)) {
        bool Changed = false;
        if (!In[Succ].Reachable) {
          In[Succ] = std::move(St);
          Pred[Succ] = static_cast<int32_t>(BI);
          Changed = true;
        } else {
          AbsState New = joinState(In[Succ], St, Succ);
          if (!(New == In[Succ])) {
            if (++Updates[Succ] > Opts.WidenUpdates)
              New = widen(In[Succ], std::move(New), Succ);
            if (!(New == In[Succ])) {
              In[Succ] = std::move(New);
              Changed = true;
            }
          }
        }
        if (Changed && !InWL[Succ]) {
          WL.push_back(Succ);
          InWL[Succ] = 1;
        }
      }
    }
    return true;
  }

  AbsState joinSeed(const AbsState &Cur, AbsState Seed, uint32_t Blk) {
    if (!Cur.Reachable)
      return Seed;
    return joinState(Cur, Seed, Blk);
  }

  void finalPass() {
    for (uint32_t BI = 0; BI != Blocks.size(); ++BI) {
      if (!In[BI].Reachable)
        continue;
      Collector C{*this, BI};
      transferBlock(BI, In[BI], &C);
    }
  }

  void dump() {
    std::string &D = Result.BlockDump;
    for (uint32_t BI = 0; BI != Blocks.size(); ++BI) {
      const Block &B = Blocks[BI];
      D += formatString("bb%u [0x%llx, 0x%llx)", BI, hex(B.Begin),
                        hex(B.End));
      if (!In[BI].Reachable) {
        D += " unreachable\n";
        continue;
      }
      if (In[BI].SpKnown)
        D += formatString(" sp%+lld", (long long)In[BI].SpDelta);
      for (unsigned R = 0; R != NumRegs; ++R)
        if (In[BI].Regs[R].K != VK::Top)
          D += formatString(" r%u=%s", R,
                            printVal(In[BI].Regs[R]).c_str());
      for (const auto &[K, V] : In[BI].Stack)
        D += formatString(" [sp%+lld]=%s", (long long)(K - In[BI].SpDelta),
                          printVal(V).c_str());
      if (!Succs[BI].empty()) {
        D += " ->";
        for (const auto &[S, EK] : Succs[BI]) {
          (void)EK;
          D += formatString(" bb%u", S);
        }
      }
      D += "\n";
    }
  }

  const uint8_t *Code;
  size_t Size;
  const MCFIObject &Obj;
  const Disassembly &Dis;
  AbsIntOptions Opts;
  SemanticResult Result;

  std::unordered_map<uint64_t, uint32_t> SiteAt;
  std::unordered_map<uint64_t, const JumpTableInfo *> JTAt;
  std::unordered_set<uint64_t> TableOffsets;
  std::unordered_map<uint64_t, const RelocEntry *> RelocAt;

  std::vector<Block> Blocks;
  std::unordered_map<uint64_t, uint32_t> BlockAt;
  std::vector<std::vector<std::pair<uint32_t, EdgeKind>>> Succs;
  std::vector<uint32_t> Roots;
  std::vector<AbsState> In;
  std::vector<int32_t> Pred;
  std::vector<uint32_t> Updates;
  std::unordered_map<uint64_t, bool> Proven;
};

} // namespace

SemanticResult absint::prove(const uint8_t *Code, size_t Size,
                             const MCFIObject &Obj,
                             const Disassembly &Dis,
                             const AbsIntOptions &Opts) {
  assert(Dis.complete() && Dis.IndexByOff.size() == Size &&
         "prove needs the module's complete disassembly");
  return Engine(Code, Size, Obj, Dis, Opts).run();
}
