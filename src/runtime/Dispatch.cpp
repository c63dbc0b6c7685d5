//===- runtime/Dispatch.cpp - Predecoded threaded dispatch ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Dispatch.h"

#include "runtime/Step.h"

#include <algorithm>
#include <array>

using namespace mcfi;
using namespace mcfi::visa;

//===----------------------------------------------------------------------===//
// Handler table
//===----------------------------------------------------------------------===//

namespace {

/// Handler signature shared with Step.h's opExec contract.
using OpFn = bool (*)(Machine &, Thread &, const Instr &, uint64_t,
                      uint64_t &, RunResult &);

std::array<OpFn, 64> makeHandlers() {
  std::array<OpFn, 64> A{};
#define MCFI_HANDLER(Name)                                                     \
  A[static_cast<uint8_t>(Opcode::Name)] = &vmstep::opExec<Opcode::Name>;
  MCFI_VISA_FOREACH_OPCODE(MCFI_HANDLER)
#undef MCFI_HANDLER
  return A;
}

/// Function-pointer dispatch table indexed by the opcode byte (all valid
/// opcode bytes are < 64; invalid bytes never enter a decoded stream).
const std::array<OpFn, 64> OpHandlers = makeHandlers();

} // namespace

//===----------------------------------------------------------------------===//
// Segment construction
//===----------------------------------------------------------------------===//

namespace {

/// Number of instructions a fused TxCheck group retires.
constexpr uint32_t FusedCheckLen = 4;

/// Marks the heads of fusable TxCheck groups: the two ID-table reads of
/// Fig. 4 (Bary/Tary in either scheduling order — the Optimize rewriter
/// variant swaps them), the xor of the two IDs, and the jz consuming the
/// difference. Only the head is marked; a jump *into* the group (the
/// retry jnz targets the first read) executes the remaining instructions
/// individually, which is semantically identical.
void markFusedChecks(DecodedModule &Mod) {
  std::vector<DInstr> &S = Mod.Stream;
  for (size_t K = 0; K + 3 < S.size(); ++K) {
    if (S[K].Fall != static_cast<int32_t>(K + 1) ||
        S[K + 1].Fall != static_cast<int32_t>(K + 2) ||
        S[K + 2].Fall != static_cast<int32_t>(K + 3))
      continue;
    const Instr &A = S[K].I;
    const Instr &B = S[K + 1].I;
    const Instr &X = S[K + 2].I;
    const Instr &J = S[K + 3].I;
    bool OneReadEach = (A.Op == Opcode::BaryRead && B.Op == Opcode::TableRead) ||
                       (A.Op == Opcode::TableRead && B.Op == Opcode::BaryRead);
    if (!OneReadEach || A.Rd == B.Rd || X.Op != Opcode::Xor ||
        J.Op != Opcode::Jz)
      continue;
    bool XorOverIDs = (X.Ra == A.Rd && X.Rb == B.Rd) ||
                      (X.Ra == B.Rd && X.Rb == A.Rd);
    if (!XorOverIDs || J.Ra != X.Rd)
      continue;
    S[K].Fused = FusedKind::TxCheck;
  }
}

/// Decodes the sealed bytes \p Code of the module \p Serial mapped at
/// [Base, Base + Size). Decoding stops at the module's end: an
/// instruction truncated by it is left to interpretStep's straddle check.
std::shared_ptr<const DecodedModule> decodeModule(const uint8_t *Code,
                                                  uint64_t Serial,
                                                  uint64_t Base,
                                                  uint64_t Size) {
  auto Mod = std::make_shared<DecodedModule>();
  Mod->Serial = Serial;
  Mod->Base = Base;
  Mod->Size = Size;
  DecodedStream DS;
  decodeLinear(Code, Size, DS);
  Mod->IndexByOff = std::move(DS.IndexByOff);
  Mod->Stream.reserve(DS.Instrs.size());
  for (size_t K = 0; K != DS.Instrs.size(); ++K) {
    DInstr D;
    D.I = DS.Instrs[K];
    D.PC = Base + DS.Offsets[K];
    uint64_t FallOff = DS.Offsets[K] + D.I.Length;
    D.Fall = FallOff < Size ? Mod->IndexByOff[FallOff] : -1;
    Mod->Stream.push_back(D);
  }
  markFusedChecks(*Mod);
  return Mod;
}

} // namespace

const DecodedModule *DecodedSegment::moduleAt(uint64_t PC) const {
  auto It = std::upper_bound(
      Modules.begin(), Modules.end(), PC,
      [](uint64_t P, const std::shared_ptr<const DecodedModule> &Mod) {
        return P < Mod->Base;
      });
  if (It == Modules.begin())
    return nullptr;
  const DecodedModule *Mod = std::prev(It)->get();
  return Mod->contains(PC) ? Mod : nullptr;
}

//===----------------------------------------------------------------------===//
// The per-Machine segment cache
//===----------------------------------------------------------------------===//

bool Machine::installSegment(std::shared_ptr<const DecodedSegment> S) {
  std::lock_guard<std::mutex> Guard(SegLock);
  if (!S || S->Epoch != codeEpoch())
    return false;
  Seg = std::move(S);
  return true;
}

std::shared_ptr<const DecodedSegment> Machine::segment() {
  std::shared_ptr<const DecodedSegment> Old;
  {
    std::lock_guard<std::mutex> Guard(SegLock);
    if (Seg && Seg->Epoch == codeEpoch())
      return Seg;
    Old = Seg; // stale, but its decodes are reused by serial below
  }

  // Epoch first: any layout change that lands while the snapshot is
  // taken or a module is decoded bumps it afterwards, so installSegment
  // refuses this build.
  auto Fresh = std::make_shared<DecodedSegment>();
  Fresh->Epoch = codeEpoch();
  struct Span {
    uint64_t Serial, Base, Size;
    bool Retired;
  };
  std::vector<Span> Live;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    for (const MappedModule &MM : Mapped)
      if (MM.Sealed && !MM.Reclaimed && MM.CodeSize)
        Live.push_back({MM.Serial, MM.CodeBase, MM.CodeSize, MM.Retired});
  }
  std::sort(Live.begin(), Live.end(),
            [](const Span &A, const Span &B) { return A.Base < B.Base; });

  // A serial is never reused and sealed bytes never change before
  // reclaim, so an old decode whose serial is still in the snapshot is
  // still exact. Both lists are Base-sorted: one merge walk pairs them.
  static const std::vector<std::shared_ptr<const DecodedModule>> None;
  const auto &Prev = Old ? Old->Modules : None;
  auto PrevIt = Prev.begin();
  VMTierStats St;
  St.SegmentsBuilt = 1;
  Fresh->Modules.reserve(Live.size());
  for (const Span &S : Live) {
    while (PrevIt != Prev.end() && (*PrevIt)->Base < S.Base)
      ++PrevIt;
    if (PrevIt != Prev.end() && (*PrevIt)->Serial == S.Serial) {
      Fresh->Modules.push_back(*PrevIt);
      continue;
    }
    // Decode only live modules. A retired module's range may mature and
    // be zeroed by a concurrent reclaim while it is read; a live one
    // cannot, because its grace period needs this thread to cross a
    // syscall boundary after the retire. A retired module with no decode
    // yet stays uncovered and runs through interpretStep.
    if (S.Retired)
      continue;
    Fresh->Modules.push_back(
        decodeModule(codePtr(S.Base, S.Size), S.Serial, S.Base, S.Size));
    ++St.ModulesDecoded;
  }
  creditTierStats(St);
  // A build that raced a layout change is refused. The caller then sees
  // the new epoch and asks again; until then every PC is uncovered and
  // runs through interpretStep.
  return installSegment(Fresh) ? Fresh : nullptr;
}

//===----------------------------------------------------------------------===//
// Fused TxCheck execution
//===----------------------------------------------------------------------===//

namespace {

/// Executes the 4-instruction TxCheck group headed at \p D (D[0..3] are
/// stream-contiguous by construction). The group preserves the Fig. 3/4
/// protocol: both table reads stay individually atomic and run in
/// program order, so every interleaving with a concurrent TxUpdate that
/// was possible between discrete instructions is still possible — and no
/// new ones appear, because the intervening xor/jz touch no shared
/// state. None of the four instructions can stop, so the group retires
/// atomically with respect to fuel accounting (the caller guarantees
/// Fuel >= FusedCheckLen).
void execFusedCheck(Machine &M, Thread &T, const DInstr *D) {
  uint64_t *R = T.Regs;
  for (int K = 0; K != 2; ++K) {
    const Instr &I = D[K].I;
    if (I.Op == Opcode::TableRead) {
      uint64_t Addr = R[I.Ra];
      R[I.Rd] = Addr >= Machine::CodeBase &&
                        Addr < Machine::CodeBase + M.codeCapacity()
                    ? M.tables().taryRead(Addr - Machine::CodeBase)
                    : 0;
    } else {
      R[I.Rd] = M.tables().baryRead(static_cast<uint32_t>(I.Imm));
    }
  }
  const Instr &X = D[2].I;
  R[X.Rd] = R[X.Ra] ^ R[X.Rb];
  const DInstr &J = D[3];
  uint64_t Next = J.PC + J.I.Length;
  if (R[J.I.Ra] == 0)
    Next += static_cast<int64_t>(J.I.Off);
  T.Instructions += FusedCheckLen;
  T.PC = Next;
}

RunResult stopOutOfFuel(const Thread &T) {
  RunResult R;
  R.Reason = StopReason::OutOfFuel;
  R.Instructions = T.Instructions;
  R.Message = "instruction budget exhausted";
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// The threaded engine
//===----------------------------------------------------------------------===//

RunResult mcfi::runThreaded(Machine &M, Thread &T, uint64_t Fuel) {
  RunResult Out;
  VMTierStats Local;
  uint64_t Epoch = M.codeEpoch();
  std::shared_ptr<const DecodedSegment> Seg = M.segment();
  // The module the PC last resolved in: control mostly stays inside one
  // module, so only a PC outside it pays the binary search.
  const DecodedModule *Mod = nullptr;

  auto Finish = [&](RunResult R) {
    M.creditTierStats(Local);
    return R;
  };

  while (Fuel != 0) {
    // dlopen/seal/reclaim bumped the code epoch: re-checkout the segment
    // so a predecoding of an older layout is never re-entered.
    if (uint64_t E = M.codeEpoch(); E != Epoch) {
      Epoch = E;
      Seg = M.segment();
      Mod = nullptr;
    }

    if (Seg && !(Mod && Mod->contains(T.PC)))
      Mod = Seg->moduleAt(T.PC);
    int32_t Idx = Mod ? Mod->indexAt(T.PC) : -1;
    if (Idx < 0) {
      // Uncovered PC (a module retired before it was decoded, unmapped
      // or unsealed code, or a jump into the middle of an instruction):
      // one fully-checked interpreted step. Credit whatever retired — a
      // pre-retire trap (fetch/decode/W^X) does not advance
      // T.Instructions and must not be counted.
      uint64_t Before = T.Instructions;
      bool Cont = M.interpretStep(T, Out);
      Local.InterpInstrs += T.Instructions - Before;
      if (!Cont)
        return Finish(Out);
      --Fuel;
      continue;
    }

    // Threaded dispatch through the current block.
    while (Fuel != 0) {
      const DInstr &D = Mod->Stream[Idx];
      if (D.Fused == FusedKind::TxCheck && Fuel >= FusedCheckLen) {
        execFusedCheck(M, T, &D);
        Fuel -= FusedCheckLen;
        Local.ThreadedInstrs += FusedCheckLen;
        ++Local.FusedChecks;
        break; // the jz transferred control: re-resolve in the outer loop
      }
      ++T.Instructions;
      uint64_t PC = D.PC;
      uint64_t Next = PC + D.I.Length;
      if (!OpHandlers[static_cast<uint8_t>(D.I.Op)](M, T, D.I, PC, Next, Out)) {
        ++Local.ThreadedInstrs; // the stopping instruction retired too
        return Finish(Out);
      }
      --Fuel;
      ++Local.ThreadedInstrs;
      T.PC = Next;
      if (Next == PC + D.I.Length && D.Fall >= 0) {
        Idx = D.Fall;
        continue; // fallthrough stays inside the block
      }
      break; // control transfer (or module end): outer loop re-resolves
    }
  }
  return Finish(stopOutOfFuel(T));
}
