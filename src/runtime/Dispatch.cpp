//===- runtime/Dispatch.cpp - Predecoded threaded dispatch ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Dispatch.h"

#include "runtime/Step.h"
#include "support/Assert.h"

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

} // namespace

std::shared_ptr<const DecodedModule>
mcfi::makeDecodedModule(Disassembly Dis, uint64_t Serial, uint64_t Base,
                        uint64_t Size) {
  assert(Dis.IndexByOff.size() <= Size && Dis.Base == Base &&
         "disassembly of another range");
  auto Mod = std::make_shared<DecodedModule>();
  Mod->Serial = Serial;
  Mod->Base = Base;
  Mod->Size = Size;
  Mod->Stream = std::move(Dis.Instrs);
  Mod->IndexByOff = std::move(Dis.IndexByOff);
  Mod->IndexByOff.resize(Size, -1);
  return Mod;
}

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
  {
    std::lock_guard<std::mutex> Guard(SegLock);
    if (Seg && Seg->Epoch == codeEpoch())
      return Seg;
  }

  // Epoch first: a seal or reclaim that lands after it bumps the epoch,
  // so installSegment refuses this snapshot. Every sealed, unreclaimed
  // module carries its decode from seal on, so the snapshot is all a
  // build does.
  auto Fresh = std::make_shared<DecodedSegment>();
  Fresh->Epoch = codeEpoch();
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    Fresh->Modules.reserve(Present.size());
    for (int Index : Present) {
      const std::shared_ptr<const DecodedModule> &D = Mapped[Index].Decode;
      if (D && D->Size) // an empty module covers no PC
        Fresh->Modules.push_back(D);
    }
  }
  std::sort(Fresh->Modules.begin(), Fresh->Modules.end(),
            [](const std::shared_ptr<const DecodedModule> &A,
               const std::shared_ptr<const DecodedModule> &B) {
              return A->Base < B->Base;
            });
  VMTierStats St;
  St.SegmentsBuilt = 1;
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

/// Executes the 4-instruction TxCheck group headed at \p D: D[0..3] are
/// stream-contiguous and are baryread, tableread, xor, jz, the only order
/// markFusedCheck marks. The group preserves the Fig. 3/4
/// protocol: both table reads stay individually atomic and run in
/// program order, so every interleaving with a concurrent TxUpdate that
/// was possible between discrete instructions is still possible — and no
/// new ones appear, because the intervening xor/jz touch no shared
/// state. None of the four instructions can stop, so the group retires
/// atomically with respect to fuel accounting (the caller guarantees
/// Fuel >= FusedCheckLen).
void execFusedCheck(Machine &M, Thread &T, const DInstr *D) {
  uint64_t *R = T.Regs;
  const Instr &B = D[0].I;
  R[B.Rd] = M.tables().baryRead(static_cast<uint32_t>(B.Imm));
  const Instr &Tr = D[1].I;
  uint64_t Addr = R[Tr.Ra];
  R[Tr.Rd] = Addr >= Machine::CodeBase &&
                     Addr < Machine::CodeBase + M.codeCapacity()
                 ? M.tables().taryRead(Addr - Machine::CodeBase)
                 : 0;
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
      // Uncovered PC (unmapped or unsealed code, jump-table data, or a
      // jump into the middle of an instruction):
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
