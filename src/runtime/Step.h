//===- runtime/Step.h - Shared per-opcode VISA semantics --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single definition of what each VISA opcode does, shared by both
/// execution tiers (the decode-per-step interpreter and the predecoded
/// threaded dispatcher). Keeping the semantics in one template is what
/// makes the tiers RunResult-identical by construction:
/// a tier can only differ in *how* it reaches an instruction, never in
/// what the instruction does.
///
/// Contract for opExec/stepInstr: the caller has already fetched, decoded
/// and W^X-checked the instruction, incremented T.Instructions, and set
/// Next = PC + I.Length. A true return means the instruction retired and
/// the caller must commit T.PC = Next (branches update Next). A false
/// return means the thread stopped: Out is filled and T.PC is final.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_RUNTIME_STEP_H
#define MCFI_RUNTIME_STEP_H

#include "runtime/Machine.h"

#include "support/Assert.h"
#include "tables/ID.h"

namespace mcfi {
namespace vmstep {

/// Every valid opcode, for building switch cases and handler tables.
#define MCFI_VISA_FOREACH_OPCODE(X)                                            \
  X(MovImm) X(Mov) X(Load) X(Store) X(Load8) X(Store8) X(Load32) X(Store32)    \
  X(Load16) X(Store16) X(Add) X(Sub) X(Mul) X(DivS) X(ModS) X(And) X(Or)       \
  X(Xor) X(Shl) X(ShrL) X(ShrA) X(CmpEq) X(CmpNe) X(CmpLtS) X(CmpLeS)          \
  X(CmpLtU) X(CmpLeU) X(Neg) X(Not) X(AndImm) X(AddImm) X(Jmp) X(Jz) X(Jnz)    \
  X(JmpInd) X(Call) X(CallInd) X(Ret) X(Push) X(Pop) X(Nop) X(Halt)            \
  X(Syscall) X(TableRead) X(BaryRead)

/// Fills \p Out and pins T.PC at the stopping instruction. (The tiers do
/// not maintain T.PC between instructions, so a stop must commit it.)
inline bool stopAt(RunResult &Out, StopReason Reason, Thread &T, uint64_t PC,
                   std::string Msg = "", int64_t Code = 0) {
  T.PC = PC;
  Out.Reason = Reason;
  Out.ExitCode = Code;
  Out.Instructions = T.Instructions;
  Out.Message = std::move(Msg);
  return false;
}

// The stops a handler can make, out of line and cold (defined in VM.cpp),
// so the hot handlers carry no string code. Each fills Out like stopAt
// and returns false.

/// A Trap with the fixed message \p Msg.
[[gnu::cold, gnu::noinline]] bool trapAt(RunResult &Out, Thread &T,
                                         uint64_t PC, const char *Msg);
/// A Trap for a faulting guest access: "<Access> fault at <Addr> (pc ..)".
[[gnu::cold, gnu::noinline]] bool memFaultAt(RunResult &Out, Thread &T,
                                             uint64_t PC, const char *Access,
                                             uint64_t Addr);
/// The CfiViolation of a check transaction that reached hlt.
[[gnu::cold, gnu::noinline]] bool cfiHaltAt(RunResult &Out, Thread &T,
                                            uint64_t PC);

/// Guest stack push. Mirrors the hardware: SP moves before the store, so
/// a faulting push still leaves SP decremented.
inline bool pushWord(Machine &M, Thread &T, uint64_t V) {
  uint64_t &SP = T.Regs[visa::RegSP];
  SP -= 8;
  return M.store<8>(SP, V);
}

inline bool popWord(Machine &M, Thread &T, uint64_t &V) {
  uint64_t &SP = T.Regs[visa::RegSP];
  if (!M.load<8>(SP, V))
    return false;
  SP += 8;
  return true;
}

/// The syscall interposition layer (defined in VM.cpp; it is large and
/// cold). Same contract as opExec.
bool execSyscall(Machine &M, Thread &T, const visa::Instr &I, uint64_t PC,
                 uint64_t &Next, RunResult &Out);

/// Executes one instruction of statically known opcode \p Op. The tiers
/// instantiate this per opcode (threaded handler table) or dispatch to it
/// through stepInstr (interpreter).
template <visa::Opcode Op>
inline bool opExec(Machine &M, Thread &T, const visa::Instr &I, uint64_t PC,
                   uint64_t &Next, RunResult &Out) {
  using visa::Opcode;
  uint64_t *R = T.Regs;
  if constexpr (Op == Opcode::MovImm) {
    R[I.Rd] = I.Imm;
  } else if constexpr (Op == Opcode::Mov) {
    R[I.Rd] = R[I.Ra];
  } else if constexpr (Op == Opcode::Load || Op == Opcode::Load8 ||
                       Op == Opcode::Load16 || Op == Opcode::Load32) {
    constexpr unsigned Size = Op == Opcode::Load    ? 8
                              : Op == Opcode::Load8 ? 1
                              : Op == Opcode::Load16 ? 2
                                                     : 4;
    uint64_t Addr = R[I.Ra] + static_cast<int64_t>(I.Off);
    uint64_t V;
    if (!M.load<Size>(Addr, V))
      return memFaultAt(Out, T, PC, "load", Addr);
    R[I.Rd] = V;
  } else if constexpr (Op == Opcode::Store || Op == Opcode::Store8 ||
                       Op == Opcode::Store16 || Op == Opcode::Store32) {
    constexpr unsigned Size = Op == Opcode::Store    ? 8
                              : Op == Opcode::Store8 ? 1
                              : Op == Opcode::Store16 ? 2
                                                      : 4;
    uint64_t Addr = R[I.Rd] + static_cast<int64_t>(I.Off);
    if (!M.store<Size>(Addr, R[I.Ra]))
      return memFaultAt(Out, T, PC, "store", Addr);
  } else if constexpr (Op == Opcode::Add) {
    R[I.Rd] = R[I.Ra] + R[I.Rb];
  } else if constexpr (Op == Opcode::Sub) {
    R[I.Rd] = R[I.Ra] - R[I.Rb];
  } else if constexpr (Op == Opcode::Mul) {
    R[I.Rd] = R[I.Ra] * R[I.Rb];
  } else if constexpr (Op == Opcode::DivS || Op == Opcode::ModS) {
    int64_t A = static_cast<int64_t>(R[I.Ra]);
    int64_t B = static_cast<int64_t>(R[I.Rb]);
    if (B == 0 || (A == INT64_MIN && B == -1))
      return trapAt(Out, T, PC, "integer division fault");
    R[I.Rd] = static_cast<uint64_t>(Op == Opcode::DivS ? A / B : A % B);
  } else if constexpr (Op == Opcode::And) {
    R[I.Rd] = R[I.Ra] & R[I.Rb];
  } else if constexpr (Op == Opcode::Or) {
    R[I.Rd] = R[I.Ra] | R[I.Rb];
  } else if constexpr (Op == Opcode::Xor) {
    R[I.Rd] = R[I.Ra] ^ R[I.Rb];
  } else if constexpr (Op == Opcode::Shl) {
    R[I.Rd] = R[I.Ra] << (R[I.Rb] & 63);
  } else if constexpr (Op == Opcode::ShrL) {
    R[I.Rd] = R[I.Ra] >> (R[I.Rb] & 63);
  } else if constexpr (Op == Opcode::ShrA) {
    R[I.Rd] = static_cast<uint64_t>(static_cast<int64_t>(R[I.Ra]) >>
                                    (R[I.Rb] & 63));
  } else if constexpr (Op == Opcode::CmpEq) {
    R[I.Rd] = R[I.Ra] == R[I.Rb];
  } else if constexpr (Op == Opcode::CmpNe) {
    R[I.Rd] = R[I.Ra] != R[I.Rb];
  } else if constexpr (Op == Opcode::CmpLtS) {
    R[I.Rd] = static_cast<int64_t>(R[I.Ra]) < static_cast<int64_t>(R[I.Rb]);
  } else if constexpr (Op == Opcode::CmpLeS) {
    R[I.Rd] = static_cast<int64_t>(R[I.Ra]) <= static_cast<int64_t>(R[I.Rb]);
  } else if constexpr (Op == Opcode::CmpLtU) {
    R[I.Rd] = R[I.Ra] < R[I.Rb];
  } else if constexpr (Op == Opcode::CmpLeU) {
    R[I.Rd] = R[I.Ra] <= R[I.Rb];
  } else if constexpr (Op == Opcode::Neg) {
    R[I.Rd] = 0 - R[I.Ra];
  } else if constexpr (Op == Opcode::Not) {
    R[I.Rd] = ~R[I.Ra];
  } else if constexpr (Op == Opcode::AndImm) {
    R[I.Rd] &= I.Imm;
  } else if constexpr (Op == Opcode::AddImm) {
    R[I.Rd] += static_cast<int64_t>(I.Off);
  } else if constexpr (Op == Opcode::Jmp) {
    Next = Next + static_cast<int64_t>(I.Off);
  } else if constexpr (Op == Opcode::Jz) {
    if (R[I.Ra] == 0)
      Next = Next + static_cast<int64_t>(I.Off);
  } else if constexpr (Op == Opcode::Jnz) {
    if (R[I.Ra] != 0)
      Next = Next + static_cast<int64_t>(I.Off);
  } else if constexpr (Op == Opcode::JmpInd) {
    Next = R[I.Ra];
  } else if constexpr (Op == Opcode::Call) {
    if (!pushWord(M, T, Next))
      return trapAt(Out, T, PC, "stack overflow on call");
    Next = PC + I.Length + static_cast<int64_t>(I.Off);
  } else if constexpr (Op == Opcode::CallInd) {
    if (!pushWord(M, T, PC + I.Length))
      return trapAt(Out, T, PC, "stack overflow on call");
    Next = R[I.Ra];
  } else if constexpr (Op == Opcode::Ret) {
    uint64_t RA;
    if (!popWord(M, T, RA))
      return trapAt(Out, T, PC, "stack underflow on ret");
    Next = RA;
  } else if constexpr (Op == Opcode::Push) {
    if (!pushWord(M, T, R[I.Ra]))
      return trapAt(Out, T, PC, "stack overflow on push");
  } else if constexpr (Op == Opcode::Pop) {
    uint64_t V;
    if (!popWord(M, T, V))
      return trapAt(Out, T, PC, "stack underflow on pop");
    R[I.Rd] = V;
  } else if constexpr (Op == Opcode::Nop) {
    // nothing
  } else if constexpr (Op == Opcode::Halt) {
    return cfiHaltAt(Out, T, PC);
  } else if constexpr (Op == Opcode::TableRead) {
    uint64_t Addr = R[I.Ra];
    R[I.Rd] = Addr >= Machine::CodeBase &&
                      Addr < Machine::CodeBase + M.codeCapacity()
                  ? M.tables().taryRead(Addr - Machine::CodeBase)
                  : 0;
  } else if constexpr (Op == Opcode::BaryRead) {
    R[I.Rd] = M.tables().baryRead(static_cast<uint32_t>(I.Imm));
  } else if constexpr (Op == Opcode::Syscall) {
    return execSyscall(M, T, I, PC, Next, Out);
  } else {
    static_assert(Op != Op, "opExec instantiated on an invalid opcode");
  }
  return true;
}

/// Runtime-dispatch wrapper over opExec (the interpreter tier's switch).
inline bool stepInstr(Machine &M, Thread &T, const visa::Instr &I, uint64_t PC,
                      uint64_t &Next, RunResult &Out) {
  switch (I.Op) {
#define MCFI_STEP_CASE(Name)                                                   \
  case visa::Opcode::Name:                                                     \
    return opExec<visa::Opcode::Name>(M, T, I, PC, Next, Out);
    MCFI_VISA_FOREACH_OPCODE(MCFI_STEP_CASE)
#undef MCFI_STEP_CASE
  case visa::Opcode::Invalid:
    break;
  }
  mcfi_unreachable("decode accepted an invalid opcode");
}

} // namespace vmstep
} // namespace mcfi

#endif // MCFI_RUNTIME_STEP_H
