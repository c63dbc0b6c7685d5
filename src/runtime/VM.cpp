//===- runtime/VM.cpp - The VISA interpreter tier --------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The reference interpreter executes instrumented (or plain) VISA bytes
/// one fully-checked step at a time. Check transactions run as real
/// instructions here: TableRead/BaryRead hit the shared atomic ID tables,
/// so concurrency with a host-side TxUpdate behaves exactly as in the
/// paper's Fig. 3/4 protocol. The interpreter itself enforces only the
/// *hardware-level* rules (memory mapping, W^X, decode validity);
/// control-flow integrity comes from the instrumented code reaching `hlt`
/// when a check fails — as on real x86.
///
/// The per-opcode semantics live in Step.h, shared with the predecoded
/// threaded tier (Dispatch.cpp); interpretStep below is also that tier's
/// fallback for PCs its decoded segment does not cover.
///
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include "runtime/Dispatch.h"
#include "runtime/Step.h"
#include "support/Assert.h"
#include "support/StringUtils.h"
#include "tables/ID.h"

using namespace mcfi;
using namespace mcfi::visa;

namespace {

RunResult stop(StopReason Reason, const Thread &T, std::string Msg = "",
               int64_t Code = 0) {
  RunResult R;
  R.Reason = Reason;
  R.ExitCode = Code;
  R.Instructions = T.Instructions;
  R.Message = std::move(Msg);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cold stops (shared by all tiers via Step.h)
//===----------------------------------------------------------------------===//

bool mcfi::vmstep::trapAt(RunResult &Out, Thread &T, uint64_t PC,
                          const char *Msg) {
  return stopAt(Out, StopReason::Trap, T, PC, Msg);
}

bool mcfi::vmstep::memFaultAt(RunResult &Out, Thread &T, uint64_t PC,
                              const char *Access, uint64_t Addr) {
  return stopAt(Out, StopReason::Trap, T, PC,
                formatString("%s fault at 0x%llx (pc 0x%llx)", Access,
                             static_cast<unsigned long long>(Addr),
                             static_cast<unsigned long long>(PC)));
}

bool mcfi::vmstep::cfiHaltAt(RunResult &Out, Thread &T, uint64_t PC) {
  return stopAt(Out, StopReason::CfiViolation, T, PC,
                formatString("CFI check failed at 0x%llx",
                             static_cast<unsigned long long>(PC)));
}

//===----------------------------------------------------------------------===//
// Syscall interposition (shared by all tiers via Step.h)
//===----------------------------------------------------------------------===//

bool mcfi::vmstep::execSyscall(Machine &M, Thread &T, const Instr &I,
                               uint64_t PC, uint64_t &Next, RunResult &Out) {
  uint64_t *R = T.Regs;
  uint64_t &SP = T.Regs[RegSP];
  // A thread entering a syscall holds no in-flight check transaction:
  // the Sec. 5.2 quiescence point. Only engage the bookkeeping when the
  // version space is actually running low, or a dlclosed region is
  // waiting out its grace period (reclamation advances on the same
  // quiescence generations).
  if (M.tables().versionSpaceLow() || M.reclaimPending())
    M.noteSyscallBoundary(T);
  switch (static_cast<SyscallNo>(I.Imm)) {
  case SyscallNo::Malloc:
    R[RegRet] = M.allocHeap(R[RegArg0]);
    break;
  case SyscallNo::Free:
    break; // bump allocator: free is a no-op
  case SyscallNo::Setjmp: {
    uint64_t Buf = R[RegArg0];
    if (!M.store(Buf, 8, Next) || !M.store(Buf + 8, 8, SP))
      return stopAt(Out, StopReason::Trap, T, PC, "setjmp buffer fault");
    R[RegRet] = 0;
    break;
  }
  case SyscallNo::Longjmp: {
    uint64_t Buf = R[RegArg0];
    uint64_t Target, SavedSP;
    if (!M.load(Buf, 8, Target) || !M.load(Buf + 8, 8, SavedSP))
      return stopAt(Out, StopReason::Trap, T, PC, "longjmp buffer fault");
    // The runtime validates the (attacker-writable) jmp_buf target
    // against the CFG's setjmp return sites (paper Sec. 6).
    if (!M.isSetjmpRetSite(Target))
      return stopAt(Out, StopReason::CfiViolation, T, PC,
                    "longjmp to an address that is not a setjmp return "
                    "site");
    SP = SavedSP;
    uint64_t V = R[RegArg0 + 1];
    R[RegRet] = V ? V : 1;
    Next = Target;
    break;
  }
  case SyscallNo::Signal: {
    uint64_t Handler = R[RegArg0 + 1];
    // Handlers must be legitimate indirect-branch targets.
    bool Valid = Handler >= Machine::CodeBase &&
                 Handler < Machine::CodeBase + M.codeCapacity() &&
                 isValidID(M.tables().taryRead(Handler - Machine::CodeBase));
    if (!Valid)
      return stopAt(Out, StopReason::CfiViolation, T, PC,
                    "signal handler is not a valid branch target");
    std::lock_guard<std::mutex> Guard(M.SignalLock);
    M.SignalHandlers[static_cast<int>(R[RegArg0])] = Handler;
    break;
  }
  case SyscallNo::Raise: {
    uint64_t Handler = 0;
    {
      std::lock_guard<std::mutex> Guard(M.SignalLock);
      auto It = M.SignalHandlers.find(static_cast<int>(R[RegArg0]));
      if (It != M.SignalHandlers.end())
        Handler = It->second;
    }
    if (!Handler)
      break;
    // Revalidate at dispatch time: the handler may have been registered
    // before its module was dlclosed, and the retire transaction zeroes
    // its Tary ID. A stale registration must lose here, not transfer
    // into a retired (or since-reused) code range.
    if (!isValidID(M.tables().taryRead(Handler - Machine::CodeBase)))
      return stopAt(Out, StopReason::CfiViolation, T, PC,
                    "raise: registered signal handler is no longer a valid "
                    "branch target (module unloaded)");
    // Dispatch: the handler is entered like a call whose return goes
    // through the sigreturn trampoline (the return instruction in the
    // handler is checked against the trampoline's Tary ID). Without a
    // trampoline the handler's ret would land at address 0 — trap
    // instead of jumping to unmapped memory (a release-build crash when
    // this was only an assert).
    if (!M.SigReturnAddr)
      return stopAt(Out, StopReason::Trap, T, PC,
                    "raise: no sigreturn trampoline loaded");
    T.SignalReturnStack.push_back(Next);
    if (!pushWord(M, T, M.SigReturnAddr))
      return stopAt(Out, StopReason::Trap, T, PC, "stack overflow on signal");
    Next = Handler; // signal number already in the arg register
    break;
  }
  case SyscallNo::SigReturn: {
    if (T.SignalReturnStack.empty())
      return stopAt(Out, StopReason::Trap, T, PC, "sigreturn without a signal");
    Next = T.SignalReturnStack.back();
    T.SignalReturnStack.pop_back();
    break;
  }
  case SyscallNo::PrintInt:
    M.appendOutput(std::to_string(static_cast<int64_t>(R[RegArg0])) + "\n");
    break;
  case SyscallNo::PrintStr:
    M.appendOutput(M.readString(R[RegArg0]));
    break;
  case SyscallNo::Exit:
    return stopAt(Out, StopReason::Exited, T, Next, "",
                  static_cast<int64_t>(R[RegArg0]));
  case SyscallNo::Dlopen:
    R[RegRet] = M.DlopenHook
                    ? static_cast<uint64_t>(
                          M.DlopenHook(M, static_cast<int64_t>(R[RegArg0])))
                    : static_cast<uint64_t>(-1);
    break;
  case SyscallNo::Dlclose:
    R[RegRet] = M.DlcloseHook
                    ? static_cast<uint64_t>(
                          M.DlcloseHook(M, static_cast<int64_t>(R[RegArg0])))
                    : static_cast<uint64_t>(-1);
    break;
  case SyscallNo::Dlsym:
    // dlsymLookup reads the symbol index under ModuleLock: dlopen
    // updates it concurrently.
    R[RegRet] = M.dlsymLookup(static_cast<int64_t>(R[RegArg0]),
                              M.readString(R[RegArg0 + 1]));
    break;
  default:
    return stopAt(Out, StopReason::Trap, T, PC,
                  formatString("unknown syscall %u",
                               static_cast<unsigned>(I.Imm)));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// One fully-checked step (interpreter tier + engine fallback)
//===----------------------------------------------------------------------===//

bool Machine::interpretStep(Thread &T, RunResult &Out) {
  uint64_t PC = T.PC;
  // Fetch: the PC must lie in a *sealed* (executable) module. Unsealed
  // modules are still writable, and W^X forbids executing them.
  const uint8_t *Code = codePtr(PC, 1);
  if (!Code) {
    Out = stop(StopReason::Trap, T,
               formatString("fetch from unmapped address 0x%llx",
                            static_cast<unsigned long long>(PC)));
    return false;
  }
  uint64_t Sealed = SealedPrefix.load(std::memory_order_acquire);
  bool Executable = PC - CodeBase < Sealed;
  // Rounded extent of the sealed region the PC falls in; an instruction
  // may not extend past it (full-span W^X below).
  uint64_t SpanEnd = CodeBase + Sealed;
  if (!Executable) {
    // Slow path: dlopen may seal modules out of prefix order. It also
    // mutates Mapped, so walk it under the module lock. A reclaimed
    // module is a hole (zeroed bytes, not executable) and is not present.
    std::lock_guard<std::mutex> Guard(ModuleLock);
    for (int Index : Present) {
      const MappedModule &M = Mapped[Index];
      if (PC >= M.CodeBase && PC < M.CodeBase + M.CodeSize) {
        Executable = M.Sealed;
        SpanEnd = M.CodeBase + M.CodeSize;
        break;
      }
    }
  }
  if (!Executable) {
    Out = stop(StopReason::Trap, T,
               formatString("W^X: executing unsealed code at 0x%llx",
                            static_cast<unsigned long long>(PC)));
    return false;
  }

  visa::Instr I;
  if (!decode(CodeBytes.data(), CodeUsed.load(std::memory_order_acquire),
              PC - CodeBase, I)) {
    Out = stop(StopReason::Trap, T,
               formatString("invalid instruction at 0x%llx",
                            static_cast<unsigned long long>(PC)));
    return false;
  }
  // W^X covers every byte of the instruction, not just the first: a
  // multi-byte instruction straddling the sealed/unsealed boundary would
  // execute attacker-writable operand bytes.
  if (PC + I.Length > SpanEnd) {
    Out = stop(StopReason::Trap, T,
               formatString("W^X: instruction at 0x%llx straddles unsealed "
                            "code",
                            static_cast<unsigned long long>(PC)));
    return false;
  }

  uint64_t Next = PC + I.Length;
  ++T.Instructions;
  if (!vmstep::stepInstr(*this, T, I, PC, Next, Out))
    return false;
  T.PC = Next;
  return true;
}

//===----------------------------------------------------------------------===//
// Tier dispatch
//===----------------------------------------------------------------------===//

RunResult Machine::runInterpreter(Thread &T, uint64_t Fuel) {
  RunResult Out;
  uint64_t Start = T.Instructions;
  bool Stopped = false;
  while (Fuel-- != 0) {
    if (!interpretStep(T, Out)) {
      Stopped = true;
      break;
    }
  }
  if (!Stopped)
    Out = stop(StopReason::OutOfFuel, T, "instruction budget exhausted");
  VMTierStats S;
  S.InterpInstrs = T.Instructions - Start;
  creditTierStats(S);
  return Out;
}

RunResult Machine::run(Thread &T, uint64_t Fuel) {
  // Track how many threads are inside the VM so the quiescence scheme
  // (noteSyscallBoundary) knows when *every* running thread has crossed
  // a syscall boundary.
  RunningThreads.fetch_add(1, std::memory_order_acq_rel);
  struct RunningGuard {
    std::atomic<int> &C;
    ~RunningGuard() { C.fetch_sub(1, std::memory_order_acq_rel); }
  } Guard{RunningThreads};

  switch (Tier) {
  case ExecTier::Interpreter:
    return runInterpreter(T, Fuel);
  case ExecTier::Threaded:
    return runThreaded(*this, T, Fuel);
  }
  mcfi_unreachable("unknown execution tier");
}
