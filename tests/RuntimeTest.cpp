//===- tests/RuntimeTest.cpp - Machine and VM tests ------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests of the runtime machine: memory mapping and W^X, typed guest
/// accesses, the interpreter's trap behaviour, syscall interposition,
/// and fuel accounting.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "runtime/Machine.h"
#include "toolchain/Toolchain.h"
#include "visa/Assembler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <memory>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

//===----------------------------------------------------------------------===//
// Guest memory model
//===----------------------------------------------------------------------===//

/// Resident set size of this process, from /proc/self/statm.
uint64_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  uint64_t Pages = 0, Resident = 0;
  Statm >> Pages >> Resident;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Machine, FreshMachineIsReservedNotCommitted) {
  // 8 MiB of code, 64 MiB of data, an 8 MiB Tary and a 1 MiB Bary are
  // reserved, not written: constructing a Machine commits almost none.
  uint64_t Before = residentBytes();
  auto M = std::make_unique<Machine>();
  EXPECT_LT(residentBytes(), Before + (4ull << 20))
      << "a fresh Machine committed its regions";
  // A never-written table word reads as the invalid ID 0.
  const IDTables &T = M->tables();
  EXPECT_EQ(T.taryRead(T.taryCapacityBytes() - 4), 0u);
  EXPECT_EQ(T.baryRead(T.baryCapacity() - 1), 0u);
  EXPECT_EQ(T.txCheck(T.baryCapacity() - 1, T.taryCapacityBytes() - 4),
            CheckResult::ViolationInvalid);
}

TEST(MachineMemory, TypedAccessRoundTrip) {
  Machine M;
  uint64_t Addr = Machine::DataBase + 4096;
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    uint64_t Value = 0x1122334455667788ull;
    ASSERT_TRUE(M.store(Addr, Size, Value));
    uint64_t Out = 0;
    ASSERT_TRUE(M.load(Addr, Size, Out));
    uint64_t Mask = Size == 8 ? ~0ull : (1ull << (8 * Size)) - 1;
    EXPECT_EQ(Out, Value & Mask) << "size " << Size;
  }
}

TEST(MachineMemory, MisalignedAccessFaults) {
  Machine M;
  uint64_t Addr = Machine::DataBase + 4096;
  uint64_t Out;
  EXPECT_FALSE(M.load(Addr + 1, 8, Out));
  EXPECT_FALSE(M.load(Addr + 2, 4, Out));
  EXPECT_FALSE(M.load(Addr + 1, 2, Out));
  EXPECT_TRUE(M.load(Addr + 1, 1, Out));
  EXPECT_FALSE(M.store(Addr + 4, 8, 1));
}

TEST(MachineMemory, OutOfRangeFaults) {
  Machine M;
  uint64_t Out;
  EXPECT_FALSE(M.load(0, 8, Out));                  // null page
  EXPECT_FALSE(M.load(Machine::CodeBase - 8, 8, Out));
  EXPECT_FALSE(M.store(Machine::CodeBase, 8, 1));   // code never writable
  EXPECT_FALSE(M.store(~0ull - 16, 8, 1));
}

TEST(MachineMemory, HeapAllocationIsAlignedAndDisjoint) {
  Machine M;
  uint64_t A = M.allocHeap(24);
  uint64_t B = M.allocHeap(100);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  EXPECT_EQ(A % 8, 0u);
  EXPECT_EQ(B % 8, 0u);
  EXPECT_GE(B, A + 24);
  // A request larger than the data region is refused without moving the
  // heap pointer (a wrapping bump would move it backwards over B).
  EXPECT_EQ(M.allocHeap(~0ull - 7), 0u);
  uint64_t C = M.allocHeap(8);
  EXPECT_GE(C, B + 100);
  // So is one that fits the region but not below the room kept for a
  // stack: module globals share this bump pointer, so a refused request
  // must not consume it.
  EXPECT_EQ(M.allocHeap(MachineOptions().DataCapacity - 8), 0u);
  EXPECT_EQ(M.allocHeap(8), C + 8);
}

TEST(MachineMemory, ReadStringStopsAtNulAndFault) {
  Machine M;
  uint64_t Addr = Machine::DataBase + 64;
  const char *S = "hello";
  M.writeDataBytes(Addr, reinterpret_cast<const uint8_t *>(S), 6);
  EXPECT_EQ(M.readString(Addr), "hello");
  EXPECT_EQ(M.readString(Machine::DataBase - 100), "");
}

//===----------------------------------------------------------------------===//
// Interpreter trap behaviour (hand-assembled modules)
//===----------------------------------------------------------------------===//

Instr mk(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

/// Maps a single hand-written function `raw` as a sealed module.
void mapRaw(Machine &M, std::vector<AsmItem> Items) {
  AsmFunction Fn;
  Fn.Name = "raw";
  Fn.Items = std::move(Items);
  AssembledCode AC = assemble({Fn});

  MCFIObject Obj;
  Obj.Name = "raw";
  Obj.Code = AC.Bytes;
  FunctionInfo Info;
  Info.Name = "raw";
  Obj.Aux.Functions.push_back(Info);
  M.sealModule(M.mapModule(std::move(Obj)));
}

/// Maps a single hand-written function as a sealed module and runs it.
RunResult runRaw(std::vector<AsmItem> Items, uint64_t Fuel = 10000) {
  Machine M;
  mapRaw(M, std::move(Items));
  Thread T;
  EXPECT_TRUE(M.makeThread("raw", T));
  return M.run(T, Fuel);
}

//===----------------------------------------------------------------------===//
// Thread stacks
//===----------------------------------------------------------------------===//

/// Creates threads on `raw` until makeThread refuses (bounded, in case it
/// never does); returns their initial stack pointers.
std::vector<uint64_t> exhaustStacks(Machine &M) {
  mapRaw(M, {AsmItem::instr(mk(Opcode::Halt))});
  MachineOptions Opts;
  std::vector<uint64_t> Tops;
  Thread T;
  while (Tops.size() <= Opts.DataCapacity / Opts.StackSize &&
         M.makeThread("raw", T))
    Tops.push_back(T.Regs[RegSP]);
  return Tops;
}

/// Every stack lies at or above \p Floor and no two stacks overlap.
void expectDisjointStacks(const std::vector<uint64_t> &Tops, uint64_t Floor) {
  const uint64_t Size = MachineOptions().StackSize;
  for (size_t I = 0; I != Tops.size(); ++I) {
    uint64_t End = Tops[I] + 64; // allocStack leaves a 64-byte redzone
    EXPECT_GE(End - Size, Floor) << "stack " << I << " below the floor";
    if (I) {
      EXPECT_LE(End, Tops[I - 1] + 64 - Size) << "stack " << I << " overlaps";
    }
  }
}

TEST(ThreadStacks, ExhaustionRefusesInsteadOfAborting) {
  Machine M;
  std::vector<uint64_t> Tops = exhaustStacks(M);
  // An empty heap leaves the whole data region to stacks.
  MachineOptions Opts;
  EXPECT_EQ(Tops.size(), Opts.DataCapacity / Opts.StackSize);
  expectDisjointStacks(Tops, Machine::DataBase);
  Thread T;
  EXPECT_FALSE(M.makeThread("raw", T)); // refused again, not aborted
}

TEST(ThreadStacks, StacksNeverOverlapTheHeap) {
  Machine M;
  MachineOptions Opts;
  const uint64_t HeapBytes = 40ull << 20;
  uint64_t Obj = M.allocHeap(HeapBytes);
  ASSERT_NE(Obj, 0u);
  std::vector<uint64_t> Tops = exhaustStacks(M);
  EXPECT_EQ(Tops.size(), (Opts.DataCapacity - HeapBytes) / Opts.StackSize);
  expectDisjointStacks(Tops, Obj + HeapBytes);
}

TEST(VM, DivideByZeroTraps) {
  Instr Div = mk(Opcode::DivS);
  Div.Rd = 0;
  Div.Ra = 1;
  Div.Rb = 2; // r2 = 0
  RunResult R = runRaw({AsmItem::instr(Div)});
  EXPECT_EQ(R.Reason, StopReason::Trap);
  EXPECT_NE(R.Message.find("division"), std::string::npos);
}

TEST(VM, LoadFaultTraps) {
  Instr L = mk(Opcode::Load);
  L.Rd = 0;
  L.Ra = 1; // r1 = 0: null page
  RunResult R = runRaw({AsmItem::instr(L)});
  EXPECT_EQ(R.Reason, StopReason::Trap);
  EXPECT_NE(R.Message.find("load fault"), std::string::npos);
}

TEST(VM, JumpOutOfCodeTraps) {
  Instr Mv = mk(Opcode::MovImm);
  Mv.Rd = 1;
  Mv.Imm = 0x12345678;
  Instr J = mk(Opcode::JmpInd);
  J.Ra = 1;
  RunResult R = runRaw({AsmItem::instr(Mv), AsmItem::instr(J)});
  EXPECT_EQ(R.Reason, StopReason::Trap);
  EXPECT_NE(R.Message.find("fetch"), std::string::npos);
}

TEST(VM, HaltIsACfiViolation) {
  RunResult R = runRaw({AsmItem::instr(mk(Opcode::Halt))});
  EXPECT_EQ(R.Reason, StopReason::CfiViolation);
}

TEST(VM, FuelExhaustionStops) {
  // An infinite loop: jmp -5 (back to itself).
  Instr J = mk(Opcode::Jmp);
  J.Off = -5;
  RunResult R = runRaw({AsmItem::instr(J)}, /*Fuel=*/1000);
  EXPECT_EQ(R.Reason, StopReason::OutOfFuel);
  EXPECT_EQ(R.Instructions, 1000u);
}

TEST(VM, StraddlingInstructionTraps) {
  // Regression: the W^X fetch check used to validate only the *first*
  // byte of an instruction against the sealed extent. Craft a sealed
  // module whose final byte is a MovImm opcode (10-byte encoding) so the
  // remaining 9 operand bytes fall into the next, never-sealed module:
  // executing it must trap on the full [PC, PC+Length) span instead of
  // running an instruction that is 90% unsealed bytes.
  MCFIObject A;
  A.Name = "straddle";
  A.Code.assign(7, 0x39);  // nops
  A.Code.push_back(0x01);  // MovImm opcode; operands live in module B
  FunctionInfo Info;
  Info.Name = "raw";
  A.Aux.Functions.push_back(Info);

  Machine M;
  int Idx = M.mapModule(std::move(A));
  M.sealModule(Idx); // sealed prefix = 8 bytes (already 8-aligned)

  MCFIObject B;
  B.Name = "unsealed";
  B.Code.assign(16, 0x00); // decodes as MovImm operands (rd = 0)
  M.mapModule(std::move(B)); // never sealed: writable, not executable

  for (ExecTier Tier : {ExecTier::Interpreter, ExecTier::Threaded}) {
    M.setTier(Tier);
    Thread T;
    ASSERT_TRUE(M.makeThread("raw", T));
    T.PC = Machine::CodeBase + 7; // the straddling MovImm head
    RunResult R = M.run(T, 100);
    EXPECT_EQ(R.Reason, StopReason::Trap) << static_cast<int>(Tier);
    EXPECT_NE(R.Message.find("straddles"), std::string::npos) << R.Message;
    // The trap fires at fetch, before the instruction retires.
    EXPECT_EQ(R.Instructions, 0u);
  }
}

TEST(VM, ExecutingUnsealedModuleTraps) {
  AsmFunction Fn;
  Fn.Name = "raw";
  Fn.Items.push_back(AsmItem::instr(mk(Opcode::Nop)));
  AssembledCode AC = assemble({Fn});
  MCFIObject Obj;
  Obj.Name = "raw";
  Obj.Code = AC.Bytes;
  FunctionInfo Info;
  Info.Name = "raw";
  Obj.Aux.Functions.push_back(Info);

  Machine M;
  M.mapModule(std::move(Obj)); // never sealed: W^X says not executable
  Thread T;
  ASSERT_TRUE(M.makeThread("raw", T));
  RunResult R = M.run(T, 10);
  EXPECT_EQ(R.Reason, StopReason::Trap);
  EXPECT_NE(R.Message.find("W^X"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Syscall interposition via compiled programs
//===----------------------------------------------------------------------===//

Measured runSrc(const char *Source) {
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  BuiltProgram BP = buildProgram({Source}, Spec);
  EXPECT_TRUE(BP.Ok) << BP.Error;
  if (!BP.Ok)
    return {};
  return measureRun(BP);
}

TEST(Syscalls, MallocExhaustionReturnsNull) {
  Measured M = runSrc(R"(
    int main() {
      /* Ask for more than the data region can hold. */
      long *p = (long *)malloc(1024 * 1024 * 1024);
      if (p == NULL) { print_str("null\n"); return 0; }
      return 1;
    }
  )");
  EXPECT_EQ(M.Result.Reason, StopReason::Exited);
  EXPECT_EQ(M.Output, "null\n");
  EXPECT_EQ(M.Result.ExitCode, 0);
}

TEST(Syscalls, PrintFormatsNegativeNumbers) {
  Measured M = runSrc(R"(
    int main() { print_int(-12345); return 0; }
  )");
  EXPECT_EQ(M.Output, "-12345\n");
}

TEST(Syscalls, NestedSignalsUnwindInOrder) {
  Measured M = runSrc(R"(
    int depth = 0;
    void inner(int s) { print_str("inner\n"); }
    void outer(int s) {
      print_str("outer-pre\n");
      signal(2, inner);
      raise(2);
      print_str("outer-post\n");
    }
    int main() {
      signal(1, outer);
      raise(1);
      print_str("main\n");
      return 0;
    }
  )");
  EXPECT_EQ(M.Result.Reason, StopReason::Exited) << M.Result.Message;
  EXPECT_EQ(M.Output, "outer-pre\ninner\nouter-post\nmain\n");
}

TEST(Syscalls, RaiseWithoutTrampolineTraps) {
  // Regression: raising a signal when no sigreturn trampoline was ever
  // loaded used to hit a bare assert (a release-build jump to address 0
  // once the handler returned). It must stop the thread with a Trap.
  const char *Source = R"(
    void h(int s) { print_str("handled\n"); }
    int main() {
      signal(3, h);
      raise(3);
      return 0;
    }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  BuiltProgram BP = buildProgram({Source}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  // Simulate a loader that never provided sig$return.
  BP.M->SigReturnAddr = 0;
  Measured M = measureRun(BP);
  EXPECT_EQ(M.Result.Reason, StopReason::Trap) << M.Result.Message;
  EXPECT_NE(M.Result.Message.find("sigreturn"), std::string::npos)
      << M.Result.Message;
  EXPECT_EQ(M.Output.find("handled"), std::string::npos);
}

TEST(Syscalls, SetjmpSecondLongjmpStillValid) {
  Measured M = runSrc(R"(
    long buf[4];
    int main() {
      long count = 0;
      long r = setjmp(buf);
      count = count + 1;
      if (r < 3)
        longjmp(buf, r + 1);
      print_int(count);
      return 0;
    }
  )");
  EXPECT_EQ(M.Result.Reason, StopReason::Exited) << M.Result.Message;
  EXPECT_EQ(M.Output, "4\n");
}

TEST(Syscalls, DlopenWithoutRegistryFails) {
  Measured M = runSrc(R"(
    int main() {
      if (dlopen(7) < 0) { print_str("no lib\n"); return 0; }
      return 1;
    }
  )");
  EXPECT_EQ(M.Result.Reason, StopReason::Exited);
  EXPECT_EQ(M.Output, "no lib\n");
}

TEST(Syscalls, DlsymUnknownReturnsNull) {
  Measured M = runSrc(R"(
    int main() {
      void *p = dlsym(-1, "no_such_function");
      if (p == NULL) { print_str("null\n"); return 0; }
      return 1;
    }
  )");
  EXPECT_EQ(M.Output, "null\n");
}

//===----------------------------------------------------------------------===//
// Instruction accounting
//===----------------------------------------------------------------------===//

TEST(Quiescence, EpochHookFiresWhenAllThreadsCrossSyscall) {
  Machine M;
  // Age the version space with empty updates until it reads low.
  auto Age = [&] {
    M.tables().txUpdate(0, [](uint64_t) -> int64_t { return -1; }, 0,
                        [](uint32_t) -> int64_t { return -1; });
  };
  while (!M.tables().versionSpaceLow())
    Age();

  std::vector<uint64_t> Generations;
  M.QuiesceEpochHook = [&](uint64_t Gen) { Generations.push_back(Gen); };

  // No guest thread is inside the interpreter (RunningThreads == 0), so
  // a single thread crossing a syscall boundary completes the
  // generation: the epoch resets and the hook fires with generation 1.
  Thread T;
  M.noteSyscallBoundary(T);
  ASSERT_EQ(Generations.size(), 1u);
  EXPECT_EQ(Generations[0], 1u);
  EXPECT_FALSE(M.tables().versionSpaceLow());
  EXPECT_EQ(M.tables().updatesSinceEpoch(), 0u);

  // Every completed generation advances the counter by exactly one, and
  // the hook sees them in order with no gaps or repeats.
  M.noteSyscallBoundary(T);
  M.noteSyscallBoundary(T);
  ASSERT_EQ(Generations.size(), 3u);
  for (size_t I = 0; I < Generations.size(); ++I)
    EXPECT_EQ(Generations[I], I + 1) << "generations must be consecutive";
}

TEST(VM, InstructionCountsAreDeterministic) {
  const char *Source = R"(
    long f(long n) {
      long acc = 0;
      long i;
      for (i = 0; i < n; i = i + 1) acc = acc + i * i;
      return acc;
    }
    int main() { print_int(f(100)); return 0; }
  )";
  Measured A = runSrc(Source);
  Measured B = runSrc(Source);
  EXPECT_EQ(A.Result.Instructions, B.Result.Instructions);
  EXPECT_EQ(A.Output, B.Output);
}

} // namespace
