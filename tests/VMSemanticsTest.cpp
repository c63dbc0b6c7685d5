//===- tests/VMSemanticsTest.cpp - Interpreter semantics sweeps -----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property sweeps over the VISA interpreter: every ALU opcode is
/// executed on randomized operands inside a real mapped module and
/// compared against a host-side reference semantics. Also covers shifts'
/// modulo-64 behaviour, sign extension of sub-word loads, push/pop
/// pairing, and the bounds of guest memory (region ends, alignment, the
/// read-only code region, addresses that wrap 2^64) on both tiers.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "runtime/Machine.h"
#include "support/RNG.h"
#include "visa/Assembler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

Instr mk(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

/// Runs "r0 = A op B; exit(r0)" on the VM; returns r0.
uint64_t evalBinary(Opcode Op, uint64_t A, uint64_t B) {
  AsmFunction Fn;
  Fn.Name = "f";
  Instr MA = mk(Opcode::MovImm);
  MA.Rd = 2;
  MA.Imm = A;
  Instr MB = mk(Opcode::MovImm);
  MB.Rd = 3;
  MB.Imm = B;
  Instr OpI = mk(Op);
  OpI.Rd = 0;
  OpI.Ra = 2;
  OpI.Rb = 3;
  Fn.Items.push_back(AsmItem::instr(MA));
  Fn.Items.push_back(AsmItem::instr(MB));
  Fn.Items.push_back(AsmItem::instr(OpI));
  Instr Mv = mk(Opcode::Mov);
  Mv.Rd = 1;
  Mv.Ra = 0;
  Fn.Items.push_back(AsmItem::instr(Mv));
  Instr Sys = mk(Opcode::Syscall);
  Sys.Imm = static_cast<uint64_t>(SyscallNo::Exit);
  Fn.Items.push_back(AsmItem::instr(Sys));

  MCFIObject Obj;
  Obj.Name = "sem";
  Obj.Code = assemble({Fn}).Bytes;
  FunctionInfo Info;
  Info.Name = "f";
  Obj.Aux.Functions.push_back(Info);

  // A small machine keeps the 680-trial sweep fast.
  MachineOptions Small;
  Small.CodeCapacity = 1 << 16;
  Small.DataCapacity = 4 << 20;
  Small.StackSize = 1 << 16;
  Small.BaryCapacity = 16;
  Machine M(Small);
  int Idx = M.mapModule(std::make_shared<const MCFIObject>(std::move(Obj)));
  M.sealModule(Idx);
  Thread T;
  EXPECT_TRUE(M.makeThread("f", T));
  RunResult R = M.run(T, 100);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  return static_cast<uint64_t>(R.ExitCode);
}

/// Host reference semantics.
uint64_t reference(Opcode Op, uint64_t A, uint64_t B) {
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  switch (Op) {
  case Opcode::Add:
    return A + B;
  case Opcode::Sub:
    return A - B;
  case Opcode::Mul:
    return A * B;
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return A << (B & 63);
  case Opcode::ShrL:
    return A >> (B & 63);
  case Opcode::ShrA:
    return static_cast<uint64_t>(SA >> (B & 63));
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLtS:
    return SA < SB;
  case Opcode::CmpLeS:
    return SA <= SB;
  case Opcode::CmpLtU:
    return A < B;
  case Opcode::CmpLeU:
    return A <= B;
  case Opcode::DivS:
    return static_cast<uint64_t>(SA / SB);
  case Opcode::ModS:
    return static_cast<uint64_t>(SA % SB);
  default:
    ADD_FAILURE() << "unexpected opcode";
    return 0;
  }
}

class AluSweep : public ::testing::TestWithParam<Opcode> {};

TEST_P(AluSweep, MatchesReferenceOnRandomOperands) {
  Opcode Op = GetParam();
  RNG R(0xA1u + static_cast<uint8_t>(Op));
  for (int Trial = 0; Trial != 40; ++Trial) {
    uint64_t A = R.next();
    uint64_t B = R.next();
    // Shape interesting operand classes.
    if (Trial % 4 == 1)
      B = R.below(8);
    if (Trial % 4 == 2)
      A = static_cast<uint64_t>(-static_cast<int64_t>(R.below(1000)));
    if (Op == Opcode::DivS || Op == Opcode::ModS) {
      if (B == 0)
        B = 3;
      if (static_cast<int64_t>(A) == INT64_MIN &&
          static_cast<int64_t>(B) == -1)
        A = 42;
    }
    EXPECT_EQ(evalBinary(Op, A, B), reference(Op, A, B))
        << printInstr(mk(Op)) << " A=" << A << " B=" << B;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllALU, AluSweep,
    ::testing::Values(Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::DivS,
                      Opcode::ModS, Opcode::And, Opcode::Or, Opcode::Xor,
                      Opcode::Shl, Opcode::ShrL, Opcode::ShrA, Opcode::CmpEq,
                      Opcode::CmpNe, Opcode::CmpLtS, Opcode::CmpLeS,
                      Opcode::CmpLtU, Opcode::CmpLeU),
    [](const auto &Info) {
      Instr I;
      I.Op = Info.param;
      std::string Name = printInstr(I);
      return Name.substr(0, Name.find(' '));
    });

//===----------------------------------------------------------------------===//
// Loads: zero-extension of sub-word reads; push/pop pairing
//===----------------------------------------------------------------------===//

TEST(VMSemantics, SubWordLoadsZeroExtend) {
  // Store 0xFFFF_FFFF_FFFF_FFFF to memory, read back each width.
  AsmFunction Fn;
  Fn.Name = "f";
  Instr Addr = mk(Opcode::MovImm);
  Addr.Rd = 2;
  Addr.Imm = Machine::DataBase + 1024;
  Fn.Items.push_back(AsmItem::instr(Addr));
  Instr Val = mk(Opcode::MovImm);
  Val.Rd = 3;
  Val.Imm = ~0ull;
  Fn.Items.push_back(AsmItem::instr(Val));
  Instr St = mk(Opcode::Store);
  St.Rd = 2;
  St.Ra = 3;
  Fn.Items.push_back(AsmItem::instr(St));
  Instr L16 = mk(Opcode::Load16);
  L16.Rd = 1;
  L16.Ra = 2;
  Fn.Items.push_back(AsmItem::instr(L16));
  Instr Sys = mk(Opcode::Syscall);
  Sys.Imm = static_cast<uint64_t>(SyscallNo::Exit);
  Fn.Items.push_back(AsmItem::instr(Sys));

  MCFIObject Obj;
  Obj.Name = "sem";
  Obj.Code = assemble({Fn}).Bytes;
  FunctionInfo Info;
  Info.Name = "f";
  Obj.Aux.Functions.push_back(Info);
  Machine M;
  int Idx = M.mapModule(std::make_shared<const MCFIObject>(std::move(Obj)));
  M.sealModule(Idx);
  Thread T;
  ASSERT_TRUE(M.makeThread("f", T));
  RunResult R = M.run(T, 100);
  ASSERT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(static_cast<uint64_t>(R.ExitCode), 0xFFFFu); // zero-extended
}

TEST(VMSemantics, PushPopRoundTrip) {
  AsmFunction Fn;
  Fn.Name = "f";
  Instr V = mk(Opcode::MovImm);
  V.Rd = 2;
  V.Imm = 0xDEADBEEFCAFEull;
  Fn.Items.push_back(AsmItem::instr(V));
  Instr Push = mk(Opcode::Push);
  Push.Ra = 2;
  Fn.Items.push_back(AsmItem::instr(Push));
  Instr Clear = mk(Opcode::MovImm);
  Clear.Rd = 2;
  Clear.Imm = 0;
  Fn.Items.push_back(AsmItem::instr(Clear));
  Instr Pop = mk(Opcode::Pop);
  Pop.Rd = 1;
  Pop.Ra = 1; // single-register shapes encode from Ra
  Fn.Items.push_back(AsmItem::instr(Pop));
  Instr Sys = mk(Opcode::Syscall);
  Sys.Imm = static_cast<uint64_t>(SyscallNo::Exit);
  Fn.Items.push_back(AsmItem::instr(Sys));

  MCFIObject Obj;
  Obj.Name = "sem";
  Obj.Code = assemble({Fn}).Bytes;
  FunctionInfo Info;
  Info.Name = "f";
  Obj.Aux.Functions.push_back(Info);
  Machine M;
  int Idx = M.mapModule(std::make_shared<const MCFIObject>(std::move(Obj)));
  M.sealModule(Idx);
  Thread T;
  ASSERT_TRUE(M.makeThread("f", T));
  RunResult R = M.run(T, 100);
  ASSERT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(static_cast<uint64_t>(R.ExitCode), 0xDEADBEEFCAFEull);
}

//===----------------------------------------------------------------------===//
// Guest-memory bounds, identical on both tiers
//===----------------------------------------------------------------------===//

/// A guest access: its size and whether it stores StoredValue.
struct Access {
  unsigned Size;
  bool IsStore;
};

Opcode accessOpcode(Access A) {
  switch (A.Size) {
  case 1:
    return A.IsStore ? Opcode::Store8 : Opcode::Load8;
  case 2:
    return A.IsStore ? Opcode::Store16 : Opcode::Load16;
  case 4:
    return A.IsStore ? Opcode::Store32 : Opcode::Load32;
  default:
    return A.IsStore ? Opcode::Store : Opcode::Load;
  }
}

/// One run of "r2 = Addr; [store r3 -> Addr;] r1 = load Addr; exit(r1)"
/// on a small machine, and the thread's final PC.
struct AccessRun {
  RunResult R;
  uint64_t PC = 0;
};

constexpr uint64_t StoredValue = 0x8877665544332211ull;
constexpr uint64_t SmallDataCapacity = 4 << 20;

/// The address comes from \p Addr, given the end of the mapped code.
using AddrFn = std::function<uint64_t(uint64_t CodeTop)>;

AccessRun runAccess(ExecTier Tier, Access A, const AddrFn &Addr) {
  MachineOptions Small;
  Small.CodeCapacity = 1 << 16;
  Small.DataCapacity = SmallDataCapacity;
  Small.StackSize = 1 << 16;
  Small.BaryCapacity = 16;
  Small.Tier = Tier;
  Machine M(Small);
  auto Assemble = [&](uint64_t Target) {
    AsmFunction Fn;
    Fn.Name = "f";
    Instr Base = mk(Opcode::MovImm);
    Base.Rd = 2;
    Base.Imm = Target;
    Fn.Items.push_back(AsmItem::instr(Base));
    if (A.IsStore) {
      Instr Val = mk(Opcode::MovImm);
      Val.Rd = 3;
      Val.Imm = StoredValue;
      Fn.Items.push_back(AsmItem::instr(Val));
      Instr St = mk(accessOpcode(A));
      St.Rd = 2;
      St.Ra = 3;
      Fn.Items.push_back(AsmItem::instr(St));
    }
    Instr Ld = mk(accessOpcode({A.Size, false}));
    Ld.Rd = 1;
    Ld.Ra = 2;
    Fn.Items.push_back(AsmItem::instr(Ld));
    Instr Sys = mk(Opcode::Syscall);
    Sys.Imm = static_cast<uint64_t>(SyscallNo::Exit);
    Fn.Items.push_back(AsmItem::instr(Sys));
    MCFIObject Obj;
    Obj.Name = "mem";
    Obj.Code = assemble({Fn}).Bytes;
    FunctionInfo Info;
    Info.Name = "f";
    Obj.Aux.Functions.push_back(Info);
    return Obj;
  };
  // MovImm's immediate has a fixed width, so the program's length, and
  // with it the end of the mapped code, does not depend on the address.
  uint64_t CodeTop =
      Machine::CodeBase + ((Assemble(0).Code.size() + 7) & ~7ull);
  int Idx =
      M.mapModule(std::make_shared<const MCFIObject>(Assemble(Addr(CodeTop))));
  EXPECT_EQ(M.codeTop(), CodeTop);
  M.sealModule(Idx);
  Thread T;
  EXPECT_TRUE(M.makeThread("f", T));
  AccessRun Out;
  Out.R = M.run(T, 100);
  Out.PC = T.PC;
  return Out;
}

/// Runs the access on both tiers, expects identical RunResults and
/// final PCs, and returns the interpreter's.
AccessRun runAccessOnBothTiers(Access A, const AddrFn &Addr,
                               const std::string &What) {
  AccessRun Ref = runAccess(ExecTier::Interpreter, A, Addr);
  AccessRun Got = runAccess(ExecTier::Threaded, A, Addr);
  EXPECT_EQ(Ref.R.Reason, Got.R.Reason) << What << ": " << Got.R.Message;
  EXPECT_EQ(Ref.R.ExitCode, Got.R.ExitCode) << What;
  EXPECT_EQ(Ref.R.Instructions, Got.R.Instructions) << What;
  EXPECT_EQ(Ref.R.Message, Got.R.Message) << What;
  EXPECT_EQ(Ref.PC, Got.PC) << What;
  return Ref;
}

uint64_t lowBytes(uint64_t V, unsigned Size) {
  return Size == 8 ? V : V & ((1ull << (8 * Size)) - 1);
}

/// "load fault at 0x... (pc 0x...)" or the store form, for \p Addr.
std::string faultPrefix(bool IsStore, uint64_t Addr) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%s fault at 0x%llx (pc 0x",
                IsStore ? "store" : "load",
                static_cast<unsigned long long>(Addr));
  return Buf;
}

void expectFault(const AccessRun &Run, bool IsStore, uint64_t Addr,
                 const std::string &What) {
  EXPECT_EQ(Run.R.Reason, StopReason::Trap) << What << ": " << Run.R.Message;
  EXPECT_EQ(Run.R.Message.rfind(faultPrefix(IsStore, Addr), 0), 0u)
      << What << ": " << Run.R.Message;
}

TEST(GuestMemoryBounds, LastDataSlotPassesAndOneFurtherTraps) {
  uint64_t End = Machine::DataBase + SmallDataCapacity;
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    for (bool IsStore : {false, true}) {
      std::string What = std::string(IsStore ? "store" : "load") +
                         std::to_string(Size);
      AccessRun Last = runAccessOnBothTiers(
          {Size, IsStore}, [&](uint64_t) { return End - Size; },
          What + " at the last slot");
      ASSERT_EQ(Last.R.Reason, StopReason::Exited)
          << What << ": " << Last.R.Message;
      // The stack's red zone: untouched memory reads 0.
      EXPECT_EQ(static_cast<uint64_t>(Last.R.ExitCode),
                IsStore ? lowBytes(StoredValue, Size) : 0u)
          << What;

      AccessRun Past = runAccessOnBothTiers(
          {Size, IsStore}, [&](uint64_t) { return End; },
          What + " one slot further");
      expectFault(Past, IsStore, End, What + " one slot further");
    }
  }
}

TEST(GuestMemoryBounds, MisalignedAccessTraps) {
  uint64_t Addr = Machine::DataBase + 1024 + 1;
  for (unsigned Size : {2u, 4u, 8u}) {
    for (bool IsStore : {false, true}) {
      std::string What = std::string(IsStore ? "store" : "load") +
                         std::to_string(Size) + " misaligned";
      expectFault(runAccessOnBothTiers(
                      {Size, IsStore},
                      [&](uint64_t) { return Addr; }, What),
                  IsStore, Addr, What);
    }
  }
}

TEST(GuestMemoryBounds, CodeReadsPassAndCodeStoresTrap) {
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    std::string What = "code load" + std::to_string(Size);
    AccessRun Read = runAccessOnBothTiers(
        {Size, false}, [&](uint64_t Top) { return Top - Size; }, What);
    EXPECT_EQ(Read.R.Reason, StopReason::Exited) << What << ": "
                                                 << Read.R.Message;
    // Past the code region's mapped extent, a read faults.
    uint64_t Past = 0;
    AccessRun Beyond = runAccessOnBothTiers(
        {Size, false}, [&](uint64_t Top) { return Past = Top; },
        What + " past the mapped code");
    expectFault(Beyond, false, Past, What + " past the mapped code");

    uint64_t Target = 0;
    AccessRun Write = runAccessOnBothTiers(
        {Size, true}, [&](uint64_t Top) { return Target = Top - Size; },
        "code store" + std::to_string(Size));
    expectFault(Write, true, Target, "code store" + std::to_string(Size));
  }
}

TEST(GuestMemoryBounds, AddressesThatWrapTrapOnEverySize) {
  // [Addr, Addr + Size) wraps past 2^64: a bounds test computing
  // Addr + Size would pass it, and the host access would land outside
  // every region.
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    for (bool IsStore : {false, true}) {
      uint64_t Addr = 0 - static_cast<uint64_t>(Size);
      std::string What = std::string(IsStore ? "store" : "load") +
                         std::to_string(Size) + " at 2^64 - size";
      expectFault(runAccessOnBothTiers(
                      {Size, IsStore},
                      [&](uint64_t) { return Addr; }, What),
                  IsStore, Addr, What);
    }
  }
}

/// Builds \p Source (instrumented and verified, or neither) on \p Tier
/// and runs it.
RunResult runMiniC(const std::string &Source, bool Instrument, ExecTier Tier) {
  BuildSpec Spec;
  Spec.Instrument = Instrument;
  Spec.Tier = Tier;
  BuiltProgram BP = buildProgram({Source}, Spec);
  EXPECT_TRUE(BP.Ok) << BP.Error;
  if (!BP.Ok)
    return {};
  return measureRun(BP, 1 << 20).Result;
}

void expectWrapTrapOnBothTiers(const std::string &Source, bool Instrument,
                               bool IsStore) {
  RunResult Ref = runMiniC(Source, Instrument, ExecTier::Interpreter);
  RunResult Got = runMiniC(Source, Instrument, ExecTier::Threaded);
  uint64_t Addr = 0xfffffffffffffff8ull;
  expectFault({Ref, 0}, IsStore, Addr, "interpreter");
  EXPECT_EQ(Ref.Reason, Got.Reason) << Got.Message;
  EXPECT_EQ(Ref.Instructions, Got.Instructions);
  EXPECT_EQ(Ref.Message, Got.Message);
}

TEST(GuestMemoryBounds, InstrumentedLoadBelowNullTraps) {
  // MCFI masks stores, not loads, so this passes the verifier; the
  // runtime's bounds test is what stops it.
  expectWrapTrapOnBothTiers(
      "int main() { long *p = 0; p = p - 1; return *p; }", true, false);
}

TEST(GuestMemoryBounds, UnverifiedStoreBelowNullTraps) {
  expectWrapTrapOnBothTiers(
      "int main() { long *p = 0; p = p - 1; *p = 5; return 0; }", false,
      true);
}

} // namespace
