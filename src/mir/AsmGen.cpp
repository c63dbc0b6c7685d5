//===- mir/AsmGen.cpp - MIR to symbolic VISA code generation --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mir/AsmGen.h"

#include "ctypes/Layout.h"
#include "support/Assert.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::mir;
using namespace mcfi::visa;

namespace {

/// Per-function code generation. Virtual registers live in the frame at
/// [sp + 8*vreg]; frame objects follow at [sp + 8*NumVRegs + objOffset].
/// Scratch registers: r6 = operand A / result, r7 = operand B,
/// r8 = address or indirect-branch target staging.
class FuncGen {
public:
  FuncGen(const MirFunction &MF, uint32_t FuncIndex, PendingModule &PM,
          const AsmGenOptions &Opts)
      : MF(MF), FuncIndex(FuncIndex), PM(PM), Opts(Opts) {
    Out.Name = MF.Name;
    // Reserve label ids for blocks.
    Out.NextLabel = static_cast<int>(MF.Blocks.size());
    // Frame layout.
    ObjOffset.resize(MF.FrameObjects.size());
    uint64_t Off = 8ull * MF.NumVRegs;
    for (size_t I = 0; I != MF.FrameObjects.size(); ++I) {
      ObjOffset[I] = Off;
      Off += alignTo(MF.FrameObjects[I], 8);
    }
    FrameSize = Off;
    EpilogueLabel = Out.newLabel();
    // Reserving about four items per MIR instruction (operand loads, the
    // op, the result store) spares the vector its regrowth copies.
    size_t Insts = 0;
    for (const MirBlock &B : MF.Blocks)
      Insts += B.Insts.size();
    Out.Items.reserve(4 * Insts + MF.Blocks.size() + MF.NumParams + 4);
  }

  AsmFunction run() {
    emitPrologue();
    for (uint32_t B = 0; B != MF.Blocks.size(); ++B) {
      Out.Items.push_back(AsmItem::label(static_cast<int>(B)));
      for (const MirInst &I : MF.Blocks[B].Insts)
        emitInst(I);
    }
    emitEpilogue();
    emitJumpTables();
    return std::move(Out);
  }

private:
  //===--------------------------------------------------------------------===//
  // Instruction helpers
  //===--------------------------------------------------------------------===//

  void op(Instr I) { Out.Items.push_back(AsmItem::instr(I)); }

  static Instr mk(Opcode Op) {
    Instr I;
    I.Op = Op;
    return I;
  }

  /// Loads vreg \p V into register \p R.
  void loadVReg(uint8_t R, uint32_t V) {
    assert(V != NoVReg && "loading unassigned vreg");
    Instr I = mk(Opcode::Load);
    I.Rd = R;
    I.Ra = RegSP;
    I.Off = static_cast<int32_t>(8 * V);
    op(I);
  }

  /// Stores register \p R into vreg \p V.
  void storeVReg(uint32_t V, uint8_t R) {
    if (V == NoVReg)
      return;
    Instr I = mk(Opcode::Store);
    I.Rd = RegSP;
    I.Ra = R;
    I.Off = static_cast<int32_t>(8 * V);
    op(I);
  }

  void movImm(uint8_t R, uint64_t Imm) {
    Instr I = mk(Opcode::MovImm);
    I.Rd = R;
    I.Imm = Imm;
    op(I);
  }

  void addImm(uint8_t R, int32_t Delta) {
    if (Delta == 0)
      return;
    Instr I = mk(Opcode::AddImm);
    I.Rd = R;
    I.Off = Delta;
    op(I);
  }

  void jmpLabel(int Label) {
    AsmItem It = AsmItem::instr(mk(Opcode::Jmp));
    It.Label = Label;
    Out.Items.push_back(It);
  }

  void condLabel(Opcode Op, uint8_t R, int Label) {
    Instr I = mk(Op);
    I.Ra = R;
    AsmItem It = AsmItem::instr(I);
    It.Label = Label;
    Out.Items.push_back(It);
  }

  int addMeta(SiteMeta M) {
    PM.Meta.push_back(std::move(M));
    return static_cast<int>(PM.Meta.size() - 1);
  }

  //===--------------------------------------------------------------------===//
  // Prologue / epilogue
  //===--------------------------------------------------------------------===//

  void emitPrologue() {
    addImm(RegSP, -static_cast<int32_t>(FrameSize));
    // Store incoming arguments into their parameter frame objects.
    for (uint32_t P = 0; P != MF.NumParams; ++P) {
      Instr I = mk(Opcode::Store);
      I.Rd = RegSP;
      I.Ra = static_cast<uint8_t>(RegArg0 + P);
      I.Off = static_cast<int32_t>(ObjOffset[P]);
      op(I);
    }
  }

  void emitEpilogue() {
    Out.Items.push_back(AsmItem::label(EpilogueLabel));
    addImm(RegSP, static_cast<int32_t>(FrameSize));
    op(mk(Opcode::Ret));
  }

  //===--------------------------------------------------------------------===//
  // Jump tables (switch lowering)
  //===--------------------------------------------------------------------===//

  struct PendingTable {
    int TableLabel;
    std::vector<int> TargetLabels; ///< block labels, in index order
  };
  std::vector<PendingTable> Tables;

  void emitJumpTables() {
    for (const PendingTable &T : Tables) {
      Out.Items.push_back(AsmItem::align8());
      Out.Items.push_back(AsmItem::label(T.TableLabel));
      for (int Target : T.TargetLabels)
        Out.Items.push_back(AsmItem::data64(Target));
    }
  }

  void emitSwitch(const MirInst &I) {
    loadVReg(6, I.A);
    int DefaultLabel = static_cast<int>(I.BlockB);

    int64_t Lo = INT64_MAX, Hi = INT64_MIN;
    for (const auto &[V, B] : I.SwitchCases) {
      Lo = std::min(Lo, V);
      Hi = std::max(Hi, V);
    }
    uint64_t Range =
        I.SwitchCases.empty() ? 0 : static_cast<uint64_t>(Hi - Lo) + 1;
    bool UseTable = I.SwitchCases.size() >= Opts.JumpTableMinCases &&
                    Range <= static_cast<uint64_t>(Opts.JumpTableMaxRange) *
                                 I.SwitchCases.size() &&
                    Range <= 4096;

    if (!UseTable) {
      // Compare chain.
      for (const auto &[V, B] : I.SwitchCases) {
        movImm(7, static_cast<uint64_t>(V));
        Instr C = mk(Opcode::CmpEq);
        C.Rd = 8;
        C.Ra = 6;
        C.Rb = 7;
        op(C);
        condLabel(Opcode::Jnz, 8, static_cast<int>(B));
      }
      jmpLabel(DefaultLabel);
      return;
    }

    // Jump table: r6 = index - lo; bounds check; load entry; jmpi.
    addImm(6, static_cast<int32_t>(-Lo));
    movImm(7, Range);
    {
      Instr C = mk(Opcode::CmpLtU);
      C.Rd = 7;
      C.Ra = 6;
      C.Rb = 7;
      op(C);
    }
    condLabel(Opcode::Jz, 7, DefaultLabel);

    int TableLabel = Out.newLabel();
    // r8 = table base (absolute code address, patched at load time).
    {
      Instr M = mk(Opcode::MovImm);
      M.Rd = 8;
      AsmItem It = AsmItem::instr(M);
      It.Label = TableLabel;
      It.Reloc = RelocKind::CodeAddr64;
      Out.Items.push_back(It);
    }
    movImm(7, 3);
    {
      Instr S = mk(Opcode::Shl);
      S.Rd = 6;
      S.Ra = 6;
      S.Rb = 7;
      op(S);
    }
    {
      Instr A = mk(Opcode::Add);
      A.Rd = 8;
      A.Ra = 8;
      A.Rb = 6;
      op(A);
    }
    {
      Instr L = mk(Opcode::Load);
      L.Rd = 8;
      L.Ra = 8;
      L.Off = 0;
      op(L);
    }

    // Dense table: one entry per value in [lo, hi]; missing values map to
    // the default block.
    std::vector<int> Targets(Range, DefaultLabel);
    for (const auto &[V, B] : I.SwitchCases)
      Targets[static_cast<uint64_t>(V - Lo)] = static_cast<int>(B);

    PendingJumpTable PJT;
    PJT.FuncIndex = FuncIndex;
    int JmpLabel = Out.newLabel();
    Out.Items.push_back(AsmItem::label(JmpLabel));
    {
      Instr J = mk(Opcode::JmpInd);
      J.Ra = 8;
      AsmItem It = AsmItem::instr(J);
      SiteMeta M;
      M.K = SiteMeta::Kind::JumpTableJump;
      M.JumpTableIndex = static_cast<uint32_t>(PM.JumpTables.size());
      It.Meta = addMeta(M);
      Out.Items.push_back(It);
    }
    PJT.JmpLabel = JmpLabel;
    PJT.TableLabel = TableLabel;
    PJT.TargetLabels.assign(Targets.begin(), Targets.end());
    PM.JumpTables.push_back(PJT);
    Tables.push_back({TableLabel, std::move(Targets)});
  }

  //===--------------------------------------------------------------------===//
  // Instructions
  //===--------------------------------------------------------------------===//

  static Opcode binOpcode(MirOp Op) {
    switch (Op) {
    case MirOp::Add:
      return Opcode::Add;
    case MirOp::Sub:
      return Opcode::Sub;
    case MirOp::Mul:
      return Opcode::Mul;
    case MirOp::DivS:
      return Opcode::DivS;
    case MirOp::ModS:
      return Opcode::ModS;
    case MirOp::And:
      return Opcode::And;
    case MirOp::Or:
      return Opcode::Or;
    case MirOp::Xor:
      return Opcode::Xor;
    case MirOp::Shl:
      return Opcode::Shl;
    case MirOp::ShrL:
      return Opcode::ShrL;
    case MirOp::ShrA:
      return Opcode::ShrA;
    case MirOp::CmpEq:
      return Opcode::CmpEq;
    case MirOp::CmpNe:
      return Opcode::CmpNe;
    case MirOp::CmpLtS:
      return Opcode::CmpLtS;
    case MirOp::CmpLeS:
      return Opcode::CmpLeS;
    case MirOp::CmpLtU:
      return Opcode::CmpLtU;
    case MirOp::CmpLeU:
      return Opcode::CmpLeU;
    default:
      mcfi_unreachable("not a binary MirOp");
    }
  }

  void loadArgs(const std::vector<uint32_t> &Args) {
    assert(Args.size() <= 5 && "argument registers exhausted");
    for (size_t I = 0; I != Args.size(); ++I)
      loadVReg(static_cast<uint8_t>(RegArg0 + I), Args[I]);
  }

  void emitInst(const MirInst &I) {
    switch (I.Op) {
    case MirOp::ConstInt:
      movImm(6, static_cast<uint64_t>(I.Imm));
      storeVReg(I.Dst, 6);
      return;
    case MirOp::FrameAddr: {
      Instr M = mk(Opcode::Mov);
      M.Rd = 6;
      M.Ra = RegSP;
      op(M);
      addImm(6, static_cast<int32_t>(ObjOffset[static_cast<size_t>(I.Imm)]));
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::GlobalAddr:
    case MirOp::FuncAddr: {
      Instr M = mk(Opcode::MovImm);
      M.Rd = 6;
      AsmItem It = AsmItem::instr(M);
      It.Reloc = I.Op == MirOp::GlobalAddr ? RelocKind::GlobalAddr64
                                           : RelocKind::FuncAddr64;
      It.Symbol = I.Sym;
      Out.Items.push_back(It);
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::Load: {
      loadVReg(6, I.A);
      Opcode LoadOp = I.Size == 1   ? Opcode::Load8
                      : I.Size == 2 ? Opcode::Load16
                      : I.Size == 4 ? Opcode::Load32
                                    : Opcode::Load;
      Instr L = mk(LoadOp);
      L.Rd = 6;
      L.Ra = 6;
      L.Off = 0;
      op(L);
      if (I.SignExtend && I.Size < 8) {
        unsigned Shift = 64 - 8u * I.Size;
        movImm(7, Shift);
        Instr S1 = mk(Opcode::Shl);
        S1.Rd = 6;
        S1.Ra = 6;
        S1.Rb = 7;
        op(S1);
        Instr S2 = mk(Opcode::ShrA);
        S2.Rd = 6;
        S2.Ra = 6;
        S2.Rb = 7;
        op(S2);
      }
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::FrameLoad: {
      Opcode LoadOp = I.Size == 1   ? Opcode::Load8
                      : I.Size == 2 ? Opcode::Load16
                      : I.Size == 4 ? Opcode::Load32
                                    : Opcode::Load;
      Instr L = mk(LoadOp);
      L.Rd = 6;
      L.Ra = RegSP;
      L.Off = static_cast<int32_t>(ObjOffset[static_cast<size_t>(I.Imm)]);
      op(L);
      if (I.SignExtend && I.Size < 8) {
        unsigned Shift = 64 - 8u * I.Size;
        movImm(7, Shift);
        Instr S1 = mk(Opcode::Shl);
        S1.Rd = 6;
        S1.Ra = 6;
        S1.Rb = 7;
        op(S1);
        Instr S2 = mk(Opcode::ShrA);
        S2.Rd = 6;
        S2.Ra = 6;
        S2.Rb = 7;
        op(S2);
      }
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::FrameStore: {
      loadVReg(6, I.A);
      Opcode StoreOp = I.Size == 1   ? Opcode::Store8
                       : I.Size == 2 ? Opcode::Store16
                       : I.Size == 4 ? Opcode::Store32
                                     : Opcode::Store;
      Instr S = mk(StoreOp);
      S.Rd = RegSP;
      S.Ra = 6;
      S.Off = static_cast<int32_t>(ObjOffset[static_cast<size_t>(I.Imm)]);
      op(S);
      return;
    }
    case MirOp::Store: {
      loadVReg(6, I.A);
      loadVReg(7, I.B);
      Opcode StoreOp = I.Size == 1   ? Opcode::Store8
                       : I.Size == 2 ? Opcode::Store16
                       : I.Size == 4 ? Opcode::Store32
                                     : Opcode::Store;
      Instr S = mk(StoreOp);
      S.Rd = 6;
      S.Ra = 7;
      S.Off = 0;
      op(S);
      return;
    }
    case MirOp::Add:
    case MirOp::Sub:
    case MirOp::Mul:
    case MirOp::DivS:
    case MirOp::ModS:
    case MirOp::And:
    case MirOp::Or:
    case MirOp::Xor:
    case MirOp::Shl:
    case MirOp::ShrL:
    case MirOp::ShrA:
    case MirOp::CmpEq:
    case MirOp::CmpNe:
    case MirOp::CmpLtS:
    case MirOp::CmpLeS:
    case MirOp::CmpLtU:
    case MirOp::CmpLeU: {
      loadVReg(6, I.A);
      loadVReg(7, I.B);
      Instr B = mk(binOpcode(I.Op));
      B.Rd = 6;
      B.Ra = 6;
      B.Rb = 7;
      op(B);
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::Neg:
    case MirOp::Not: {
      loadVReg(6, I.A);
      Instr U = mk(I.Op == MirOp::Neg ? Opcode::Neg : Opcode::Not);
      U.Rd = 6;
      U.Ra = 6;
      op(U);
      storeVReg(I.Dst, 6);
      return;
    }
    case MirOp::Mov:
      loadVReg(6, I.A);
      storeVReg(I.Dst, 6);
      return;
    case MirOp::Call: {
      loadArgs(I.Args);
      Instr C = mk(Opcode::Call);
      AsmItem It = AsmItem::instr(C);
      It.Reloc = RelocKind::CallSym;
      It.Symbol = I.Sym;
      SiteMeta M;
      M.K = SiteMeta::Kind::DirectCall;
      M.Callee = I.Sym;
      It.Meta = addMeta(M);
      Out.Items.push_back(It);
      storeVReg(I.Dst, RegRet);
      return;
    }
    case MirOp::CallInd: {
      loadVReg(8, I.A);
      loadArgs(I.Args);
      Instr C = mk(Opcode::CallInd);
      C.Ra = 8;
      AsmItem It = AsmItem::instr(C);
      SiteMeta M;
      M.K = SiteMeta::Kind::IndirectCall;
      M.TypeSig = I.TypeSig;
      M.PrettyType = I.PrettyType;
      M.VariadicPointer = I.VariadicPtr;
      It.Meta = addMeta(M);
      Out.Items.push_back(It);
      storeVReg(I.Dst, RegRet);
      return;
    }
    case MirOp::TailCall: {
      loadArgs(I.Args);
      addImm(RegSP, static_cast<int32_t>(FrameSize));
      Instr J = mk(Opcode::Jmp);
      AsmItem It = AsmItem::instr(J);
      It.Reloc = RelocKind::CallSym;
      It.Symbol = I.Sym;
      Out.Items.push_back(It);
      TailCallInfo TC;
      TC.Caller = MF.Name;
      TC.Direct = true;
      TC.Callee = I.Sym;
      PM.TailCalls.push_back(std::move(TC));
      return;
    }
    case MirOp::TailCallInd: {
      loadVReg(8, I.A);
      loadArgs(I.Args);
      addImm(RegSP, static_cast<int32_t>(FrameSize));
      Instr J = mk(Opcode::JmpInd);
      J.Ra = 8;
      AsmItem It = AsmItem::instr(J);
      SiteMeta M;
      M.K = SiteMeta::Kind::IndirectTailCall;
      M.TypeSig = I.TypeSig;
      M.PrettyType = I.PrettyType;
      M.VariadicPointer = I.VariadicPtr;
      It.Meta = addMeta(M);
      Out.Items.push_back(It);
      TailCallInfo TC;
      TC.Caller = MF.Name;
      TC.Direct = false;
      TC.TypeSig = I.TypeSig;
      TC.VariadicPointer = I.VariadicPtr;
      PM.TailCalls.push_back(std::move(TC));
      return;
    }
    case MirOp::Syscall: {
      loadArgs(I.Args);
      Instr S = mk(Opcode::Syscall);
      S.Imm = static_cast<uint64_t>(I.Imm);
      AsmItem It = AsmItem::instr(S);
      if (I.IsSetjmp) {
        SiteMeta M;
        M.K = SiteMeta::Kind::SetjmpCall;
        It.Meta = addMeta(M);
      }
      Out.Items.push_back(It);
      storeVReg(I.Dst, RegRet);
      return;
    }
    case MirOp::Ret:
      if (I.HasValue)
        loadVReg(RegRet, I.A);
      jmpLabel(EpilogueLabel);
      return;
    case MirOp::Br:
      jmpLabel(static_cast<int>(I.BlockA));
      return;
    case MirOp::CondBr:
      loadVReg(6, I.A);
      condLabel(Opcode::Jnz, 6, static_cast<int>(I.BlockA));
      jmpLabel(static_cast<int>(I.BlockB));
      return;
    case MirOp::Switch:
      emitSwitch(I);
      return;
    case MirOp::AsmInline:
      for (int64_t N = 0; N != I.Imm; ++N)
        op(mk(Opcode::Nop));
      return;
    }
    mcfi_unreachable("covered switch");
  }

  const MirFunction &MF;
  uint32_t FuncIndex;
  PendingModule &PM;
  const AsmGenOptions &Opts;
  AsmFunction Out;
  std::vector<uint64_t> ObjOffset;
  uint64_t FrameSize = 0;
  int EpilogueLabel = -1;
};

} // namespace

PendingModule mcfi::mir::generateAsm(const MirModule &M,
                                     const AsmGenOptions &Opts) {
  PendingModule PM;
  PM.Name = M.Name;
  PM.EntryFunction = M.EntryFunction;
  PM.Imports = M.Imports;
  PM.AddressTakenImports = M.AddressTakenImports;

  // Data layout: globals in declaration order, 8-aligned.
  uint64_t DataOff = 0;
  for (const MirGlobal &G : M.Globals) {
    DataOff = alignTo(DataOff, 8);
    PM.DataSymbols[G.Name] = DataOff;
    if (!G.Init.empty())
      PM.DataInit.emplace_back(DataOff, G.Init);
    for (const GlobalAddrInit &AI : G.AddrInits) {
      visa::RelocEntry R;
      R.Kind = AI.IsFunction ? RelocKind::DataFuncAddr64
                             : RelocKind::DataGlobalAddr64;
      R.Offset = DataOff + AI.Offset;
      R.Symbol = AI.Symbol;
      PM.DataRelocs.push_back(std::move(R));
    }
    DataOff += std::max<uint64_t>(G.Size, 8);
  }
  PM.DataSize = alignTo(DataOff, 8);

  PM.Functions.reserve(M.Functions.size());
  PM.FunctionInfos.reserve(M.Functions.size());
  for (uint32_t FI = 0; FI != M.Functions.size(); ++FI) {
    const MirFunction &MF = M.Functions[FI];
    FunctionInfo Info;
    Info.Name = MF.Name;
    Info.TypeSig = MF.TypeSig;
    Info.PrettyType = MF.PrettyType;
    Info.AddressTaken = MF.AddressTaken;
    Info.Variadic = MF.Variadic;
    PM.FunctionInfos.push_back(std::move(Info));

    FuncGen FG(MF, FI, PM, Opts);
    PM.Functions.push_back(FG.run());
  }
  return PM;
}
