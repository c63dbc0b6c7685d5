//===- visa/ISA.cpp - VISA encoding and decoding --------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "visa/ISA.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace mcfi;
using namespace mcfi::visa;

namespace {

/// Operand shapes drive both encoding and decoding.
enum class Shape {
  None,      ///< [op]
  RdImm64,   ///< [op rd imm64]
  RdRs,      ///< [op rd rs]
  RdRsOff32, ///< [op rd rs off32]
  RdRaRb,    ///< [op rd ra rb]
  RdImm32,   ///< [op rd imm32]  (AddImm: signed; BaryRead: unsigned)
  Rel32,     ///< [op rel32]
  RsRel32,   ///< [op rs rel32]
  Rs,        ///< [op rs]
  Imm8,      ///< [op u8]
};

Shape opcodeShape(Opcode Op) {
  switch (Op) {
  case Opcode::Invalid:
    return Shape::None;
  case Opcode::MovImm:
  case Opcode::AndImm:
    return Shape::RdImm64;
  case Opcode::Mov:
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::TableRead:
    return Shape::RdRs;
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Load8:
  case Opcode::Store8:
  case Opcode::Load32:
  case Opcode::Store32:
  case Opcode::Load16:
  case Opcode::Store16:
    return Shape::RdRsOff32;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::DivS:
  case Opcode::ModS:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::ShrL:
  case Opcode::ShrA:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLtS:
  case Opcode::CmpLeS:
  case Opcode::CmpLtU:
  case Opcode::CmpLeU:
    return Shape::RdRaRb;
  case Opcode::AddImm:
  case Opcode::BaryRead:
    return Shape::RdImm32;
  case Opcode::Jmp:
  case Opcode::Call:
    return Shape::Rel32;
  case Opcode::Jz:
  case Opcode::Jnz:
    return Shape::RsRel32;
  case Opcode::JmpInd:
  case Opcode::CallInd:
  case Opcode::Push:
  case Opcode::Pop:
    return Shape::Rs;
  case Opcode::Ret:
  case Opcode::Nop:
  case Opcode::Halt:
    return Shape::None;
  case Opcode::Syscall:
    return Shape::Imm8;
  }
  return Shape::None;
}

bool isValidOpcode(uint8_t Byte) {
  switch (static_cast<Opcode>(Byte)) {
  case Opcode::MovImm:
  case Opcode::Mov:
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Load8:
  case Opcode::Store8:
  case Opcode::Load32:
  case Opcode::Store32:
  case Opcode::Load16:
  case Opcode::Store16:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::DivS:
  case Opcode::ModS:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::ShrL:
  case Opcode::ShrA:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLtS:
  case Opcode::CmpLeS:
  case Opcode::CmpLtU:
  case Opcode::CmpLeU:
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::AndImm:
  case Opcode::AddImm:
  case Opcode::Jmp:
  case Opcode::Jz:
  case Opcode::Jnz:
  case Opcode::JmpInd:
  case Opcode::Call:
  case Opcode::CallInd:
  case Opcode::Ret:
  case Opcode::Push:
  case Opcode::Pop:
  case Opcode::Nop:
  case Opcode::Halt:
  case Opcode::Syscall:
  case Opcode::TableRead:
  case Opcode::BaryRead:
    return true;
  case Opcode::Invalid:
    return false;
  }
  return false;
}

unsigned shapeLength(Shape S) {
  switch (S) {
  case Shape::None:
    return 1;
  case Shape::RdImm64:
    return 10;
  case Shape::RdRs:
    return 3;
  case Shape::RdRsOff32:
    return 7;
  case Shape::RdRaRb:
    return 4;
  case Shape::RdImm32:
    return 6;
  case Shape::Rel32:
    return 5;
  case Shape::RsRel32:
    return 6;
  case Shape::Rs:
    return 2;
  case Shape::Imm8:
    return 2;
  }
  mcfi_unreachable("covered switch");
}

uint32_t read32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

uint64_t read64(const uint8_t *P) {
  return static_cast<uint64_t>(read32(P)) |
         static_cast<uint64_t>(read32(P + 4)) << 32;
}

void write32(uint32_t V, std::vector<uint8_t> &Out) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void write64(uint64_t V, std::vector<uint8_t> &Out) {
  write32(static_cast<uint32_t>(V), Out);
  write32(static_cast<uint32_t>(V >> 32), Out);
}

} // namespace

unsigned mcfi::visa::opcodeLength(Opcode Op) {
  if (!isValidOpcode(static_cast<uint8_t>(Op)))
    return 0;
  return shapeLength(opcodeShape(Op));
}

bool mcfi::visa::decode(const uint8_t *Code, size_t Size, size_t Offset,
                        Instr &Out) {
  if (Offset >= Size)
    return false;
  uint8_t Byte = Code[Offset];
  if (!isValidOpcode(Byte))
    return false;
  Opcode Op = static_cast<Opcode>(Byte);
  Shape S = opcodeShape(Op);
  unsigned Len = shapeLength(S);
  if (Offset + Len > Size)
    return false;

  const uint8_t *P = Code + Offset + 1;
  Out = Instr();
  Out.Op = Op;
  Out.Length = static_cast<uint8_t>(Len);
  switch (S) {
  case Shape::None:
    break;
  case Shape::RdImm64:
    Out.Rd = P[0];
    Out.Imm = read64(P + 1);
    break;
  case Shape::RdRs:
    Out.Rd = P[0];
    Out.Ra = P[1];
    break;
  case Shape::RdRsOff32:
    Out.Rd = P[0];
    Out.Ra = P[1];
    Out.Off = static_cast<int32_t>(read32(P + 2));
    break;
  case Shape::RdRaRb:
    Out.Rd = P[0];
    Out.Ra = P[1];
    Out.Rb = P[2];
    break;
  case Shape::RdImm32:
    Out.Rd = P[0];
    Out.Imm = read32(P + 1);
    Out.Off = static_cast<int32_t>(read32(P + 1));
    break;
  case Shape::Rel32:
    Out.Off = static_cast<int32_t>(read32(P));
    break;
  case Shape::RsRel32:
    Out.Ra = P[0];
    Out.Off = static_cast<int32_t>(read32(P + 1));
    break;
  case Shape::Rs:
    Out.Ra = P[0];
    Out.Rd = P[0];
    break;
  case Shape::Imm8:
    Out.Imm = P[0];
    break;
  }
  // Register operands must name real registers; otherwise the byte
  // sequence is not a valid instruction (matters for gadget scanning).
  if (Out.Rd >= NumRegs || Out.Ra >= NumRegs || Out.Rb >= NumRegs)
    return false;
  return true;
}

void mcfi::visa::encode(const Instr &I, std::vector<uint8_t> &Out) {
  assert(isValidOpcode(static_cast<uint8_t>(I.Op)) && "encoding invalid op");
  Out.push_back(static_cast<uint8_t>(I.Op));
  switch (opcodeShape(I.Op)) {
  case Shape::None:
    break;
  case Shape::RdImm64:
    Out.push_back(I.Rd);
    write64(I.Imm, Out);
    break;
  case Shape::RdRs:
    Out.push_back(I.Rd);
    Out.push_back(I.Ra);
    break;
  case Shape::RdRsOff32:
    Out.push_back(I.Rd);
    Out.push_back(I.Ra);
    write32(static_cast<uint32_t>(I.Off), Out);
    break;
  case Shape::RdRaRb:
    Out.push_back(I.Rd);
    Out.push_back(I.Ra);
    Out.push_back(I.Rb);
    break;
  case Shape::RdImm32:
    Out.push_back(I.Rd);
    write32(static_cast<uint32_t>(I.Imm ? I.Imm : static_cast<uint32_t>(I.Off)),
            Out);
    break;
  case Shape::Rel32:
    write32(static_cast<uint32_t>(I.Off), Out);
    break;
  case Shape::RsRel32:
    Out.push_back(I.Ra);
    write32(static_cast<uint32_t>(I.Off), Out);
    break;
  case Shape::Rs:
    Out.push_back(I.Ra);
    break;
  case Shape::Imm8:
    Out.push_back(static_cast<uint8_t>(I.Imm));
    break;
  }
}

namespace {

/// Marks S[K] as the head of a fused TxCheck group when S[K..K+3], each
/// falling through to the next, are the two ID-table reads of Fig. 4 in
/// template order (Bary, then Tary) into distinct registers, the xor of
/// the two IDs, and the jz consuming the difference. Only the head is
/// marked; a jump *into* the group (the retry jnz targets the first read)
/// executes the remaining instructions individually, which is
/// semantically identical.
void markFusedCheck(std::vector<DInstr> &S, size_t K) {
  if (S[K].Fall != static_cast<int32_t>(K + 1) ||
      S[K + 1].Fall != static_cast<int32_t>(K + 2) ||
      S[K + 2].Fall != static_cast<int32_t>(K + 3))
    return;
  const Instr &B = S[K].I;
  const Instr &T = S[K + 1].I;
  const Instr &X = S[K + 2].I;
  const Instr &J = S[K + 3].I;
  if (B.Op != Opcode::BaryRead || T.Op != Opcode::TableRead ||
      B.Rd == T.Rd || X.Op != Opcode::Xor || J.Op != Opcode::Jz)
    return;
  bool XorOverIDs = (X.Ra == B.Rd && X.Rb == T.Rd) ||
                    (X.Ra == T.Rd && X.Rb == B.Rd);
  if (XorOverIDs && J.Ra == X.Rd)
    S[K].Fused = FusedKind::TxCheck;
}

} // namespace

Disassembly mcfi::visa::disassemble(
    const uint8_t *Code, size_t Size,
    const std::vector<std::pair<uint64_t, uint64_t>> &DataRanges,
    uint64_t Base, size_t Instrs) {
  Disassembly Out;
  Out.Base = Base;
  // The loader maps modules 8-aligned, and a sealed module's decode
  // extends this map over the padding: reserve that now, so the decode
  // takes the map without reallocating it.
  Out.IndexByOff.reserve((Size + 7) & ~size_t(7));
  Out.IndexByOff.assign(Size, -1);
  Out.Instrs.reserve(Instrs ? Instrs : Size / 4);
  // Offsets only grow, so the last range beginning at or before Off is
  // found by advancing one cursor.
  size_t NextRange = 0;
  size_t Offset = 0;
  // Starts ascend, so an instruction starting where the previous one
  // ends is that one's fallthrough.
  size_t PrevEnd = ~size_t(0);
  while (Offset < Size) {
    while (NextRange != DataRanges.size() &&
           DataRanges[NextRange].first <= Offset)
      ++NextRange;
    if (NextRange != 0 && Offset < DataRanges[NextRange - 1].second) {
      Offset = DataRanges[NextRange - 1].second;
      continue;
    }
    Instr I;
    if (!decode(Code, Size, Offset, I)) {
      if (Out.complete())
        Out.FirstBad = Offset;
      ++Offset;
      continue;
    }
    int32_t K = static_cast<int32_t>(Out.Instrs.size());
    if (Offset == PrevEnd)
      Out.Instrs.back().Fall = K;
    PrevEnd = Offset + I.Length;
    Out.IndexByOff[Offset] = K;
    Out.Instrs.push_back({I, Base + Offset});
    // A group ends in its jz: check the window when the jz arrives.
    if (I.Op == Opcode::Jz && K >= 3)
      markFusedCheck(Out.Instrs, static_cast<size_t>(K) - 3);
    Offset += I.Length;
  }
  return Out;
}

bool mcfi::visa::isIndirectBranch(Opcode Op) {
  return Op == Opcode::Ret || Op == Opcode::JmpInd || Op == Opcode::CallInd;
}

bool mcfi::visa::isStore(Opcode Op) {
  return Op == Opcode::Store || Op == Opcode::Store8 ||
         Op == Opcode::Store16 || Op == Opcode::Store32;
}

std::string mcfi::visa::printInstr(const Instr &I) {
  auto R = [](uint8_t N) { return "r" + std::to_string(N); };
  switch (I.Op) {
  case Opcode::Invalid:
    return "<invalid>";
  case Opcode::MovImm:
    return formatString("movi %s, %llu", R(I.Rd).c_str(),
                        static_cast<unsigned long long>(I.Imm));
  case Opcode::Mov:
    return "mov " + R(I.Rd) + ", " + R(I.Ra);
  case Opcode::Load:
  case Opcode::Load8:
  case Opcode::Load16:
  case Opcode::Load32: {
    const char *Sfx = I.Op == Opcode::Load    ? ""
                      : I.Op == Opcode::Load8 ? "8"
                      : I.Op == Opcode::Load16 ? "16"
                                               : "32";
    return formatString("load%s %s, [%s%+d]", Sfx, R(I.Rd).c_str(),
                        R(I.Ra).c_str(), I.Off);
  }
  case Opcode::Store:
  case Opcode::Store8:
  case Opcode::Store16:
  case Opcode::Store32: {
    const char *Sfx = I.Op == Opcode::Store    ? ""
                      : I.Op == Opcode::Store8 ? "8"
                      : I.Op == Opcode::Store16 ? "16"
                                                : "32";
    return formatString("store%s [%s%+d], %s", Sfx, R(I.Rd).c_str(), I.Off,
                        R(I.Ra).c_str());
  }
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::DivS:
  case Opcode::ModS:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::ShrL:
  case Opcode::ShrA:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLtS:
  case Opcode::CmpLeS:
  case Opcode::CmpLtU:
  case Opcode::CmpLeU: {
    static const char *Names[] = {"add",   "sub",   "mul",   "divs",  "mods",
                                  "and",   "or",    "xor",   "shl",   "shrl",
                                  "shra",  "cmpeq", "cmpne", "cmplts", "cmples",
                                  "cmpltu", "cmpleu"};
    unsigned Idx = static_cast<uint8_t>(I.Op) - 0x10;
    return std::string(Names[Idx]) + " " + R(I.Rd) + ", " + R(I.Ra) + ", " +
           R(I.Rb);
  }
  case Opcode::Neg:
    return "neg " + R(I.Rd) + ", " + R(I.Ra);
  case Opcode::Not:
    return "not " + R(I.Rd) + ", " + R(I.Ra);
  case Opcode::AndImm:
    return formatString("andi %s, 0x%llx", R(I.Rd).c_str(),
                        static_cast<unsigned long long>(I.Imm));
  case Opcode::AddImm:
    return formatString("addi %s, %d", R(I.Rd).c_str(), I.Off);
  case Opcode::Jmp:
    return formatString("jmp %+d", I.Off);
  case Opcode::Jz:
    return formatString("jz %s, %+d", R(I.Ra).c_str(), I.Off);
  case Opcode::Jnz:
    return formatString("jnz %s, %+d", R(I.Ra).c_str(), I.Off);
  case Opcode::JmpInd:
    return "jmpi " + R(I.Ra);
  case Opcode::Call:
    return formatString("call %+d", I.Off);
  case Opcode::CallInd:
    return "calli " + R(I.Ra);
  case Opcode::Ret:
    return "ret";
  case Opcode::Push:
    return "push " + R(I.Ra);
  case Opcode::Pop:
    return "pop " + R(I.Rd);
  case Opcode::Nop:
    return "nop";
  case Opcode::Halt:
    return "hlt";
  case Opcode::Syscall:
    return formatString("syscall %u", static_cast<unsigned>(I.Imm));
  case Opcode::TableRead:
    return "tableread " + R(I.Rd) + ", [" + R(I.Ra) + "]";
  case Opcode::BaryRead:
    return formatString("baryread %s, [%u]", R(I.Rd).c_str(),
                        static_cast<unsigned>(I.Imm));
  }
  return "<invalid>";
}
