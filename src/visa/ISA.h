//===- visa/ISA.h - The VISA virtual instruction set ------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VISA is a small x86-64-flavored virtual instruction set with a
/// *variable-length byte encoding*. MCFI's machinery operates on encoded
/// VISA bytes exactly the way the paper's tools operate on x86 bytes:
///
///  - the rewriter expands indirect branches into check-transaction
///    instruction sequences and inserts alignment no-ops;
///  - the verifier disassembles modules and checks the instrumentation;
///  - the runtime VM executes the bytes with real concurrent ID-table
///    reads (TABLEREAD / BARYREAD are the %gs-relative loads of Fig. 4);
///  - the gadget scanner decodes from arbitrary offsets, reproducing the
///    "gadget starting in the middle of an instruction" phenomenon that
///    variable-length encodings exhibit.
///
/// Register conventions:
///   r0        return value / scratch
///   r1..r5    arguments
///   r6..r8    codegen temporaries
///   r9..r13   reserved for instrumentation sequences (the paper reserves
///             scratch registers in an LLVM backend pass the same way)
///   r14       stack pointer
///   r15       indirect-branch target register (the %rcx of Fig. 4)
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_VISA_ISA_H
#define MCFI_VISA_ISA_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mcfi {
namespace visa {

/// Register numbers with dedicated roles.
enum : uint8_t {
  RegRet = 0,     ///< return value
  RegArg0 = 1,    ///< first argument
  RegTmpBase = 6, ///< first codegen temporary
  RegScratch0 = 9,
  RegIDDiff = 11,   ///< scratch for ID comparison (the cmpl result)
  RegBranchID = 12, ///< branch ID (%edi of Fig. 4)
  RegTargetID = 13, ///< target ID (%esi of Fig. 4)
  RegSP = 14,       ///< stack pointer
  RegTarget = 15,   ///< indirect-branch target (%rcx of Fig. 4)
  NumRegs = 16,
};

/// VISA opcodes. Values are the encoded opcode bytes; gaps are invalid
/// encodings (important for gadget realism: decoding at a misaligned
/// offset can hit an invalid byte).
enum class Opcode : uint8_t {
  Invalid = 0x00,

  MovImm = 0x01,  ///< rd = imm64             [op rd imm64]      10 bytes
  Mov = 0x02,     ///< rd = rs                [op rd rs]          3 bytes
  Load = 0x03,    ///< rd = mem64[rs+off]     [op rd rs off32]    7 bytes
  Store = 0x04,   ///< mem64[rd+off] = rs     [op rd rs off32]    7 bytes
  Load8 = 0x05,   ///< rd = zext mem8[rs+off]                     7 bytes
  Store8 = 0x06,  ///< mem8[rd+off] = low8(rs)                    7 bytes
  Load32 = 0x07,  ///< rd = zext mem32[rs+off]                    7 bytes
  Store32 = 0x08, ///< mem32[rd+off] = low32(rs)                  7 bytes
  Load16 = 0x09,  ///< rd = zext mem16[rs+off]                    7 bytes
  Store16 = 0x0A, ///< mem16[rd+off] = low16(rs)                  7 bytes

  Add = 0x10, ///< rd = ra + rb            [op rd ra rb]       4 bytes
  Sub = 0x11,
  Mul = 0x12,
  DivS = 0x13, ///< signed divide; traps on divide-by-zero
  ModS = 0x14,
  And = 0x15,
  Or = 0x16,
  Xor = 0x17,
  Shl = 0x18,
  ShrL = 0x19, ///< logical shift right
  ShrA = 0x1A, ///< arithmetic shift right
  CmpEq = 0x1B, ///< rd = (ra == rb)
  CmpNe = 0x1C,
  CmpLtS = 0x1D,
  CmpLeS = 0x1E,
  CmpLtU = 0x1F,
  CmpLeU = 0x20,
  Neg = 0x21, ///< rd = -rs                [op rd rs]          3 bytes
  Not = 0x22, ///< rd = ~rs                [op rd rs]          3 bytes

  AndImm = 0x28, ///< rd &= imm64           [op rd imm64]      10 bytes
  AddImm = 0x29, ///< rd += simm32          [op rd imm32]       6 bytes

  Jmp = 0x30,   ///< pc += rel32 (relative to next insn) [op rel32]  5 bytes
  Jz = 0x31,    ///< if (rs == 0) pc += rel32  [op rs rel32]    6 bytes
  Jnz = 0x32,   ///< if (rs != 0) pc += rel32  [op rs rel32]    6 bytes
  JmpInd = 0x33, ///< pc = rs               [op rs]             2 bytes
  Call = 0x34,  ///< push next; pc += rel32 [op rel32]          5 bytes
  CallInd = 0x35, ///< push next; pc = rs   [op rs]             2 bytes
  Ret = 0x36,   ///< pc = pop()             [op]                1 byte
  Push = 0x37,  ///< sp -= 8; mem64[sp] = rs [op rs]            2 bytes
  Pop = 0x38,   ///< rd = mem64[sp]; sp += 8 [op rd]            2 bytes
  Nop = 0x39,   ///< [op]                                       1 byte
  Halt = 0x3A,  ///< CFI violation trap (the hlt of Fig. 4)     1 byte
  Syscall = 0x3B, ///< runtime service call  [op u8]            2 bytes

  TableRead = 0x3C, ///< rd = Tary ID at code address rs [op rd rs] 3 bytes
  BaryRead = 0x3D,  ///< rd = Bary[imm32]    [op rd u32]        6 bytes
};

/// A decoded VISA instruction.
struct Instr {
  Opcode Op = Opcode::Invalid;
  uint8_t Rd = 0;
  uint8_t Ra = 0;
  uint8_t Rb = 0;
  int32_t Off = 0;   ///< load/store displacement or branch rel32
  uint64_t Imm = 0;  ///< imm64 / imm32 / syscall number
  uint8_t Length = 0; ///< encoded length in bytes
};

/// Returns the encoded length of \p Op, or 0 if the opcode is invalid.
unsigned opcodeLength(Opcode Op);

/// Decodes one instruction from \p Code at \p Offset. Returns false if the
/// bytes do not form a valid instruction (invalid opcode or truncation);
/// \p Out is unspecified in that case.
bool decode(const uint8_t *Code, size_t Size, size_t Offset, Instr &Out);

/// Encodes \p I (whose operand fields must be populated; Length is
/// ignored) and appends the bytes to \p Out.
void encode(const Instr &I, std::vector<uint8_t> &Out);

/// Returns true for opcodes that transfer control indirectly (the
/// instructions MCFI instruments: returns, indirect jumps, indirect
/// calls).
bool isIndirectBranch(Opcode Op);

/// Returns true for opcodes that write to memory.
bool isStore(Opcode Op);

/// Renders \p I as assembly text.
std::string printInstr(const Instr &I);

//===----------------------------------------------------------------------===//
// The module disassembler
//===----------------------------------------------------------------------===//

/// Superinstruction kinds the disassembler marks for the threaded tier
/// (runtime/Dispatch.h).
enum class FusedKind : uint8_t {
  None = 0,
  /// The hot head of the Fig. 4 check transaction: the two ID-table
  /// reads (Bary/Tary in either scheduling order), the xor compare and
  /// the jz, executed by one fused handler. The table reads remain
  /// individually atomic and in program order, so a concurrent TxUpdate
  /// interleaves exactly as it would between discrete instructions.
  TxCheck,
};

/// One disassembled instruction, in the 40-byte form the threaded tier
/// executes: the decode, its absolute address, the index of the
/// instruction that starts where it ends, and the fused-group mark.
struct DInstr {
  Instr I;
  uint64_t PC = 0;   ///< absolute address: Disassembly::Base + offset
  int32_t Fall = -1; ///< index of the fallthrough successor, or -1
  FusedKind Fused = FusedKind::None; ///< set on group heads only
};

/// A flat disassembly of one module's code: every instruction start a
/// left-to-right sweep reaches, in offset order, plus a byte-offset ->
/// instruction index map. It is the only disassembly in the system: the
/// verifier checks it, and the runtime moves it into the module's decode
/// and executes it (runtime/Dispatch.h),
/// so what runs is what was checked. Each instruction records its
/// absolute address (Base plus its offset), so checks read the offset as
/// PC - Base. Because VISA decoding is context-free, any start recorded
/// here decodes to exactly what a fetch at that offset would decode; a
/// fetch at an offset *not* recorded (a jump into the middle of an
/// instruction, overlapping-gadget style, or into jump-table data) is not
/// covered and must be decoded afresh by the caller.
struct Disassembly {
  /// FirstBad value of a disassembly with no undecodable byte.
  static constexpr uint64_t NoBadByte = ~0ull;

  /// Absolute address of offset 0 (0 for a module not mapped anywhere).
  uint64_t Base = 0;
  std::vector<DInstr> Instrs;
  std::vector<int32_t> IndexByOff; ///< per byte: instr index or -1
  /// First offset outside the data ranges that does not start a valid
  /// instruction (NoBadByte when every swept byte decoded).
  uint64_t FirstBad = NoBadByte;

  /// True when every byte outside the data ranges is part of exactly one
  /// decoded instruction: the verifier's precondition.
  bool complete() const { return FirstBad == NoBadByte; }

  /// Byte offset of instruction \p K.
  uint64_t offsetOf(size_t K) const { return Instrs[K].PC - Base; }

  /// Instruction index starting at \p Off, or -1.
  int32_t indexAt(uint64_t Off) const {
    return Off < IndexByOff.size() ? IndexByOff[Off] : -1;
  }

  /// The instruction starting at \p Off, or null.
  const Instr *at(uint64_t Off) const {
    int32_t K = indexAt(Off);
    return K < 0 ? nullptr : &Instrs[static_cast<size_t>(K)].I;
  }
};

/// Disassembles [0, Size) of \p Code, loaded at absolute address
/// \p Base. \p DataRanges are sorted [Begin, End) byte ranges holding
/// data (a module's declared jump tables); a sweep reaching the last
/// range that begins at or before it jumps to that range's end.
/// Undecodable bytes (an invalid opcode, an instruction truncated by
/// Size) are skipped one at a time, so the sweep resynchronizes the way a
/// linear sweep of x86 bytes would; the first one is recorded in
/// Disassembly::FirstBad. \p Instrs, when nonzero, is the instruction
/// count the caller expects (an earlier disassembly of the same
/// module's bytes), reserved exactly; otherwise Size / 4 are reserved.
Disassembly
disassemble(const uint8_t *Code, size_t Size,
            const std::vector<std::pair<uint64_t, uint64_t>> &DataRanges,
            uint64_t Base, size_t Instrs = 0);

} // namespace visa
} // namespace mcfi

#endif // MCFI_VISA_ISA_H
