//===- visa/Assembler.h - Symbolic assembly and layout ----------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic (pre-layout) form of VISA code and the assembler that
/// lays it out into bytes. The compiler emits AsmFunctions, the MCFI
/// rewriter transforms them (expanding indirect branches into check
/// sequences and adding alignment directives), and the assembler then
/// produces the final module bytes together with the relocations and
/// Bary-index patch points that the loader and the dynamic linker use.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_VISA_ASSEMBLER_H
#define MCFI_VISA_ASSEMBLER_H

#include "visa/ISA.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace mcfi {
namespace visa {

/// Relocation kinds resolved by the (static or dynamic) linker/loader.
enum class RelocKind : uint8_t {
  None = 0,
  FuncAddr64,   ///< imm64 of MovImm := absolute address of a function
  GlobalAddr64, ///< imm64 of MovImm := absolute address of a data symbol
  CallSym,      ///< rel32 of Call := direct call to a (cross-module) symbol
  JumpTable64,  ///< 8-byte code datum := absolute address of a local label
  GotSlot64,    ///< imm64 of MovImm := absolute address of a GOT slot
  BaryIndex32,  ///< imm32 of BaryRead := Bary index, patched at CFG install
  DataFuncAddr64,   ///< 8 bytes in the DATA section := function address
  DataGlobalAddr64, ///< 8 bytes in the DATA section := data-symbol address
  CodeAddr64,       ///< imm64 of MovImm := absolute address of a local
                    ///< label (jump-table bases); Addend = local offset
};

/// One element of symbolic assembly: an instruction, a label definition,
/// an alignment directive, or an 8-byte in-code datum (jump-table entry).
struct AsmItem {
  enum class Kind : uint8_t { Instr, Label, Align4, Align8, Data64 };

  Kind K = Kind::Instr;
  Instr I;                        ///< Kind::Instr
  int Label = -1;                 ///< label id defined (Label) or targeted
                                  ///< (branch Instr / Data64)
  RelocKind Reloc = RelocKind::None;
  std::string Symbol;             ///< symbol for symbol-based relocs
  uint32_t SiteId = 0;            ///< indirect-branch site (BaryIndex32)
  int Meta = -1;                  ///< index into PendingModule::Meta, or -1

  static AsmItem instr(Instr I) {
    AsmItem It;
    It.I = I;
    return It;
  }
  static AsmItem label(int Id) {
    AsmItem It;
    It.K = Kind::Label;
    It.Label = Id;
    return It;
  }
  /// Alignment directive: pads with no-ops so that the point \p TailLen
  /// bytes after the directive is 4-byte aligned. TailLen = 0 aligns the
  /// next instruction itself (e.g. an indirect-branch target); TailLen =
  /// len(call) aligns the *return site* of a call that follows, which is
  /// how MCFI aligns return addresses without separating the call from
  /// its return point.
  static AsmItem align4(unsigned TailLen = 0) {
    AsmItem It;
    It.K = Kind::Align4;
    It.I.Imm = TailLen;
    return It;
  }
  static AsmItem align8() {
    AsmItem It;
    It.K = Kind::Align8;
    return It;
  }
  static AsmItem data64(int TargetLabel) {
    AsmItem It;
    It.K = Kind::Data64;
    It.Label = TargetLabel;
    return It;
  }
};

/// A function in symbolic form. Labels are function-local.
struct AsmFunction {
  std::string Name;
  std::vector<AsmItem> Items;
  int NextLabel = 0; ///< label id allocator

  int newLabel() { return NextLabel++; }
};

/// A relocation in the assembled bytes, to be resolved at load time.
struct RelocEntry {
  RelocKind Kind = RelocKind::None;
  uint64_t Offset = 0;  ///< byte position of the field to patch
  std::string Symbol;   ///< referenced symbol (if symbol-based)
  uint64_t Addend = 0;  ///< local code offset (JumpTable64)
  uint32_t SiteId = 0;  ///< indirect-branch site (BaryIndex32)
};

/// Assembler output: final code bytes, symbol offsets, load-time
/// relocations, and the offsets of every label (so that the compile
/// driver can recover the positions of return sites, branch sites, and
/// jump-table targets for the module's auxiliary info).
struct AssembledCode {
  /// LabelOffsets entry of a label id that no Label item defines.
  static constexpr uint64_t NoOffset = ~0ull;

  std::vector<uint8_t> Bytes;
  std::unordered_map<std::string, uint64_t> FunctionOffsets;
  std::vector<RelocEntry> Relocs;
  /// LabelOffsets[i][l] = code offset of label l in function i; one entry
  /// per id the function's newLabel() handed out.
  std::vector<std::vector<uint64_t>> LabelOffsets;
};

/// Assembles \p Functions into module bytes. Function entries are aligned
/// to 4 bytes; Data64 runs are aligned to 8 bytes (the VM requires
/// naturally-aligned 64-bit loads). Direct calls to symbols defined in
/// this module are resolved; calls to undefined symbols are left as
/// CallSym relocations (pointing at a zero rel32) for the linker.
AssembledCode assemble(const std::vector<AsmFunction> &Functions);

} // namespace visa
} // namespace mcfi

#endif // MCFI_VISA_ASSEMBLER_H
