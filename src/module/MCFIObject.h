//===- module/MCFIObject.h - The MCFI module format -------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MCFI object-module format. Per the paper (Sec. 4, "Module
/// linking"), an MCFI module contains code, data, *and auxiliary type
/// information* that enables CFG generation when modules are linked
/// statically or dynamically. Modules are produced by instrumenting each
/// translation unit independently — this is the separate-compilation
/// property — and can be serialized to/from bytes (.mcfo files).
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_MODULE_MCFIOBJECT_H
#define MCFI_MODULE_MCFIOBJECT_H

#include "visa/Assembler.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcfi {

/// Metadata for one function defined in a module.
struct FunctionInfo {
  std::string Name;
  std::string TypeSig;    ///< canonical type signature (ctypes)
  std::string PrettyType; ///< human-readable C type
  uint64_t CodeOffset = 0;
  bool AddressTaken = false;
  /// Variadic functions get an extra matching rule during CFG generation.
  bool Variadic = false;
};

/// The kinds of instrumented indirect branches.
enum class BranchKind : uint8_t {
  Return,       ///< function return (popq/checks/jmpq of Fig. 4)
  IndirectCall, ///< call through a function pointer
  IndirectJump, ///< interprocedural indirect jump (indirect tail call)
  PltJump,      ///< indirect jump in an MCFI-instrumented PLT entry
};

/// One instrumented indirect-branch site. SiteId indexes this vector and
/// appears in the module's BaryIndex32 relocations; at CFG-install time
/// the loader patches each site's BaryRead with the Bary-table index that
/// holds the site's branch ID.
struct BranchSite {
  BranchKind Kind = BranchKind::Return;
  uint64_t SeqStart = 0;     ///< offset of the check sequence's first insn
  uint64_t BranchOffset = 0; ///< offset of the final jmpi/calli
  std::string Function;      ///< owning function
  std::string TypeSig;       ///< pointee fn type sig (indirect call/jump)
  bool VariadicPointer = false; ///< pointer type is variadic (Sec. 6 rule)
  std::string PltSymbol;     ///< PltJump: the symbol this entry resolves
};

/// A non-tail call site; its return site (the 4-byte-aligned address
/// after the call) is an indirect-branch target in the CFG.
struct CallSiteInfo {
  std::string Caller;
  uint64_t RetSiteOffset = 0;
  bool Direct = true;
  std::string Callee;     ///< direct calls
  std::string TypeSig;    ///< indirect calls: pointee fn type sig
  bool VariadicPointer = false;
  bool IsSetjmp = false;  ///< setjmp call: its ret site is a longjmp target
};

/// A tail call (direct jmp or indirect jmpi in tail position). Tail calls
/// have no return site; they extend the caller's return edges to the
/// callee (Sec. 6, tail-call handling in the call graph).
struct TailCallInfo {
  std::string Caller;
  bool Direct = true;
  std::string Callee;  ///< direct
  std::string TypeSig; ///< indirect
  bool VariadicPointer = false;
};

/// An intraprocedural jump table (switch lowering). Targets are known
/// statically; the verifier checks the table contents instead of adding a
/// runtime check (Sec. 6: such indirect jumps "are statically analyzed").
struct JumpTableInfo {
  std::string Function;
  uint64_t JmpOffset = 0;   ///< offset of the jmpi instruction
  uint64_t TableOffset = 0; ///< offset of the first 8-byte entry
  std::vector<uint64_t> Targets; ///< module-relative target offsets
};

/// The auxiliary information of an MCFI module (Sec. 4/6): everything the
/// CFG generator needs, and everything the verifier needs for complete
/// disassembly.
struct AuxInfo {
  std::vector<FunctionInfo> Functions;
  std::vector<BranchSite> BranchSites;
  std::vector<CallSiteInfo> CallSites;
  std::vector<TailCallInfo> TailCalls;
  std::vector<JumpTableInfo> JumpTables;
  /// Imported functions whose address this module takes: their
  /// definitions (in other modules) become indirect-branch targets.
  std::vector<std::string> AddressTakenImports;
  /// Every module-relative code offset that can become an indirect-branch
  /// target under *some* CFG: function entries and non-setjmp return
  /// sites, sorted and deduplicated. Derived from the fields above
  /// (computeIBTOffsets) at finalize and deserialize time — not
  /// serialized — so the linker can sanity-check that an incremental
  /// table delta only touches offsets the owning module declared.
  std::vector<uint64_t> IBTOffsets;
};

/// Computes AuxInfo::IBTOffsets from the other aux fields.
void computeIBTOffsets(AuxInfo &Aux);

/// A separately compiled and instrumented MCFI module.
struct MCFIObject {
  std::string Name;

  /// Instrumented VISA code bytes.
  std::vector<uint8_t> Code;

  /// Zero-initialized data region size (globals, GOT) and explicit
  /// initializers at (offset, bytes).
  uint64_t DataSize = 0;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> DataInit;

  /// Data symbols (globals, GOT slots "got$<sym>") → data offsets.
  std::unordered_map<std::string, uint64_t> DataSymbols;

  /// Load-time relocations (see visa::RelocKind).
  std::vector<visa::RelocEntry> Relocs;

  /// Auxiliary type information for CFG generation and verification.
  AuxInfo Aux;

  /// Undefined function symbols this module imports (resolved by the
  /// linker, directly or via this module's PLT entries).
  std::vector<std::string> Imports;

  /// Entry function name ("main") for executables; empty for libraries.
  std::string EntryFunction;

  /// Returns the FunctionInfo for \p Name, or nullptr.
  const FunctionInfo *findFunction(const std::string &FnName) const {
    for (const FunctionInfo &F : Aux.Functions)
      if (F.Name == FnName)
        return &F;
    return nullptr;
  }
};

/// The byte ranges [TableOffset, TableOffset + 8 * entries) of \p Obj's
/// declared jump tables, sorted.
std::vector<std::pair<uint64_t, uint64_t>>
jumpTableRanges(const MCFIObject &Obj);

/// The module's one disassembly: visa::disassemble of \p Size bytes of
/// \p Code (the module's code as loaded at absolute address \p Base; 0
/// for bytes not mapped anywhere) skipping the jump-table data ranges
/// \p Obj declares, with room reserved for \p Instrs instructions (0:
/// unknown). The verifier checks this disassembly and a sealed module
/// executes it.
visa::Disassembly disassembleModule(const uint8_t *Code, size_t Size,
                                    const MCFIObject &Obj, uint64_t Base = 0,
                                    size_t Instrs = 0);

/// Bytes a relocation of kind \p K writes: 4 for CallSym and
/// BaryIndex32, 8 for the rest.
uint64_t relocWidth(visa::RelocKind K);

/// True when relocation \p R patches only bytes of its own module: every
/// byte it writes (relocWidth) lies inside \p Obj's code, or, for the data kinds, inside its
/// DataSize bytes of globals. A None relocation must still point into
/// the code. Wrap-free for any offset. readObject refuses an object with
/// a relocation that does not fit, and the linker refuses to patch one.
bool relocationFits(const visa::RelocEntry &R, const MCFIObject &Obj);

/// True when every data initializer of \p Obj lies inside its DataSize
/// bytes of globals. Wrap-free for any offset. readObject refuses an
/// object with an initializer that does not fit, and Machine::mapModule
/// refuses to map one.
bool dataInitsFit(const MCFIObject &Obj);

/// Serializes \p Obj into the .mcfo binary format.
std::vector<uint8_t> writeObject(const MCFIObject &Obj);

/// Parses a .mcfo blob. Returns false on malformed input (truncation, bad
/// magic, out-of-range offsets) and leaves \p Out unspecified.
bool readObject(const std::vector<uint8_t> &Blob, MCFIObject &Out);

} // namespace mcfi

#endif // MCFI_MODULE_MCFIOBJECT_H
