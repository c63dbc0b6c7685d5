//===- verifier/Verifier.h - Modular MCFI verification ----------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent MCFI verifier (paper Sec. 7). It takes a loaded,
/// relocated module, disassembles it completely (the auxiliary info makes
/// complete disassembly possible: jump tables are identified, and all
/// indirect-branch sequences are listed) with disassembleModule — the
/// same flat disassembly the runtime executes — and checks the MCFI/SFI
/// properties in two passes:
///
///  - Structural: every byte decodes as part of exactly one instruction
///    or a declared jump table; every code relocation covers exactly one
///    field its kind names, and no two overlap; no bare `ret`; jump-table
///    entries are relocated to the declared targets and land on
///    instruction boundaries; a direct branch leaves its module only as
///    a call or tail-call jmp whose rel32 carries a CallSym, and every
///    other one lands on a boundary of its own module; indirect-branch
///    targets (address-taken function entries and return sites) are
///    4-byte aligned.
///
///  - Templates: every `jmpi`/`calli` is the terminal branch of a
///    declared check sequence whose instructions match the Fig. 4
///    template byte-for-byte and whose branch-ID read names its own
///    site, or of a jump-table dispatch that bounds its index by the
///    declared table's size and loads from that table; every non-stack
///    store is immediately preceded by the sandbox mask; direct branches
///    never enter a sequence or bypass a mask; and every declared
///    function entry is a safe landing site for another module's call.
///
/// The verdict is a property of the object, not of where it is mapped.
/// A mapping changes only relocated fields, and the verdict reads their
/// values only through rules no base changes:
///
///  - each relocation covers exactly one immediate field, of the
///    instruction kind its RelocKind names: the imm64 of a movi
///    (FuncAddr64, GlobalAddr64, GotSlot64, CodeAddr64), the imm32 of a
///    baryread (BaryIndex32), the rel32 of a call or tail-call jmp
///    (CallSym), or one declared table entry (JumpTable64). Lengths
///    follow from opcodes, so every mapping decodes to the same
///    instructions;
///  - no relocation patches an immediate the templates compare against
///    a constant (the validity `movi r11, 1`, a table bound, the scale);
///  - table entries and a dispatch's table address are checked through
///    their addends (the declared targets, the table's offset); the
///    entries' bytes must hold Dis.Base plus their targets, which the
///    linker's addend arithmetic writes at every base;
///  - a check's baryread index is never read: its BaryIndex32 must name
///    the check's own site, whose global index the linker patches in;
///  - a CallSym displacement is never read: the linker binds it to a
///    declared function entry or a PLT entry, and every module's entries
///    are checked as landing sites.
///
/// So the verdict on an object's bytes as mapped at one base holds at
/// every base (a pass over its unrelocated bytes implies one too), and
/// the linker verifies each registered object once.
///
/// The verifier removes the rewriter from the trusted computing base: a
/// module produced by *any* compiler is safe to load if it verifies.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_VERIFIER_VERIFIER_H
#define MCFI_VERIFIER_VERIFIER_H

#include "module/MCFIObject.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mcfi {

/// The verifier has one tier. The Semantic enumerator is kept only so that
/// perfbench/ compiles; the next benchmark change deletes it together with
/// verifier.semantic_modules.
enum class VerifyTier : uint8_t { Syntactic, Semantic };

struct VerifyResult {
  bool Ok = true;
  std::vector<std::string> Errors;
  /// Kept only so that perfbench/ compiles (always Syntactic); the next
  /// benchmark change deletes it together with verifier.semantic_modules.
  VerifyTier DecidedBy = VerifyTier::Syntactic;
};

/// Verifies the code bytes of a module against its auxiliary info and
/// relocations. \p Code/\p Size are the module's bytes, unrelocated or
/// as loaded; offsets in \p Obj are module-relative. The base they were
/// relocated at is taken from the first declared jump-table entry (0
/// for a module without tables), so every other entry must agree.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj);

/// Verifies \p Dis, which must be disassembleModule(Code, Size, Obj,
/// Base) for the Base \p Code was relocated at (0 for unrelocated
/// bytes): checks read each instruction's offset as its PC minus
/// Dis.Base, and jump-table entries must hold Dis.Base plus their
/// targets. Every check reads this disassembly, so a caller that
/// goes on to execute it (the linker hands it to Machine::sealModule,
/// which moves it into the module's decode) runs exactly the
/// instructions that were verified.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj,
                          const visa::Disassembly &Dis);

} // namespace mcfi

#endif // MCFI_VERIFIER_VERIFIER_H
