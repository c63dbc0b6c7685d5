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
///    or a declared jump table; no bare `ret`; jump-table entries match
///    the declared targets and land on instruction boundaries; direct
///    branches land on boundaries; indirect-branch targets (address-taken
///    function entries and return sites) are 4-byte aligned.
///
///  - Templates: every `jmpi`/`calli` is the terminal branch of a
///    declared check sequence whose instructions match the Fig. 4
///    template byte-for-byte, or of a jump-table dispatch that bounds its
///    index by the declared table's size and loads from that table; every
///    non-stack store is immediately preceded by the sandbox mask; and
///    direct branches never enter a sequence or bypass a mask.
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

/// Verifies the (relocated) code bytes of a module against its auxiliary
/// info. \p Code/\p Size are the module's bytes as loaded; offsets in
/// \p Obj are module-relative.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj);

/// Verifies \p Dis, which must be disassembleModule(Code, Size, Obj,
/// Base) for any Base: checks read each instruction's offset as its PC
/// minus Dis.Base. Every check reads this disassembly, so a caller that
/// goes on to execute it (the linker hands it to Machine::sealModule,
/// which moves it into the module's decode) runs exactly the
/// instructions that were verified.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj,
                          const visa::Disassembly &Dis);

} // namespace mcfi

#endif // MCFI_VERIFIER_VERIFIER_H
