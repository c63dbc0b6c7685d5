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
/// same flat disassembly the runtime executes — and verifies the MCFI/SFI
/// properties in two tiers that share one structural pass:
///
///  - Structural (always): every byte decodes as part of exactly one
///    instruction or a declared jump table; no bare `ret`; jump-table
///    entries match the declared targets and land on instruction
///    boundaries; direct branches land on boundaries; indirect-branch
///    targets (address-taken function entries and return sites) are
///    4-byte aligned.
///
///  - Syntactic tier (fast path): every `jmpi`/`calli` is the terminal
///    branch of a declared check sequence whose instructions match the
///    blessed Fig. 4 template byte-for-byte, every non-stack store is
///    immediately preceded by the sandbox mask, and direct branches never
///    enter a sequence or bypass a mask.
///
///  - Semantic tier (absint/): an abstract interpreter *proves* the same
///    invariants path-sensitively, so semantically safe but differently
///    scheduled sequences (hoisted masks, reordered ID loads — the
///    rewriter's Optimize output) also verify. In the default two-tier
///    mode it runs only on modules the templates reject.
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

/// Which tier produced the verdict.
enum class VerifyTier : uint8_t { Syntactic, Semantic };

struct VerifyOptions {
  /// Try the syntactic template matcher first.
  bool UseSyntactic = true;
  /// Run the semantic engine (as fallback when UseSyntactic, standalone
  /// otherwise). Both false degenerates to the structural pass alone and
  /// is rejected as a misconfiguration.
  bool UseSemantic = true;
};

struct VerifyResult {
  bool Ok = true;
  std::vector<std::string> Errors;
  /// The tier that decided the verdict (meaningful when Ok, or when a
  /// single tier ran).
  VerifyTier DecidedBy = VerifyTier::Syntactic;
  /// Two-tier mode: the template findings that made the syntactic tier
  /// punt to the semantic engine (informational when the module proves).
  std::vector<std::string> SyntacticFindings;
  /// Fixpoint iterations of the semantic engine (0 = engine did not run).
  uint64_t FixpointIters = 0;
  /// Semantic engine CFG statistics (0 = engine did not run).
  size_t SemanticBlocks = 0;
  size_t SemanticEntries = 0;
};

/// Verifies the (relocated) code bytes of a module against its auxiliary
/// info. \p Code/\p Size are the module's bytes as loaded; offsets in
/// \p Obj are module-relative. The default is the two-tier mode:
/// syntactic fast path, semantic proof for whatever it rejects.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj,
                          const VerifyOptions &Opts = {});

/// Verifies \p Dis, which must be disassembleModule(Code, Size, Obj,
/// Base) for any Base: checks read each instruction's offset as its PC
/// minus Dis.Base. Every check reads this disassembly, so a caller that
/// goes on to execute it (the linker hands it to Machine::sealModule,
/// which moves it into the module's decode) runs exactly the
/// instructions that were verified.
VerifyResult verifyModule(const uint8_t *Code, size_t Size,
                          const MCFIObject &Obj,
                          const visa::Disassembly &Dis,
                          const VerifyOptions &Opts = {});

} // namespace mcfi

#endif // MCFI_VERIFIER_VERIFIER_H
