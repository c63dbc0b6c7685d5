//===- rewriter/Rewriter.h - MCFI instrumentation pass ----------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MCFI rewriter (paper Sec. 7: ~4000 lines of C++ inside LLVM's
/// backend in the original). It transforms a PendingModule in place:
///
///  - every return is expanded into the check transaction of Fig. 4
///    (pop/mask/BaryRead/TableRead/compare, with the invalid-target,
///    version-retry, and ECN-violation slow paths);
///  - every indirect call and indirect tail call gets the same check
///    before its calli/jmpi;
///  - every call's *return site* is 4-byte aligned by padding placed
///    before the call (so the return address itself stays immediately
///    after the call instruction) and recorded as an IBT;
///  - every memory write through a non-stack register is masked into the
///    [0, 4 GiB) sandbox;
///  - jump-table jumps are left unchecked (they are verified statically);
///  - for dynamically-linking modules, MCFI-instrumented PLT entries and
///    GOT slots are synthesized for each imported function.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_REWRITER_REWRITER_H
#define MCFI_REWRITER_REWRITER_H

#include "module/Pending.h"

namespace mcfi {

/// Rewriter knobs.
struct RewriteOptions {
  /// Footnote 1 of the paper: instead of relying on the ID reserved bits
  /// to reject misaligned targets, insert an extra `and` that clears the
  /// low two bits of the target ("incurs more overhead"). Kept as an
  /// ablation; the default is the paper's reserved-bit design.
  bool AlignTargetsByMasking = false;
  /// Kept only so that perfbench/ compiles; must stay false (there is one
  /// instrumentation, the Fig. 4 order). The next benchmark change deletes
  /// it together with verifier.semantic_modules.
  bool Optimize = false;
};

/// Instruments \p PM in place, creating its BranchSites, CallSites, and
/// alignment layout. Idempotence is not supported: call exactly once.
void instrumentModule(PendingModule &PM,
                      const RewriteOptions &Opts = RewriteOptions());

/// Synthesizes an instrumented PLT entry ("plt$<sym>") and a GOT slot
/// ("got$<sym>") for every import of \p PM. Call after
/// instrumentModule() with the same options so PLT check cores share the
/// module's alignment variant. The loader redirects unresolved direct calls to
/// the PLT entries; the dynamic linker updates the GOT slots inside an
/// update transaction.
void addPltEntries(PendingModule &PM,
                   const RewriteOptions &Opts = RewriteOptions());

} // namespace mcfi

#endif // MCFI_REWRITER_REWRITER_H
