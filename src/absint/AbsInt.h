//===- absint/AbsInt.h - Semantic CFI/SFI proof engine ----------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic tier of the module verifier: a worklist-fixpoint abstract
/// interpreter over the complete disassembly that *proves* the three MCFI
/// invariants instead of matching the rewriter's templates byte-for-byte:
///
///   1. every jmpi/calli dispatch consumes a register whose value flowed
///      through an unbroken check transaction for exactly the branch site
///      declared at that offset (no clobber, no unchecked join);
///   2. every store through a non-stack-pointer register is dominated by
///      a sandbox mask along all paths to it (masks may be hoisted and
///      shared across stores);
///   3. every jump-table dispatch consumes a value loaded from the
///      declared table under an in-bounds index.
///
/// Rejections carry a concrete trace witness (a path of block offsets
/// from an analysis entry to the violating instruction). The engine is
/// whole-module: analysis entries are all function entries, all declared
/// indirect-branch targets (return sites), and all direct branch targets,
/// each seeded with an all-unknown register state, so a proof holds no
/// matter which declared entry control arrives through.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_ABSINT_ABSINT_H
#define MCFI_ABSINT_ABSINT_H

#include "absint/AbsDomain.h"
#include "module/MCFIObject.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mcfi {
namespace absint {

/// Result of a semantic proof attempt over one module.
struct SemanticResult {
  bool Ok = true;
  /// Human-readable violations; each names the offending offset and
  /// carries a "path:" witness of block offsets from an entry.
  std::vector<std::string> Errors;
  /// Worklist iterations until the fixpoint stabilized.
  uint64_t FixpointIters = 0;
  size_t Blocks = 0;
  size_t Entries = 0;
  /// Per-block CFG + final-state dump (only when AbsIntOptions asks).
  std::string BlockDump;
};

struct AbsIntOptions {
  /// Populate SemanticResult::BlockDump (mcfi-objdump --cfg).
  bool CollectBlockDump = false;
  /// In-state updates of one block before its changing registers are
  /// widened straight to Top (loop-head backstop).
  unsigned WidenUpdates = 64;
  /// Hard worklist cap; 0 picks blocks * 256. Hitting it is a reject
  /// ("fixpoint did not converge"), never an accept.
  uint64_t MaxIters = 0;
};

/// Runs the fixpoint engine over \p Code and proves the three invariants
/// against the module's declared aux info. \p Dis must be the module's
/// complete disassembly (disassembleModule, the one the syntactic tier
/// checks and the runtime executes). Structural well-formedness (decodability,
/// jump-table contents, alignment, direct-branch boundaries) is the
/// caller's concern — the verifier checks those in its shared tier.
SemanticResult prove(const uint8_t *Code, size_t Size, const MCFIObject &Obj,
                     const visa::Disassembly &Dis,
                     const AbsIntOptions &Opts = {});

} // namespace absint
} // namespace mcfi

#endif // MCFI_ABSINT_ABSINT_H
