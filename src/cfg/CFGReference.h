//===- cfg/CFGReference.h - Per-site reference CFG generator ----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The straightforward CFG generator, kept as the oracle for generateCFG.
/// It materialises every branch site's target list (return sites through
/// an explicit tail-call closure over per-function return-target lists)
/// and unions each list in a union-find over the IBT universe. That is
/// superlinear in the loaded world, so the linker never calls it; the
/// merge differential (tests/ParallelMergeTest.cpp, tools/mcfi-merge)
/// and bench_cfggen_speed check that generateCFG's class-level merge
/// produces a byte-identical CFGPolicy.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CFG_CFGREFERENCE_H
#define MCFI_CFG_CFGREFERENCE_H

#include "cfg/CFGGen.h"

namespace mcfi {

/// Same contract and result as generateCFG, computed site by site.
CFGPolicy generateCFGReference(const std::vector<LoadedModuleView> &Modules,
                               const CFGRefinement *Refinement = nullptr);

/// True if every field of \p A and \p B is equal.
bool policiesIdentical(const CFGPolicy &A, const CFGPolicy &B);

} // namespace mcfi

#endif // MCFI_CFG_CFGREFERENCE_H
