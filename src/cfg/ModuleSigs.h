//===- cfg/ModuleSigs.h - A module's interned signatures --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-module view of the signature interner: the interned
/// signatures of one MCFIObject's aux-info arrays, hash-consed like the
/// signatures themselves, so modules with the same type strings at the
/// same positions (every plugin of one template, every JIT op of one
/// shape) share one view. The table is keyed by the type strings
/// themselves — not the module name, symbol names or code bytes, which do
/// not affect the view — and compares them whole, so no module is handed
/// another's signatures. The linker interns a module once, when it
/// registers or statically links the object, and every later fold reads
/// the result from the module's LoadedModuleView (cfg/CFGGen.h); tools
/// and tests that build bare views intern once per generateCFG.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CFG_MODULESIGS_H
#define MCFI_CFG_MODULESIGS_H

#include "ctypes/SigIntern.h"

#include <memory>

namespace mcfi {

struct MCFIObject;

/// The interned signatures of one module, index-parallel to the aux
/// arrays. Entries for records without a type signature (direct calls,
/// returns, PLT jumps) are null.
struct ModuleSigs {
  SigList FuncSigs;   ///< parallel to Aux.Functions
  SigList BranchSigs; ///< parallel to Aux.BranchSites
  SigList CallSigs;   ///< parallel to Aux.CallSites
  SigList TailSigs;   ///< parallel to Aux.TailCalls
};

/// The interned signatures of \p Obj: the view already held for its
/// type strings, else a new one. Thread-safe; never null.
std::shared_ptr<const ModuleSigs> internModuleSigs(const MCFIObject &Obj);

/// internModuleSigs calls made by this process so far (relaxed; a count
/// pin for the folds that must not intern).
uint64_t moduleSigInterns();

} // namespace mcfi

#endif // MCFI_CFG_MODULESIGS_H
