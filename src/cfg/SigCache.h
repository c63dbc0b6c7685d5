//===- cfg/SigCache.h - Per-module interned signature cache -----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-module view of the signature interner: the interned
/// signatures of one MCFIObject's aux-info arrays, computed once per
/// distinct sequence of aux type strings and shared via SigSetCache. The
/// CFG merge regenerates the combined policy on every dlopen (paper
/// Sec. 4), so without this cache each merge re-interns every signature
/// string of every already-loaded module; with it, a re-merge does one
/// key lookup per module and then works purely with interned pointers.
/// The key covers the type strings only — not the module name, symbol
/// names or code bytes, which do not affect the interned view — so it
/// costs one pass over short strings, not over the module's code.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CFG_SIGCACHE_H
#define MCFI_CFG_SIGCACHE_H

#include "ctypes/SigIntern.h"

#include <memory>

namespace mcfi {

struct MCFIObject;

/// The interned signatures of one module, index-parallel to the aux
/// arrays. Entries for records without a type signature (direct calls,
/// returns, PLT jumps) are null.
struct ModuleSigs {
  uint64_t Key = 0; ///< hashModuleSigKey of the source module
  SigList FuncSigs;   ///< parallel to Aux.Functions
  SigList BranchSigs; ///< parallel to Aux.BranchSites
  SigList CallSigs;   ///< parallel to Aux.CallSites
  SigList TailSigs;   ///< parallel to Aux.TailCalls
};

/// Hash of the aux fields that determine a module's interned signatures:
/// the type strings of its functions, branch sites, call sites and tail
/// calls, in order. Two modules with equal keys share one ModuleSigs.
uint64_t hashModuleSigKey(const MCFIObject &Obj);

/// Returns the (possibly cached) interned-signature view of \p Obj.
/// Thread-safe; never null.
std::shared_ptr<const ModuleSigs> getModuleSigs(const MCFIObject &Obj);

} // namespace mcfi

#endif // MCFI_CFG_SIGCACHE_H
