//===- cfg/CFGGen.h - Type-matching CFG generation --------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MCFI's CFG generator (paper Sec. 6): merges the auxiliary type info of
/// all loaded modules and produces the control-flow policy —
/// equivalence-class numbers for every indirect-branch target (Tary side)
/// and every indirect-branch site (Bary side).
///
/// Edges:
///  - an indirect call through a pointer of type t* may target any
///    address-taken function whose type structurally matches t (with the
///    variadic fixed-prefix rule);
///  - indirect tail calls are handled identically;
///  - returns target the return sites of call sites that may (directly,
///    indirectly, or through tail-call chains) invoke the returning
///    function;
///  - PLT entries connect to the function with the matching name;
///  - setjmp return sites are collected for the runtime's longjmp
///    validation;
///  - signal handlers may "return" to the runtime's sigreturn trampoline
///    (a function named "sig$return" exported by the bootstrap module).
///
/// Target sets that overlap are merged into equivalence classes exactly
/// as in the classic CFI (union-find), and each class receives an ECN.
/// ECN assignment is *stable under module loads*: regenerating the CFG
/// with extra modules appended keeps every surviving class's number (new
/// classes get fresh, higher numbers), so the linker can usually install
/// a post-dlopen policy as a pure extension of the previous one.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CFG_CFGGEN_H
#define MCFI_CFG_CFGGEN_H

#include "module/MCFIObject.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mcfi {

/// A module mapped into the code region at a base address, as the
/// loader/linker sees it.
///
/// A view with Obj == nullptr is a *tombstone*: the slot of a dlclosed
/// module. It contributes TombstoneSites branch-site positions — each
/// carrying no ECN (BranchECN -1, i.e. a zeroed table entry, exactly the
/// state the retire transaction left behind) — and nothing else: no
/// functions, no IBTs, no call sites, no edges. Tombstones keep the
/// global site-index space positionally stable, so already-sealed
/// surviving modules' patched Bary indexes remain correct, while the
/// merged CFG is exactly what it would be had the module never loaded.
struct LoadedModuleView {
  const MCFIObject *Obj = nullptr;
  uint64_t CodeBase = 0;
  /// Branch-site slots held by a tombstone (ignored when Obj != null).
  uint32_t TombstoneSites = 0;
};

/// The generated control-flow policy.
struct CFGPolicy {
  /// ECN for every indirect-branch target (absolute code address).
  std::unordered_map<uint64_t, uint32_t> TargetECN;

  /// ECN per global branch-site index; a site with an empty target set
  /// carries the reserved EmptyClassECN, which no target ever holds, so
  /// its check can never pass. Global index = module's SiteIndexBase +
  /// module-local SiteId.
  std::vector<int64_t> BranchECN;

  /// Post-merge target-class size per global branch-site index (the
  /// enforced target-set size used by the AIR metric).
  std::vector<uint64_t> BranchClassSize;

  /// Per-module base of the global branch-site index space (parallel to
  /// the module list passed to generateCFG). The loader patches each
  /// BaryIndex32 relocation with SiteIndexBase[m] + SiteId.
  std::vector<uint32_t> SiteIndexBase;

  /// Absolute addresses of setjmp return sites (longjmp validation).
  std::vector<uint64_t> SetjmpRetSites;

  /// Statistics (paper Table 3).
  uint64_t NumIBs = 0;  ///< instrumented indirect branches
  uint64_t NumIBTs = 0; ///< indirect-branch targets
  uint64_t NumEQCs = 0; ///< equivalence classes among IBTs

  /// The Tary lookup used by update transactions (Fig. 3's getTaryECN):
  /// returns the ECN for absolute code address \p Addr or -1.
  int64_t getTaryECN(uint64_t Addr) const {
    auto It = TargetECN.find(Addr);
    return It == TargetECN.end() ? -1 : static_cast<int64_t>(It->second);
  }

  /// Fig. 3's getBaryECN over global site indexes.
  int64_t getBaryECN(uint32_t Index) const {
    return Index < BranchECN.size() ? BranchECN[Index] : -1;
  }
};

/// Canonical signature of a signal handler, used for the sigreturn
/// trampoline edge ("void (*)(int)").
extern const char *const SignalHandlerSig;

/// An *intersection-only* sharpening of the type-matching policy,
/// produced by the interprocedural dataflow engine (dataflow/Dataflow.h).
///
/// Soundness contract: refinement never widens. Every indirect branch
/// whose (owner function, pointer signature) key appears in Allowed has
/// its type-matched target set intersected with the named set; branches
/// with no key keep their full type-matched set, so modules outside the
/// analysis (e.g. the bootstrap runtime) are unaffected. Address-taken
/// functions that survive in no target set and are not pinned by
/// KeepTargets are dropped from the IBT universe — they were only
/// reachable through edges the flow analysis proved dead, and dropping
/// them is what shrinks equivalence classes (per-site intersection alone
/// cannot: overlapping sets re-merge under the union-find coarsening).
struct CFGRefinement {
  /// Allowed indirect-branch target *names*, keyed by (owner function
  /// name, canonical pointer signature) — the same key triple aux-info
  /// branch sites, call sites, and tail calls carry.
  std::map<std::pair<std::string, std::string>, std::set<std::string>> Allowed;

  /// Functions that must remain indirect-branch targets even when no
  /// refined set references them (escapees: values handed to the
  /// runtime or to code outside the analyzed module set).
  std::set<std::string> KeepTargets;
};

/// Generates the combined CFG policy for \p Modules (in load order).
/// With \p Refinement, target sets are intersected as described above;
/// passing nullptr yields the paper's plain type-matching policy.
///
/// Equivalence classes are formed per target-set key and per return
/// class, never per site, so the cost is linear in the loaded world plus
/// the matched targets of each distinct key. The result is byte-identical
/// to generateCFGReference (cfg/CFGReference.h), the per-site generator
/// kept as the test oracle.
CFGPolicy generateCFG(const std::vector<LoadedModuleView> &Modules,
                      const CFGRefinement *Refinement = nullptr);

} // namespace mcfi

#endif // MCFI_CFG_CFGGEN_H
