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

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mcfi {

struct ModuleSigs;

/// A module mapped into the code region at a base address, as the
/// loader/linker sees it.
///
/// Sigs is the module's interned signatures (internModuleSigs(*Obj)),
/// computed once per object: the linker interns them when it registers or
/// statically links the object and hands them to every fold by reference.
/// CFGMerge::append reads them from here and never looks them up; a bare
/// view (Sigs null) gets them from withModuleSigs, which generateCFG and
/// generateCFGReference apply to the views they are given.
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
  /// The interned signatures of Obj (null in a bare view or a tombstone).
  std::shared_ptr<const ModuleSigs> Sigs = nullptr;
};

/// \p View with its signatures filled in: a bare live view gets
/// internModuleSigs(*View.Obj); a view that has them, or a tombstone, is
/// returned as it is.
LoadedModuleView withModuleSigs(LoadedModuleView View);

/// The Tary side of a policy: the ECN of every indirect-branch target,
/// held as one address-sorted, duplicate-free vector of {absolute code
/// address, ECN}. Lookups are binary searches. Iteration runs in
/// ascending address order, the order the Tary table is laid out in, so
/// the linker diffs two policies with one merge walk, feeds an update
/// transaction with a moving cursor, and forgets a dlclosed module's
/// targets with one range erase.
class TargetECNTable {
public:
  using value_type = std::pair<uint64_t, uint32_t>; ///< {address, ECN}
  using const_iterator = std::vector<value_type>::const_iterator;

  TargetECNTable() = default;
  /// Sorts \p Unsorted by address; of entries sharing an address, the
  /// first one given wins.
  explicit TargetECNTable(std::vector<value_type> Unsorted);

  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  size_t size() const { return Entries.size(); }

  /// The first entry at or above \p Addr.
  const_iterator lowerBound(uint64_t Addr) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Addr,
        [](const value_type &E, uint64_t A) { return E.first < A; });
  }
  const_iterator find(uint64_t Addr) const {
    auto It = lowerBound(Addr);
    return It != end() && It->first == Addr ? It : end();
  }
  size_t count(uint64_t Addr) const { return find(Addr) != end(); }
  /// The ECN of target \p Addr; throws std::out_of_range if it is none.
  uint32_t at(uint64_t Addr) const;

  /// Removes every entry whose address lies in [\p Begin, \p End).
  void eraseRange(uint64_t Begin, uint64_t End) {
    Entries.erase(lowerBound(Begin), lowerBound(End));
  }

  bool operator==(const TargetECNTable &) const = default;

private:
  std::vector<value_type> Entries;
};

/// The generated control-flow policy.
struct CFGPolicy {
  /// ECN for every indirect-branch target (absolute code address),
  /// ascending by address.
  TargetECNTable TargetECN;

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

  /// Fig. 3's getTaryECN: the ECN for absolute code address \p Addr, or
  /// -1, by binary search. (The linker's install transactions ask in
  /// ascending order and answer from a cursor instead.)
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
/// composed from the function-pointer dataflow engine and the layered
/// type map (computeRefinement in mlta/Mlta.h).
///
/// Soundness contract: refinement never widens. Every indirect branch
/// whose (owner function, pointer signature) key appears in Allowed has
/// its type-matched target set intersected with the named set; branches
/// with no key keep their full type-matched set, so modules outside the
/// analysis (e.g. the bootstrap runtime) are unaffected. Address-taken
/// functions that survive in no target set and are not pinned by
/// KeepTargets are dropped from the IBT universe — they were only
/// reachable through edges the analyses proved dead, and dropping
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

/// The class-level merge as a fold over module views: append() folds in
/// the next module in load order, emit() produces the policy of the
/// views folded so far, and truncate() forgets the views from some index
/// on. A module only ever adds functions, keys, edges and unions, so
/// append() applies the new module's late effects on the older ones in
/// place — names they left unresolved, functions they make
/// address-taken, key targets, tail-graph reachability, refinement
/// liveness — and costs O(new module + what it touches), not O(world).
///
/// emit() depends only on the sequence of views, never on how it was
/// split into appends and truncates: folding views[0..k) then
/// views[k..n) emits the same policy as generateCFG(views), and so does
/// folding views[0..m), truncating to k <= m, then folding views[k..n).
/// It is linear in the IBTs and branch sites and hashes no strings.
///
/// Every append logs the writes it makes to what earlier views built, so
/// truncate() costs O(what the forgotten views did). The linker keeps
/// one state: when an unload or a reclaimer tail-trim changes a folded
/// view, it truncates to the first changed view and folds the views from
/// there on again. The state is copyable. A view's object must outlive
/// its fold (until it is truncated away or the state dies): the state
/// keeps views of its names.
class CFGMerge {
public:
  /// \p Refinement (may be null) must outlive the state.
  explicit CFGMerge(const CFGRefinement *Refinement = nullptr);
  CFGMerge(const CFGMerge &Other);
  CFGMerge &operator=(const CFGMerge &Other);
  ~CFGMerge();

  /// Folds \p View in as the next module in load order. A live view must
  /// carry its Sigs (see withModuleSigs).
  void append(const LoadedModuleView &View);

  /// Forgets every view from index \p N on (N <= views().size()), exactly
  /// as if they had never been appended.
  void truncate(size_t N);

  /// The views folded in so far, in load order.
  const std::vector<LoadedModuleView> &views() const;

  /// The policy of the views folded so far.
  CFGPolicy emit() const;

private:
  friend CFGPolicy generateCFG(const std::vector<LoadedModuleView> &,
                               const CFGRefinement *);
  struct State;
  std::unique_ptr<State> S;
};

/// Generates the combined CFG policy for \p Modules (in load order): a
/// fresh CFGMerge with every view appended (bare views through
/// withModuleSigs), then emitted. With
/// \p Refinement, target sets are intersected as described above;
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
