//===- mlta/Mlta.h - Multi-layer type analysis ------------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-layer type analysis (MLTA, after Lu & Hu's "Where Does It Go?",
/// CCS'19) over the MiniC AST: a layered type map that, for every
/// function-pointer-typed field, records the *chain of enclosing record
/// types* through which function addresses are stored and loaded. An
/// indirect call that loads its callee through such a chain may only
/// target functions actually stored through a compatible chain — usually
/// a far smaller set than first-layer type analysis (FLTA), which admits
/// every address-taken function of matching signature.
///
/// Layering. A chain is a sequence of (record signature, field index)
/// layers, innermost first: `o.in.f` yields [(I,f), (O,in)] where I is
/// the record containing `f` and O the record containing `in`. Records
/// are keyed by ctypes' canonical signature (the same key the PR-2
/// dataflow engine's field cells use), so chains unify across modules
/// and across structurally identical records. Pointer indirection ends a
/// chain: `ip->f` yields the one-layer chain [(I,f)] because the engine
/// does not track which instance `ip` designates. Array indexing is
/// transparent (elements are summarized, like the dataflow engine's
/// field-based cells).
///
/// Compatibility. A load through chain L observes a store through chain
/// S iff one chain is a prefix of the other (innermost-aligned): the
/// store `ip->f = g` must be visible to the load `o.in.f(...)` and vice
/// versa, since `ip` may designate exactly that nested instance.
///
/// Struct copies. A record-valued assignment between *different*
/// enclosing paths (`o2.in2 = o1.in`, possibly through a plain variable)
/// adds a chain-rewrite edge; a fixpoint propagates store sets along
/// these edges, so copy cycles converge and copied registries carry
/// their targets with them.
///
/// Soundness: FLTA fallback. Any type the analysis cannot fully account
/// for falls back to FLTA — the refined set for an affected site is the
/// full type-matched set, never less:
///  - union records (their fields alias);
///  - casts between incompatible record pointers, and casts of a
///    function-pointer-carrying record pointer to/from a non-record
///    pointer (fresh malloc results and null literals exempt);
///  - address-of-field (&s.f) applied to a function-pointer field (the
///    cell can then be written through a raw pointer the chains never
///    see);
///  - records handed to externals, variadic argument lists, runtime
///    builtins, or asm (escaped records taint, transitively, every
///    record type embedded in or pointed to by their fields);
///  - a store into a chain whose right-hand side the syntactic resolver
///    cannot name (the chain is poisoned: compatible loads fall back);
///  - unannotated inline assembly or an unresolvable escaping function
///    value havocs the whole result (no site is refined).
///
/// Every refined target set is intersected with the site's FLTA set, so
/// MLTA ⊆ FLTA holds per call site *by construction*; tools/mcfi-audit
/// --mlta re-checks it as a differential. Escaped function values are
/// pinned as indirect-branch targets, exactly like the dataflow engine's
/// KeepTargets.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_MLTA_MLTA_H
#define MCFI_MLTA_MLTA_H

#include "dataflow/Dataflow.h"

#include <set>
#include <string>
#include <vector>

namespace mcfi {
namespace mlta {

/// One enclosing layer of a store/load chain: the record holding the
/// accessed field, by canonical signature.
struct Layer {
  std::string RecordSig; ///< canonical signature of the enclosing record
  unsigned FieldIndex = 0;
  std::string Desc; ///< "Tag.field" for reports

  bool operator==(const Layer &O) const {
    return RecordSig == O.RecordSig && FieldIndex == O.FieldIndex;
  }
  bool operator<(const Layer &O) const {
    if (RecordSig != O.RecordSig)
      return RecordSig < O.RecordSig;
    return FieldIndex < O.FieldIndex;
  }
};

/// A chain of layers, innermost first (element 0 is the field the
/// function pointer lives in; later elements are enclosing records).
using LayerChain = std::vector<Layer>;

/// Renders a chain as "Outer.in->Inner.f" style text (outermost first,
/// human order). Stable: used as the layered-map key.
std::string chainKey(const LayerChain &C);

/// One indirect call site under the layered map.
struct MltaSite {
  std::string Caller; ///< enclosing function
  std::string Module; ///< module defining the caller
  minic::SourceLoc Loc;
  std::string PointerSig; ///< canonical signature of the pointee fn type
  bool VariadicPointer = false;
  /// The callee load chain; empty when the callee is not a member access
  /// (plain FLTA site).
  LayerChain Chain;
  /// True iff the layered map fully accounts for the chain: Targets is
  /// then the MLTA set. False: the site keeps its FLTA set.
  bool Refined = false;
  /// The refined target set (Refined) — always a subset of Flta.
  std::vector<std::string> Targets;
  /// The FLTA set: every defined address-taken function whose signature
  /// type-matches the pointer (the set the plain CFG enforces).
  std::vector<std::string> Flta;
  /// Why the site fell back, when it did (human-readable).
  std::string FallbackWhy;
  /// Witness chain per refined target (parallel to Targets): the store
  /// that put the function into the layered map, then the load.
  std::vector<std::vector<EvidenceStep>> Witness;
};

struct MltaStats {
  unsigned Records = 0;    ///< distinct record signatures seen in chains
  unsigned Chains = 0;     ///< distinct store chains in the layered map
  unsigned Stores = 0;     ///< store events folded into the map
  unsigned CopyEdges = 0;  ///< chain-rewrite edges from struct copies
  unsigned Iterations = 0; ///< copy-propagation fixpoint rounds
};

/// The layered type map plus per-site refinement results.
struct MltaResult {
  std::vector<MltaSite> Sites;
  /// Record signatures that escaped (plus everything they taint); any
  /// chain touching one falls back to FLTA.
  std::set<std::string> EscapedRecords;
  /// Function values that escaped to code the analysis cannot see; they
  /// must remain indirect-branch targets under any refinement.
  std::set<std::string> KeepTargets;
  /// Nothing may be refined (unannotated asm / unresolvable escape).
  bool Havoc = false;
  std::vector<std::string> Notes;
  MltaStats Stats;
};

/// Runs the layered-type analysis over a whole-program module set
/// (same linkage rules as the dataflow engine: names bind by name).
MltaResult analyzeLayeredTypes(const std::vector<FlowModule> &Mods);

/// Builds the intersection-only CFG refinement from the layered map:
/// every refined site contributes its MLTA set keyed by (caller, pointer
/// signature); a key covering any fallback site is dropped entirely;
/// escaped functions are pinned. With Havoc, the refinement is empty
/// (refined CFG == type-matched CFG). The produced refinement rides
/// LinkOptions::Refinement and therefore applies identically at static
/// link, dlopen (including flat-combining batches) and dlclose retire
/// regenerations, where the merge stays byte-identical to its per-site
/// reference.
CFGRefinement computeMltaRefinement(const MltaResult &R);

} // namespace mlta
} // namespace mcfi

#endif // MCFI_MLTA_MLTA_H
