//===- dataflow/Dataflow.h - Function-pointer dataflow engine ---*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interprocedural, flow-sensitive function-pointer dataflow engine
/// over the MiniC AST. It propagates function-address values through
/// assignments, calls/returns, struct/array fields, and casts to a
/// fixpoint, producing per-indirect-call-site points-to sets with
/// source-level evidence chains.
///
/// Abstraction:
///  - locals and parameters that are never address-taken are tracked
///    flow-sensitively (per-assignment definition nodes, loop phi nodes,
///    strong updates on straight-line code);
///  - globals, address-taken locals, record fields (field-based, keyed
///    by the record's canonical signature and field index) and array
///    elements (one summary cell per array) are weakly updated;
///  - calls build the call graph on the fly: targets discovered for an
///    indirect call bind arguments/returns during the fixpoint, so
///    cyclic call graphs converge;
///  - dlsym(handle, "literal") resolves to the named definition; every
///    other external source is an explicit Unknown.
///
/// Soundness posture: the engine is conservative in the direction its
/// consumers need. A site reached by any Unknown value is *incomplete*
/// (its type-matched target set must not be narrowed); a store through
/// an unresolved pointer sets the global Havoc flag (no site may be
/// narrowed); function values escaping to externals are kept as
/// indirect-branch targets. Refinement built on these results (with the
/// layered type map's, by mcfi::computeRefinement in mlta/Mlta.h) only
/// ever intersects the type-matching policy, never widens it.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_DATAFLOW_DATAFLOW_H
#define MCFI_DATAFLOW_DATAFLOW_H

#include "analyzer/Analyzer.h"
#include "minic/AST.h"

#include <set>
#include <string>
#include <vector>

namespace mcfi {

/// One analyzed translation unit of the whole-program module set.
struct FlowModule {
  minic::Program *Prog = nullptr; ///< type-checked (post-Sema) AST
  std::string Name;               ///< module name for attribution
};

/// One hop of a witness chain: where a function-address value moved and
/// what moved it.
struct EvidenceStep {
  std::string Module;
  minic::SourceLoc Loc;
  std::string Desc;
};

/// The flow summary of one indirect call site.
struct SiteFlow {
  std::string Caller;     ///< enclosing function
  std::string Module;     ///< module defining the caller
  minic::SourceLoc Loc;   ///< location of the call expression
  std::string PointerSig; ///< canonical signature of the pointee fn type
  bool VariadicPointer = false;
  /// True iff no Unknown value reaches the callee expression and no
  /// havoc store occurred: the Targets set is then an over-approximation
  /// of every function this site can invoke, and the refinement may
  /// intersect the type-matched set with it.
  bool Complete = false;
  std::vector<std::string> Targets; ///< reaching functions, by name
  /// Evidence chain per target (parallel to Targets): seed first, call
  /// site last.
  std::vector<std::vector<EvidenceStep>> Chains;
};

/// A proven K1 situation: a function of an incompatible type reaches an
/// indirect call site, so the type-matching CFG misses a benign edge.
struct FlowFinding {
  std::string Caller, Module;
  minic::SourceLoc CallLoc;
  std::string Target;     ///< the incompatible function
  std::string TargetSig;  ///< its canonical signature
  std::string PointerSig; ///< the site's pointer signature
  std::vector<EvidenceStep> Chain;
};

struct DataflowStats {
  unsigned Nodes = 0;
  unsigned Edges = 0;
  unsigned Facts = 0;      ///< (node, function) facts at fixpoint
  unsigned Iterations = 0; ///< fixpoint rounds until convergence
};

struct DataflowResult {
  std::vector<SiteFlow> Sites;
  std::vector<FlowFinding> Incompatible;
  /// Functions whose address escapes to code the engine cannot see
  /// (externals, variadic argument lists, runtime builtins). They must
  /// remain indirect-branch targets under any refinement.
  std::set<std::string> EscapedFunctions;
  /// A store through an unresolved pointer happened somewhere: the
  /// engine bounds no site.
  bool Havoc = false;
  /// Human-readable notes on conservative decisions (havoc causes,
  /// unresolved dlsym names, ...).
  std::vector<std::string> Notes;
  DataflowStats Stats;
};

/// Runs the engine over a whole-program module set. Cross-module linkage
/// follows the linker's rules: functions and globals bind by name, first
/// definition wins.
DataflowResult analyzeFunctionPointerFlow(const std::vector<FlowModule> &Mods);

/// Sharpens an analyzer report with flow facts (the paper Sec. 6 K1/K2
/// split, now proven instead of guessed): a surviving C1 violation is K1
/// iff it lies on a witness chain of an incompatible-function flow into
/// an indirect call site, and K2 otherwise; witness chains are attached
/// to the reclassified reports. \p Module is the module the report was
/// produced from (chains carry module attribution). No-op if \p Flow
/// havocked — the proof obligations cannot be discharged.
void refineResidualsWithFlow(AnalysisReport &Report, const std::string &Module,
                             const DataflowResult &Flow);

} // namespace mcfi

#endif // MCFI_DATAFLOW_DATAFLOW_H
