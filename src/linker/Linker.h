//===- linker/Linker.h - MCFI static and dynamic linking --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MCFI linker. Static linking loads a set of separately-compiled,
/// separately-instrumented modules, resolves relocations, generates the
/// combined CFG from their merged auxiliary info, verifies each module,
/// seals the code RX, and installs the ID tables with an update
/// transaction. Dynamic linking (dlopen) performs the paper's three
/// steps for a newly loaded library while other threads keep running:
///
///   (1) module preparation: map the library writable/not-executable and
///       apply its relocations;
///   (2) new CFG generation: fold the library into the combined CFG,
///       patch the library's Bary indexes, verify it, and seal it RX;
///   (3) ID-table updates: one TxUpdate installs the new IDs, with the
///       GOT entry updates serialized between the Tary and Bary phases.
///
/// The linker also synthesizes the bootstrap module (the "_start" entry
/// that calls main and exits, and the sigreturn trampoline) through the
/// same assemble-instrument-verify pipeline as user code.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_LINKER_LINKER_H
#define MCFI_LINKER_LINKER_H

#include "cfg/CFGGen.h"
#include "runtime/Machine.h"

#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace mcfi {

struct LinkOptions {
  /// Run the verifier on every module before sealing. Always on for
  /// instrumented programs; the unprotected baseline cannot verify.
  bool Verify = true;
  /// Generate and install the CFG policy (off for the baseline, which
  /// has no check transactions).
  bool InstallPolicy = true;
  /// Instrument the synthesized bootstrap module (matches whether the
  /// program modules are instrumented).
  bool InstrumentBootstrap = true;
  /// Install pure-extension policies (typical dlopen of a self-contained
  /// library) with the O(delta) incremental transaction instead of the
  /// full O(code-region) rebuild. Off forces every install through the
  /// full path (the bench's comparison baseline).
  bool IncrementalUpdates = true;
  /// Optional intersection-only CFG refinement (computeRefinement over
  /// the dataflow and layered-type analyses); applied to every policy
  /// this linker generates (static link and dlopen regenerations alike,
  /// so the refined policy stays consistent across loads). The caller
  /// keeps the object alive for the linker's lifetime. Null: plain
  /// type-matching CFG.
  const CFGRefinement *Refinement = nullptr;
};

/// What one dlopen request resolves to. Returned by value so a loader
/// thread never has to re-read Machine state (the module list may be
/// growing under other loaders by the time it looks).
struct DlopenResult {
  int64_t Handle = -1;        ///< machine module index, or negative
  uint32_t SiteIndexBase = 0; ///< the module's global branch-site base
  uint64_t CodeBase = 0;      ///< the module's mapped code base
};

/// Per-batch accounting for dynamic loads: one entry per processed batch
/// (a dlopenOne is a batch of one), whether it installed or failed.
struct DlopenBatchStats {
  uint32_t Requested = 0;   ///< dlopen requests in the batch
  uint32_t Loaded = 0;      ///< modules that mapped + resolved
  bool Installed = false;   ///< the single policy install succeeded
  bool Incremental = false; ///< that install took the delta path
  /// Module views folded into the persistent merge state: the batch's
  /// new modules, plus any a failed earlier batch left unfolded.
  uint32_t MergeViewsAppended = 0;
  double MergeMicros = 0;   ///< truncate and append, plus emit
  double InstallMicros = 0; ///< the single TxUpdate transaction
};

/// Per-batch accounting for unloads (dlclose), mirroring
/// DlopenBatchStats.
struct DlcloseBatchStats {
  uint32_t Requested = 0; ///< dlclose requests in the batch
  uint32_t Closed = 0;    ///< modules actually retired
  /// True when removing the batch changed surviving equivalence classes,
  /// forcing a full version-bumping reinstall on top of the retire
  /// transaction (class splits/renumbering; the common self-contained
  /// plugin case stays retire-only).
  bool PolicyReinstalled = false;
  /// Module views folded in again after truncating the merge to the
  /// first dying module: that module's tombstone and every view after it
  /// (live or tombstone), never a view before it.
  uint32_t MergeViewsAppended = 0;
  double MergeMicros = 0;  ///< truncate and re-fold, plus emit
  double RetireMicros = 0; ///< the single txUpdateRetire transaction
};

/// How to install a policy over the one the tables hold: the full,
/// version-bumping txUpdate, or txUpdateIncremental over the new entries
/// listed here.
struct InstallDelta {
  /// False only for a pure extension; then the dirty sets below are the
  /// whole install.
  bool FullRebuild = true;
  /// Why a full rebuild is required (a diagnostic label).
  std::string Reason;
  /// Extents to install: the installed ones' high-water marks.
  uint64_t TaryLimitBytes = 0;
  uint32_t BaryCount = 0;
  /// New-IBT table offsets (code-region bytes), sorted, and the same
  /// offsets coalesced into ranges for txUpdateIncremental.
  std::vector<uint64_t> TaryDirtyOffsets;
  std::vector<TaryRange> TaryDirty;
  /// New Bary site indexes: installed sites holding no ID (-1) that gain
  /// one, then every index >= the installed Bary count.
  std::vector<uint32_t> BaryDirty;
};

/// Classifies installing \p Next over \p Installed, the policy the tables
/// hold within the extents \p InstalledTaryBytes / \p InstalledBaryCount
/// (both 0 before the first install); \p CodeBytes is the mapped code
/// region's size. \p Next is a pure extension exactly when installing it
/// changes no entry the tables hold: every installed target keeps its
/// ECN and every installed site keeps its value (a site past a policy's
/// BranchECN reads as -1, and a -1 site gaining an ID is new). Anything
/// else rewrites live entries and must pay for a version bump so readers
/// can tell old CFG from new.
InstallDelta computeInstallDelta(const CFGPolicy &Installed,
                                 const CFGPolicy &Next,
                                 uint64_t InstalledTaryBytes,
                                 uint32_t InstalledBaryCount,
                                 uint64_t CodeBytes);

/// Drives loading, relocation, CFG generation, verification, and table
/// installation against one Machine.
class Linker {
public:
  Linker(Machine &M, LinkOptions Opts = LinkOptions());

  /// Statically links \p Objects (plus the synthesized bootstrap) into
  /// the machine. On failure returns false and sets \p Error.
  bool linkProgram(std::vector<MCFIObject> Objects, std::string &Error);

  /// Registers a library for later dynamic loading; the guest refers to
  /// it by the returned id in dlopen(id). The object becomes immutable
  /// and shared: every mapping of it holds this one copy, and its
  /// signatures are interned here, once, for every later fold.
  int registerLibrary(MCFIObject Obj);

  /// The object registered as \p Id (a valid registerLibrary result):
  /// the very object every mapping of the library shares.
  const std::shared_ptr<const MCFIObject> &registered(int Id) const {
    return Registry[static_cast<size_t>(Id)].Obj;
  }

  /// The paper's three-step dynamic linking. Returns the module handle
  /// (machine module index), or a negative value on failure. Installed
  /// as the machine's DlopenHook by linkProgram.
  int64_t dlopen(int64_t RegistryId);

  /// dlopen as a batch of one: one CFG regeneration and one Tary→GOT→Bary
  /// update transaction for this library. Every dynamic link operation
  /// holds DlopenLock for its whole run, so concurrent callers install
  /// one after another, each its own batch.
  DlopenResult dlopenOne(int64_t RegistryId);

  /// Loads \p RegistryIds as one batch: one CFG regeneration, one update
  /// transaction, one linearization point for every member. Results are
  /// index-parallel to the input; a member that fails to map or relocate
  /// fails alone, a failed verify or install fails the whole batch.
  std::vector<DlopenResult> dlopenBatch(const std::vector<int64_t> &RegistryIds);

  /// Module unload — the inverse of the dlopen path. The module's table
  /// entries are zeroed by ONE retire transaction (no version bump;
  /// checks against it fail closed immediately), its setjmp sites leave
  /// the longjmp list, its GOT-published addresses are zeroed in the
  /// transaction's between-phases hook, and its code range + exclusive
  /// ECNs go to the machine's epoch reclaimer to wait out the grace
  /// period. Returns false for an invalid handle (unknown, static
  /// program module, or already closed). Installed as the machine's
  /// DlcloseHook by linkProgram; like dlopenOne, a batch of one.
  bool dlcloseOne(int64_t Handle);
  int64_t dlclose(int64_t Handle) { return dlcloseOne(Handle) ? 0 : -1; }

  /// Unloads \p Handles as one batch (one retire transaction, one
  /// tombstoned-CFG regeneration). Results are index-parallel to the
  /// input; a bad or duplicate handle fails alone.
  std::vector<bool> dlcloseBatch(const std::vector<int64_t> &Handles);

  /// The policy the ID tables hold (valid after linkProgram): assigned
  /// only by a successful install, and scrubbed in place by dlclose's
  /// retire transaction.
  const CFGPolicy &policy() const { return Policy; }

  /// Per-install accounting for every update transaction this linker
  /// ran, in order (the metrics layer aggregates these).
  const std::vector<TxUpdateStats> &updateHistory() const {
    return UpdateHistory;
  }

  /// Per-batch accounting for dynamic loads, in install order.
  const std::vector<DlopenBatchStats> &batchHistory() const {
    return BatchHistory;
  }

  /// Per-batch accounting for unloads, in retire order.
  const std::vector<DlcloseBatchStats> &unloadHistory() const {
    return UnloadHistory;
  }

  const std::string &lastError() const { return LastError; }

private:
  /// An object as the linker holds it: shared and immutable, with its
  /// signatures interned once (internModuleSigs) for every fold of it.
  struct Registered {
    std::shared_ptr<const MCFIObject> Obj;
    std::shared_ptr<const ModuleSigs> Sigs;
  };
  static Registered intern(MCFIObject Obj);
  /// Maps \p R's object and records its signatures for the merge's view
  /// of the new module; returns the module index, or -1 with \p Error
  /// set (nothing is mapped).
  int mapRegistered(const Registered &R, std::string &Error);
  bool resolveModule(int Index, std::string &Error);
  /// Patches the BaryIndex32 relocations of the modules at \p Indexes,
  /// just mapped and still writable, with their sites' global indexes.
  void patchBaryIndexes(const CFGPolicy &Policy,
                        const std::vector<int> &Indexes);
  /// Fills the GOT slots of every module on the live list with the
  /// current definitions (zero for an import nobody defines now) and
  /// records the modules it walked and the slots it wrote in \p Counts'
  /// GotModules and GotSlots.
  void updateGotEntries(TxUpdateStats &Counts);
  bool installPolicy(CFGPolicy &&NewPolicy, uint32_t BatchModules = 1);
  /// The body of one dlopen batch, run under DlopenLock: fills
  /// Results[I] for Ids[I] (left as given for a failed member).
  void processBatch(std::span<const int64_t> Ids,
                    std::span<DlopenResult> Results);
  /// The body of one dlclose batch, run under DlopenLock: sets Closed[I]
  /// when Handles[I] was retired (left as given otherwise).
  void processUnloadBatch(std::span<const int64_t> Handles,
                          std::span<bool> Closed);
  /// Brings Merge to the fold of the machine's module list — one view
  /// per entry of M.modules(), a retired module as its positionally
  /// stable tombstone — and returns the number of views appended.
  ///
  /// \p From is the first view the calling operation can have changed:
  /// 0 for linkProgram; the first new index for a dlopen batch, which
  /// only appends modules (a member failing before the merge is already
  /// a tombstone at its own index); the lowest dying index for a dlclose
  /// batch, which turns those modules into tombstones. Nothing else
  /// changes a view: a reclaim keeps the tombstone, and a tail-trim only
  /// pops trailing tombstones. So every view below From is one Merge
  /// already folded, unless Merge or the module list is shorter: a
  /// failed batch forgot its members' folds, or a trim popped folded
  /// views. From is clamped to both sizes, Merge is truncated to it, and
  /// modules()[From..) are appended, without comparing the prefix.
  uint32_t syncMerge(size_t From);
  MCFIObject makeBootstrap();

  Machine &M;
  LinkOptions Opts;
  /// The persistent class-level merge: the fold of the module list as of
  /// the last link operation (a reclaimer tail-trim may pop trailing
  /// tombstones since; syncMerge's clamp notices). It never folds a
  /// module that failed to load past the operation that mapped it. Tests
  /// and the traced benchmark audit check it against a from-scratch
  /// merge — never an assert, which would cost a full merge per
  /// operation.
  CFGMerge Merge;
  CFGPolicy Policy;
  std::vector<TxUpdateStats> UpdateHistory;
  std::vector<DlopenBatchStats> BatchHistory;
  std::vector<DlcloseBatchStats> UnloadHistory;
  std::vector<Registered> Registry;
  /// Per index of M.modules(): the signatures of the object the linker
  /// mapped there, which syncMerge puts in the module's view. An entry
  /// past the module list (a tail-trim popped it) or of a retired module
  /// is never read.
  std::vector<std::shared_ptr<const ModuleSigs>> MappedSigs;
  /// Modules mapped by linkProgram (bootstrap + program). They can never
  /// be dlclosed: the running program's own code and the policy's stable
  /// prefix live there.
  size_t StaticModules = 0;
  /// The live modules, as ascending (load-order) indexes into
  /// M.modules(): the static ones, then every installed dlopen member
  /// (a batch's members join just before its install transaction, so
  /// its GOT pass fills theirs) minus the dlclosed ones (they leave
  /// before the retire transaction). The GOT pass and the install's
  /// debug IBT cross-check walk this list, so tombstones cost them
  /// nothing. Touched only by link operations: linkProgram, then the
  /// batches serialized by DlopenLock.
  std::vector<int> Live;
  std::string LastError;
  /// Serializes dynamic link operations: every dlopen and dlclose entry
  /// point holds it for the whole batch.
  std::mutex DlopenLock;
};

} // namespace mcfi

#endif // MCFI_LINKER_LINKER_H
