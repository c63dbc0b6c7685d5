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
///   (2) new CFG generation: regenerate the combined CFG, patch the
///       library's Bary indexes, verify it, and seal it RX;
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
#include "tables/Shadow.h"

#include <condition_variable>
#include <deque>
#include <string>
#include <unordered_set>
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
  /// Optional intersection-only CFG refinement from the dataflow engine;
  /// applied to every policy this linker generates (static link and
  /// dlopen regenerations alike, so the refined policy stays consistent
  /// across loads). The caller keeps the object alive for the linker's
  /// lifetime. Null: plain type-matching CFG.
  const CFGRefinement *Refinement = nullptr;
};

/// What one coalesced dlopen request resolves to. Returned by value so a
/// loader thread never has to re-read Machine state (the module list may
/// be growing under other loaders by the time it looks).
struct DlopenResult {
  int64_t Handle = -1;        ///< machine module index, or negative
  uint32_t SiteIndexBase = 0; ///< the module's global branch-site base
  uint64_t CodeBase = 0;      ///< the module's mapped code base
};

/// Per-batch accounting for coalesced dynamic loads: one entry per
/// processed batch, whether it installed or failed.
struct DlopenBatchStats {
  uint32_t Requested = 0;   ///< dlopen requests coalesced into the batch
  uint32_t Loaded = 0;      ///< modules that mapped + resolved
  bool Installed = false;   ///< the single policy install succeeded
  bool Incremental = false; ///< that install took the delta path
  double MergeMicros = 0;   ///< one combined-CFG regeneration
  double InstallMicros = 0; ///< the single TxUpdate transaction
};

/// Per-batch accounting for coalesced unloads (dlclose), mirroring
/// DlopenBatchStats.
struct DlcloseBatchStats {
  uint32_t Requested = 0; ///< dlclose requests coalesced into the batch
  uint32_t Closed = 0;    ///< modules actually retired
  /// True when removing the batch changed surviving equivalence classes,
  /// forcing a full version-bumping reinstall on top of the retire
  /// transaction (class splits/renumbering; the common self-contained
  /// plugin case stays retire-only).
  bool PolicyReinstalled = false;
  double MergeMicros = 0;  ///< one tombstoned-CFG regeneration
  double RetireMicros = 0; ///< the single txUpdateRetire transaction
};

/// Drives loading, relocation, CFG generation, verification, and table
/// installation against one Machine.
class Linker {
public:
  Linker(Machine &M, LinkOptions Opts = LinkOptions());

  /// Statically links \p Objects (plus the synthesized bootstrap) into
  /// the machine. On failure returns false and sets \p Error.
  bool linkProgram(std::vector<MCFIObject> Objects, std::string &Error);

  /// Registers a library for later dynamic loading; the guest refers to
  /// it by the returned id in dlopen(id).
  int registerLibrary(MCFIObject Obj);

  /// The paper's three-step dynamic linking. Returns the module handle
  /// (machine module index), or a negative value on failure. Installed
  /// as the machine's DlopenHook by linkProgram. Concurrent callers are
  /// coalesced (see dlopenOne).
  int64_t dlopen(int64_t RegistryId);

  /// Coalescing dlopen: requests that arrive while another thread is
  /// mid-install are queued, and the installing thread (the combiner
  /// leader) drains the queue as ONE batch — one CFG regeneration, one
  /// version bump, one Tary→GOT→Bary update transaction — before waking
  /// the waiters with their per-request results.
  DlopenResult dlopenOne(int64_t RegistryId);

  /// Explicitly loads \p RegistryIds as one batch (one combined install),
  /// bypassing the combiner queue. Results are index-parallel to the
  /// input. Used by benchmarks/tests that need exact batch shapes.
  std::vector<DlopenResult> dlopenBatch(const std::vector<int64_t> &RegistryIds);

  /// Module unload — the inverse of the dlopen path. The module's table
  /// entries are zeroed by ONE retire transaction (no version bump;
  /// checks against it fail closed immediately), its setjmp sites leave
  /// the longjmp list, its GOT-published addresses are zeroed in the
  /// transaction's between-phases hook, and its code range + exclusive
  /// ECNs go to the machine's epoch reclaimer to wait out the grace
  /// period. Returns false for an invalid handle (unknown, static
  /// program module, or already closed). Installed as the machine's
  /// DlcloseHook by linkProgram; concurrent callers are coalesced like
  /// dlopenOne's.
  bool dlcloseOne(int64_t Handle);
  int64_t dlclose(int64_t Handle) { return dlcloseOne(Handle) ? 0 : -1; }

  /// Explicitly unloads \p Handles as one batch (one retire transaction,
  /// one tombstoned-CFG regeneration), bypassing the combiner queue.
  /// Results are index-parallel to the input.
  std::vector<bool> dlcloseBatch(const std::vector<int64_t> &Handles);

  /// The policy currently installed (valid after linkProgram).
  const CFGPolicy &policy() const { return Policy; }

  /// Per-install accounting for every update transaction this linker
  /// ran, in order (the metrics layer aggregates these).
  const std::vector<TxUpdateStats> &updateHistory() const {
    return UpdateHistory;
  }

  /// Per-batch accounting for coalesced dynamic loads, in install order.
  const std::vector<DlopenBatchStats> &batchHistory() const {
    return BatchHistory;
  }

  /// Per-batch accounting for coalesced unloads, in retire order.
  const std::vector<DlcloseBatchStats> &unloadHistory() const {
    return UnloadHistory;
  }

  /// The shadow of the installed policy (delta source; exposed for
  /// metrics and tests).
  const PolicyShadow &shadow() const { return Shadow; }

  const std::string &lastError() const { return LastError; }

private:
  /// One queued request in the dlopen combiner.
  struct PendingDlopen {
    int64_t Id = -1;
    DlopenResult Result;
    bool Done = false;
  };

  /// One queued request in the dlclose combiner.
  struct PendingDlclose {
    int64_t Handle = -1;
    bool Ok = false;
    bool Done = false;
  };

  bool loadAndRelocate(MCFIObject Obj, std::string &Error);
  bool resolveModule(int Index, std::string &Error);
  void patchBaryIndexes(const CFGPolicy &Policy);
  void updateGotEntries();
  bool installPolicy(CFGPolicy &&NewPolicy, uint32_t BatchModules = 1);
  void processBatch(std::vector<PendingDlopen *> &Batch);
  void processUnloadBatch(std::vector<PendingDlclose *> &Batch);
  /// Views of every mapped module, index-parallel to M.modules();
  /// retired modules appear as positionally-stable tombstones.
  std::vector<LoadedModuleView> moduleViews() const;
  /// Flattens \p P to table coordinates (the shape PolicyShadow holds).
  PolicyImage flattenPolicy(const CFGPolicy &P) const;
  MCFIObject makeBootstrap();

  Machine &M;
  LinkOptions Opts;
  CFGPolicy Policy;
  PolicyShadow Shadow;
  std::vector<TxUpdateStats> UpdateHistory;
  std::vector<DlopenBatchStats> BatchHistory;
  std::vector<DlcloseBatchStats> UnloadHistory;
  std::vector<MCFIObject> Registry;
  /// Serials of modules whose BaryIndex32 relocations are patched.
  /// Keyed by the never-reused module Serial, NOT the module index: the
  /// reclaimer's tail-trim lets indices be reused after an unload, and
  /// an index-keyed "already patched" bit would silently skip the new
  /// occupant (index-reuse ABA).
  std::unordered_set<uint64_t> BaryPatched;
  /// Modules mapped by linkProgram (bootstrap + program). They can never
  /// be dlclosed: the running program's own code and the policy's stable
  /// prefix live there.
  size_t StaticModules = 0;
  std::string LastError;
  std::mutex DlopenLock; ///< serializes dynamic link operations

  /// Combiner state: loaders enqueue under BatchLock; the leader drains
  /// the queue in rounds while holding DlopenLock for the install work.
  /// dlclose mirrors the structure with its own queue so unload batches
  /// coalesce the same way (close requests arriving mid-retire join the
  /// next round).
  std::mutex BatchLock;
  std::condition_variable BatchCv;
  std::deque<PendingDlopen *> BatchQueue;
  bool LeaderActive = false;
  std::condition_variable CloseCv;
  std::deque<PendingDlclose *> CloseQueue;
  bool CloseLeaderActive = false;
};

} // namespace mcfi

#endif // MCFI_LINKER_LINKER_H
