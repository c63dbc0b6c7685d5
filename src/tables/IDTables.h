//===- tables/IDTables.h - Bary/Tary tables and transactions ----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime representation of the CFG: the Bary table (branch IDs,
/// indexed by a per-site constant embedded in the instrumented code) and
/// the Tary table (target IDs, indexed by code address). Together with
/// the check/update transactions of paper Sec. 5, these form a
/// linearizable concurrent structure: every TxCheck observes either the
/// old CFG or the new CFG, never a mix.
///
/// TxCheck here is the host-level reference implementation used by the
/// micro-benchmarks and the linearizability tests; the instrumented guest
/// code performs the same reads through the VM's TableRead/BaryRead
/// instructions, which delegate to this class.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_TABLES_IDTABLES_H
#define MCFI_TABLES_IDTABLES_H

#include "support/Region.h"
#include "tables/ID.h"
#include "tables/SchedPoint.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace mcfi {

/// Outcome of a check transaction.
enum class CheckResult : uint8_t {
  Pass,             ///< branch ID == target ID: transfer allowed
  ViolationInvalid, ///< target ID invalid (not an IBT / misaligned)
  ViolationECN,     ///< valid target, same version, different ECN
};

/// Outcome of an update transaction.
enum class TxUpdateStatus : uint8_t {
  Ok,
  /// The 14-bit version space has been consumed since the last quiescence
  /// point (Sec. 5.2's ABA hazard): bumping the version again would
  /// silently re-enter version numbers a stalled check transaction may
  /// still hold. The caller must arrange a quiescence point (every thread
  /// observed at a syscall boundary) and resetVersionEpoch() first; the
  /// transaction had no effect.
  VersionExhausted,
};

/// A half-open byte range [BeginBytes, EndBytes) of the conceptual
/// byte-indexed Tary table; bounds are rounded to 4-byte entries.
struct TaryRange {
  uint64_t BeginBytes = 0;
  uint64_t EndBytes = 0;
};

/// Per-transaction accounting, the raw material of the update-latency /
/// entries-touched metrics surface (src/metrics/UpdateMetrics.h).
///
/// The linker keeps one per transaction for its whole life, so the
/// counts are 32-bit: a table's entry count fits (Bary's capacity is a
/// uint32_t, and Tary would need 16 GiB of code to overflow one).
struct TxUpdateStats {
  uint32_t TaryWritten = 0; ///< Tary entries stored (new or re-encoded)
  uint32_t BaryWritten = 0; ///< Bary entries stored
  uint32_t TaryCleared = 0; ///< Tary entries zeroed (shrunk tail or retired)
  uint32_t BaryCleared = 0; ///< Bary entries zeroed (shrunk tail or retired)
  bool Incremental = false; ///< no version bump: delta install or retire
  /// The GOT pass the linker runs between the phases, filled by the
  /// caller: the modules it walked (the live ones, saturating at 2^16 -
  /// 1) and the GOT slots it wrote. Both sit in what was padding, so a
  /// history entry stays 40 bytes: the linker keeps one per transaction.
  uint16_t GotModules = 0;
  uint32_t Version = 0;     ///< version the written IDs carry
  double Micros = 0;        ///< wall-clock latency, filled by the caller
  /// Modules this transaction loaded or retired: 1 for a static link or
  /// a single dlopen or dlclose, the member count of a multi-module
  /// Linker::dlopenBatch or dlcloseBatch.
  uint32_t BatchModules = 1;
  uint32_t GotSlots = 0; ///< see GotModules

  uint64_t entriesTouched() const {
    return uint64_t{TaryWritten} + BaryWritten + TaryCleared + BaryCleared;
  }
};

/// The Bary and Tary ID tables plus the global version and update lock.
///
/// The Tary table conceptually maps every code address to an ID; thanks
/// to 4-byte target alignment it stores one 4-byte ID per 4-byte-aligned
/// code address, so it reserves as many bytes as the code region (paper
/// Sec. 5.1). Both tables are demand-zero reservations: a word nobody
/// has written reads as the invalid ID 0, and the resident size tracks
/// the code loaded and the sites installed, not the capacity.
/// Misaligned reads are synthesized from the two adjacent entries, which
/// reproduces the paper's guarantee that such reads yield invalid IDs
/// while staying within C++'s atomic-access rules.
class IDTables {
public:
  /// \p CodeCapacity is the code-region capacity in bytes (Tary gets one
  /// entry per 4 bytes); \p BaryCapacity is the maximum number of
  /// indirect-branch sites.
  IDTables(uint64_t CodeCapacity, uint32_t BaryCapacity);

  /// TxCheck's Tary read: returns the 4-byte word at byte offset
  /// \p CodeOffset in the conceptual byte-indexed table. Offsets beyond
  /// the capacity return 0 (invalid).
  uint32_t taryRead(uint64_t CodeOffset) const;

  /// TxCheck's Bary read. Out-of-range indexes return 0 (invalid); a
  /// correctly patched module never produces one.
  uint32_t baryRead(uint32_t Index) const;

  /// The full check transaction of Fig. 4 (reference implementation).
  /// Retries internally while a concurrent update is in flight. The fast
  /// path is the paper's two-loads-one-compare sequence; mismatches take
  /// the out-of-line slow path.
  CheckResult txCheck(uint32_t BaryIndex, uint64_t TargetOffset) const;

  /// The update transaction of Fig. 3. Under the global update lock:
  /// bumps the version; rebuilds and installs the Tary table (entries
  /// for 4-aligned offsets below \p TaryLimitBytes, ECN from
  /// \p GetTaryECN, negative = not a target); memory barrier; runs
  /// \p BetweenTablesHook (the dynamic linker's GOT updates go here);
  /// barrier; installs Bary entries [0, BaryCount) from \p GetBaryECN.
  /// Entries past the new limits but within the previously installed
  /// extents are zeroed in the same phases, so a shrinking update leaves
  /// no stale old-version IDs behind.
  ///
  /// Fails with VersionExhausted (and no side effects) when the 14-bit
  /// version space has been consumed since the last resetVersionEpoch().
  TxUpdateStatus
  txUpdate(uint64_t TaryLimitBytes,
           const std::function<int64_t(uint64_t)> &GetTaryECN,
           uint32_t BaryCount,
           const std::function<int64_t(uint32_t)> &GetBaryECN,
           const std::function<void()> &BetweenTablesHook = nullptr,
           TxUpdateStats *Stats = nullptr);

  /// Incremental (delta) update transaction: installs a policy that is a
  /// pure *extension* of the currently installed one — same ECN for every
  /// already-installed Tary entry and Bary site, new entries only in
  /// \p TaryDirty ranges and at \p BaryDirty site indexes (all >= the
  /// previously installed Bary count).
  ///
  /// Because the installed entries are untouched and every new entry is
  /// stamped with the *current* version (no bump), each entry-write
  /// linearizes independently: a TxCheck sees the edge either absent
  /// (old CFG) or present (new CFG) and can never observe a torn
  /// cross-version mix, so the Fig. 3 contract holds without paying the
  /// O(code-region) rebuild. The same Tary→barrier→hook→barrier→Bary
  /// phase ordering is kept so new Bary sites only become reachable
  /// after their targets exist.
  ///
  /// The caller (the linker's computeInstallDelta) is responsible for
  /// eligibility: any change to an existing entry's ECN, any shrink, or
  /// any rewrite of an existing Bary site must go through the full
  /// txUpdate instead. Debug builds assert these preconditions.
  TxUpdateStatus txUpdateIncremental(
      uint64_t TaryLimitBytes, const std::vector<TaryRange> &TaryDirty,
      const std::function<int64_t(uint64_t)> &GetTaryECN, uint32_t BaryCount,
      const std::vector<uint32_t> &BaryDirty,
      const std::function<int64_t(uint32_t)> &GetBaryECN,
      const std::function<void()> &BetweenTablesHook = nullptr,
      TxUpdateStats *Stats = nullptr);

  /// Retirement (shrink) transaction: the inverse of the incremental
  /// install, used by dlclose. Zeroes the given Bary sites, then — after
  /// the phase barrier and \p BetweenTablesHook (the linker's GOT
  /// invalidation goes here) — zeroes the Tary entries in \p TaryRetire,
  /// the reverse of the install order: a module's branch sites die before
  /// its targets vanish, so no surviving site ever reads a half-retired
  /// module as anything but absent.
  ///
  /// No version bump: each zeroing store linearizes independently, and a
  /// concurrent TxCheck sees the retired edge either present (old CFG) or
  /// absent — ViolationInvalid, failing closed (CaughtByCheck at the VM
  /// level). The retired table *ranges* stay unusable until the epoch
  /// reclaimer's grace period elapses (tables/Reclaim.h); this transaction
  /// only makes the policy forget the module.
  TxUpdateStatus
  txUpdateRetire(const std::vector<TaryRange> &TaryRetire,
                 const std::vector<uint32_t> &BarySites,
                 const std::function<void()> &BetweenTablesHook = nullptr,
                 TxUpdateStats *Stats = nullptr);

  /// Current CFG version (only advanced by txUpdate).
  uint32_t currentVersion() const {
    return Version.load(std::memory_order_relaxed);
  }

  /// Number of update transactions executed, full and incremental alike.
  uint64_t updateCount() const {
    return Updates.load(std::memory_order_relaxed);
  }

  /// Number of *version-bumping* (full) update transactions executed —
  /// the ABA counter of Sec. 5.2. Incremental updates reuse the current
  /// version and so do not consume version space.
  uint64_t versionedUpdateCount() const {
    return VersionedUpdates.load(std::memory_order_relaxed);
  }

  /// Times txCheckSlow re-read the table pair because an update was in
  /// flight. Bounded at quiescence: with no update running, the slow
  /// path resolves in one pass.
  uint64_t slowRetryCount() const {
    return SlowRetries.load(std::memory_order_relaxed);
  }

  /// True while an update transaction is between its first and last
  /// table store (the seqlock generation is odd). The acquire load pairs
  /// with the release increments in the update paths, so harnesses that
  /// sample the in-flight window (UpdateMetrics, schedcheck, TSan runs)
  /// observe it with defined ordering instead of racing a plain load.
  bool updateInFlight() const {
    return (UpdateSeq.load(std::memory_order_acquire) & 1) != 0;
  }

  /// Extents covered by the most recent *install* (full or incremental):
  /// what a shrinking update must zero down from. txUpdateRetire leaves
  /// them alone; the ranges it zeroes become interior holes.
  uint64_t installedTaryLimitBytes() const {
    return InstalledTaryWords.load(std::memory_order_relaxed) * 4;
  }
  uint32_t installedBaryCount() const {
    return InstalledBaryCount.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------------===//
  // ABA mitigation (Sec. 5.2): "MCFI could maintain a counter of executed
  // update transactions and make sure it does not hit 2^14. After
  // completion of an update transaction, if every thread is observed to
  // finish using old-version IDs (e.g., when each thread invokes a
  // system call), the counter is reset to zero."
  //===--------------------------------------------------------------------===//

  /// Version-bumping updates executed since the last quiescence point.
  uint64_t updatesSinceEpoch() const {
    return VersionedUpdates.load(std::memory_order_relaxed) -
           EpochBase.load(std::memory_order_relaxed);
  }

  /// True when the version space is close to wrapping within the current
  /// epoch; the runtime should arrange a quiescence point (all threads
  /// at a syscall boundary) and call resetVersionEpoch().
  bool versionSpaceLow() const {
    return updatesSinceEpoch() >= (MaxVersion + 1) - EpochMargin;
  }

  /// Declares a quiescence point: every thread has been observed outside
  /// any in-flight check transaction, so old-version IDs can no longer
  /// be compared and the ABA counter restarts.
  void resetVersionEpoch();

  uint64_t taryCapacityBytes() const { return TaryEntries.size() * 4; }
  uint32_t baryCapacity() const {
    return static_cast<uint32_t>(BaryEntries.size());
  }

#if MCFI_SCHED_HOOKS
  //===--------------------------------------------------------------------===//
  // Test-only surface for the deterministic schedule checker. These
  // bypass the SchedPoint seam (the harness must not re-enter its own
  // scheduler while fingerprinting state between decisions) and exist
  // only in the instrumented mcfi_tables_sched build.
  //===--------------------------------------------------------------------===//

  uint32_t peekTaryWord(uint64_t WordIndex) const {
    return WordIndex < TaryEntries.size()
               ? tary(WordIndex).load(std::memory_order_relaxed)
               : 0;
  }
  uint32_t peekBaryEntry(uint32_t Index) const {
    return Index < BaryEntries.size()
               ? bary(Index).load(std::memory_order_relaxed)
               : 0;
  }
  uint64_t peekUpdateSeq() const {
    return UpdateSeq.load(std::memory_order_relaxed);
  }
  uint64_t peekEpochBase() const {
    return EpochBase.load(std::memory_order_relaxed);
  }

  /// Jumps the ABA counters as if \p N version-bumping updates had run
  /// since construction, so the version-wrap scenario reaches the
  /// MaxVersion boundary without replaying 2^14 installs per schedule.
  void testForceVersionedUpdates(uint64_t N) {
    VersionedUpdates.store(N, std::memory_order_relaxed);
    Version.store(static_cast<uint32_t>(N) & MaxVersion,
                  std::memory_order_relaxed);
  }
#endif // MCFI_SCHED_HOOKS

private:
  CheckResult txCheckSlow(uint32_t BaryIndex, uint64_t TargetOffset) const;

  /// Fig. 3's skeleton, shared by the three update transactions. Under
  /// UpdateLock: \p Prologue sets up the version in the stats it is
  /// handed (returning false refuses with VersionExhausted, before any
  /// side effect); the seqlock opens; \p PhaseA; barrier,
  /// \p BetweenTablesHook, barrier; \p PhaseB; closing fence; the
  /// seqlock closes; the stats are copied out, keeping the caller-owned
  /// Micros and BatchModules. In the instrumented build the test-only
  /// reorder mutant swaps the phases of \p Install transactions.
  template <typename PrologueFn, typename PhaseAFn, typename PhaseBFn>
  TxUpdateStatus transact(bool Install, PrologueFn &&Prologue,
                          PhaseAFn &&PhaseA, PhaseBFn &&PhaseB,
                          const std::function<void()> &BetweenTablesHook,
                          TxUpdateStats *Stats);

  /// Every table word is accessed through std::atomic_ref, the idiom
  /// Machine::load/store use for the guest data region.
  std::atomic_ref<uint32_t> tary(uint64_t Index) const {
    return std::atomic_ref<uint32_t>(TaryEntries[Index]);
  }
  std::atomic_ref<uint32_t> bary(uint32_t Index) const {
    return std::atomic_ref<uint32_t>(BaryEntries[Index]);
  }

  /// Demand-zero reservations (support/Region.h): a never-written word
  /// reads 0, the invalid ID, so construction stores nothing.
  Region<uint32_t> TaryEntries;
  Region<uint32_t> BaryEntries;
  static constexpr uint64_t EpochMargin = 64;

  std::atomic<uint32_t> Version{0};
  std::atomic<uint64_t> Updates{0};
  std::atomic<uint64_t> VersionedUpdates{0};
  std::atomic<uint64_t> EpochBase{0};
  /// Seqlock-style generation: odd while an update transaction is
  /// between its first and last table store. txCheckSlow uses it to tell
  /// a genuine cross-version violation (stable seq, even) from an
  /// in-flight update (must retry), bounding the retry loop.
  std::atomic<uint64_t> UpdateSeq{0};
  mutable std::atomic<uint64_t> SlowRetries{0};
  /// Extents the last transaction installed, in Tary words / Bary
  /// entries; the next shrinking update zeroes down from these.
  std::atomic<uint64_t> InstalledTaryWords{0};
  std::atomic<uint32_t> InstalledBaryCount{0};
  std::mutex UpdateLock;
};

} // namespace mcfi

#endif // MCFI_TABLES_IDTABLES_H
