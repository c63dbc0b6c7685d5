//===- tables/Reclaim.h - Epoch-based table/range reclamation ---*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reclamation half of module unload. dlclose's retire transaction
/// (IDTables::txUpdateRetire) makes the policy forget a module
/// immediately — its table entries are zeroed, so every check against it
/// fails closed — but the retired *resources* (the code range, the table
/// ranges backing it, the module's exclusive ECNs) must not be reused
/// while a guest thread could still be mid-transaction holding pre-retire
/// state. This is the classic RCU shape: readers (check transactions,
/// code fetch) never block; writers defer reuse past a grace period.
///
/// Grace is anchored on the runtime's existing quiescence protocol: the
/// Machine advances a generation counter each time every running guest
/// thread has been observed at a syscall boundary. A region retired while
/// generation R was forming is safe to reclaim once generation R+1 has
/// *completed* (i.e. the current generation is >= R+2): every thread then
/// demonstrably crossed a syscall boundary — outside any check
/// transaction and off any retired code — strictly after the retire.
/// With zero running guest threads there are no readers at all and the
/// caller may drain immediately (collectAll).
///
/// Condemned ECNs close the dlclose/dlopen ABA: an equivalence-class
/// number exclusive to the unloaded module stays condemned until its
/// region matures. If a new module's install would *incrementally*
/// introduce a condemned ECN (the CFG re-merge handing a fresh class the
/// retired module's old number), the linker must force a full,
/// version-bumping rebuild instead — the bump makes any stale pre-unload
/// ID snapshot fail the version-half comparison.
///
/// One known limitation, shared with every quiescence-based scheme: a
/// guest thread that spins forever without a syscall pins the grace
/// period open (regions stay condemned, never freed). See
/// docs/INTERNALS.md §16.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_TABLES_RECLAIM_H
#define MCFI_TABLES_RECLAIM_H

#include "tables/SchedPoint.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace mcfi {

/// One module's ranges retired by dlclose, waiting out their grace
/// period: its code range (and the Tary range shadowing it) plus its
/// data range. Addresses are absolute guest addresses.
struct RetiredRegion {
  uint64_t CodeBase = 0;
  uint64_t SizeBytes = 0;
  uint64_t DataBase = 0;
  uint64_t DataSize = 0;
  /// Monotonic serial of the mapped module (never reused, unlike the
  /// module index or the code range).
  uint64_t Serial = 0;
  /// ECNs exclusive to the retired module: condemned until maturity.
  std::vector<uint32_t> ECNs;
  /// Quiescence generation current when the retire ran.
  uint64_t RetireGen = 0;
};

/// A reusable hole in the code region (and, by construction, in the
/// byte-indexed Tary table that shadows it) or in the data region.
struct FreeRange {
  uint64_t Base = 0;
  uint64_t SizeBytes = 0;
};

/// Free ranges sorted by base and coalesced on insert, allocated first
/// fit. Not thread-safe; EpochReclaimer keeps one per region under its
/// lock.
class FreeList {
public:
  void add(uint64_t Base, uint64_t SizeBytes);
  /// Carves \p SizeBytes at \p Align (a power of two) out of the first
  /// hole that fits; returns 0 when none does.
  uint64_t alloc(uint64_t SizeBytes, uint64_t Align);
  /// Removes the range ending exactly at \p Top, if any.
  bool takeEndingAt(uint64_t Top, FreeRange &Out);
  const std::vector<FreeRange> &ranges() const { return Ranges; }

private:
  std::vector<FreeRange> Ranges;
};

/// Reclamation counters, surfaced in the update-metrics JSON.
struct ReclaimStats {
  uint64_t Retired = 0;        ///< regions handed to the reclaimer
  uint64_t Reclaimed = 0;      ///< regions matured past their grace period
  uint64_t BytesReclaimed = 0; ///< code bytes across matured regions
  uint64_t CondemnedECNs = 0;  ///< ECNs currently condemned
  uint64_t ReleasedECNs = 0;   ///< ECNs released after grace, lifetime
  uint64_t PendingRegions = 0; ///< regions still inside their grace period
  uint64_t FreeRanges = 0;     ///< code holes currently on the free list
  uint64_t FreeBytes = 0;      ///< bytes across those holes
  uint64_t Reused = 0;         ///< code allocations served from the list
};

/// Epoch-based reclaimer for retired module ranges. Thread-safe; owned
/// by the Machine, advanced at its syscall-boundary quiescence hook.
///
/// Range reuse is epoch-gated *by construction*: a range only reaches
/// the free list via the caller's addFreeRange on a region returned by
/// collect()/collectAll() — i.e. after the grace rule (or
/// reader-freedom) holds AND the caller has zeroed the bytes.
class EpochReclaimer {
public:
  /// Hands a retired region to the reclaimer; its ECNs become condemned.
  void retire(RetiredRegion R);

  /// Returns the regions whose grace period has elapsed under the R+2
  /// rule (retired at generation R, now >= R+2), releasing their
  /// condemned ECNs. The caller performs the runtime-side reclamation
  /// (code zeroing, sealed-prefix recomputation, trace eviction) with
  /// the returned list, then publishes each range for reuse with
  /// addFreeRange — ranges do not reach the free list until the caller
  /// has zeroed them.
  std::vector<RetiredRegion> collect(uint64_t CurrentGen);

  /// Matures every pending region regardless of generation. Only legal
  /// when no reader can exist (zero running guest threads).
  std::vector<RetiredRegion> collectAll();

  /// True while any region is inside its grace period. The VM uses this
  /// to keep taking the quiescence path at syscall boundaries.
  bool pendingReclaim() const {
    schedYield(SchedOp::LoadAcquire, SchedObject::Reclaim, 0);
    uint64_t N = PendingCount.load(std::memory_order_acquire);
    schedObserve(SchedOp::LoadAcquire, SchedObject::Reclaim, 0, N);
    return N != 0;
  }

  /// True while \p ECN belongs to a not-yet-matured retired module. An
  /// incremental install introducing such an ECN must be forced onto the
  /// full, version-bumping path.
  bool isCondemned(uint32_t ECN) const;
  bool anyCondemned(const std::vector<uint32_t> &ECNs) const;

  /// First-fit allocation from the matured code free list; returns 0
  /// when no hole fits. \p Align must be a power of two.
  uint64_t allocFromFree(uint64_t SizeBytes, uint64_t Align);

  /// Returns a code range to the free list directly (already past grace
  /// and zeroed — used by applyReclaim to publish matured regions after
  /// the W^X memset, and by tests).
  void addFreeRange(uint64_t Base, uint64_t SizeBytes);

  /// The data-region counterparts: applyReclaim publishes a matured
  /// module's zeroed globals, and mapModule takes a module's data from
  /// here (8-aligned, first fit) before it bumps the heap. A reused
  /// range reads 0, as a fresh module's BSS must.
  uint64_t allocDataFromFree(uint64_t SizeBytes);
  void addFreeDataRange(uint64_t Base, uint64_t SizeBytes);

  /// Removes and returns the free range ending exactly at \p Top, if
  /// any — the tail-trim cascade peels ranges off the top of the code
  /// region so a fully unloaded machine returns to its initial
  /// footprint.
  bool takeFreeRangeEndingAt(uint64_t Top, FreeRange &Out);

  std::vector<FreeRange> freeRanges() const;
  ReclaimStats stats() const;

private:
  void bumpPending(int64_t Delta);

  mutable std::mutex Lock;
  std::vector<RetiredRegion> Pending;
  std::map<uint32_t, uint32_t> Condemned; ///< ECN -> condemn count
  FreeList CodeFree;
  FreeList DataFree;
  ReclaimStats Counters;
  /// Lock-free mirror of Pending.size() so the VM's syscall gate can
  /// poll without taking the lock; bracketed by the SchedPoint seam (the
  /// reclaim path's scheduling point).
  std::atomic<uint64_t> PendingCount{0};
};

} // namespace mcfi

#endif // MCFI_TABLES_RECLAIM_H
