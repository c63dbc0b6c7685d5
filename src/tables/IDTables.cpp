//===- tables/IDTables.cpp - Bary/Tary tables and transactions ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every atomic access in the transaction paths goes through one of the
// four seam helpers below, which bracket it with the SchedPoint seam
// (schedYield before, schedObserve after) so the deterministic schedule
// checker can interleave logical threads at exactly these points. In
// production builds both calls inline to nothing; see tables/SchedPoint.h.
//
//===----------------------------------------------------------------------===//

#include "tables/IDTables.h"

#include "support/Assert.h"

#include <type_traits>

using namespace mcfi;

namespace {

/// The value type of a std::atomic or std::atomic_ref.
template <typename AtomicT>
using ValueOf = typename std::remove_reference_t<AtomicT>::value_type;

// The seam helpers. Each derives its SchedOp from the memory order, so a
// bracket cannot disagree with the access it brackets; an order the
// checker has no SchedOp for does not compile.

template <std::memory_order MO = std::memory_order_relaxed, typename AtomicT>
ValueOf<AtomicT> seamLoad(AtomicT &&A, SchedObject Obj, uint64_t Index = 0) {
  static_assert(MO == std::memory_order_relaxed ||
                MO == std::memory_order_acquire);
  constexpr SchedOp Op = MO == std::memory_order_acquire ? SchedOp::LoadAcquire
                                                         : SchedOp::LoadRelaxed;
  schedYield(Op, Obj, Index);
  ValueOf<AtomicT> V = A.load(MO);
  schedObserve(Op, Obj, Index, V);
  return V;
}

/// Every store of the transaction layer is relaxed: ordering comes from
/// the fences and the seqlock increments.
template <typename AtomicT>
void seamStore(AtomicT &&A, SchedObject Obj, uint64_t Index,
               ValueOf<AtomicT> V) {
  schedYield(SchedOp::StoreRelaxed, Obj, Index);
  A.store(V, std::memory_order_relaxed);
  schedObserve(SchedOp::StoreRelaxed, Obj, Index, V);
}

/// fetch_add(1); the seam observes the incremented value.
template <std::memory_order MO = std::memory_order_relaxed, typename T>
void seamIncrement(std::atomic<T> &A, SchedObject Obj) {
  static_assert(MO == std::memory_order_relaxed ||
                MO == std::memory_order_release);
  constexpr SchedOp Op = MO == std::memory_order_release ? SchedOp::RMWRelease
                                                         : SchedOp::RMWRelaxed;
  schedYield(Op, Obj, 0);
  T Old = A.fetch_add(1, MO);
  schedObserve(Op, Obj, 0, Old + 1);
}

template <std::memory_order MO> void seamFence() {
  static_assert(MO == std::memory_order_acquire ||
                MO == std::memory_order_seq_cst);
  schedYield(MO == std::memory_order_seq_cst ? SchedOp::FenceSeqCst
                                             : SchedOp::FenceAcquire,
             SchedObject::None, 0);
  std::atomic_thread_fence(MO);
}

/// The ID a table entry of class \p ECN holds at \p Version; a negative
/// ECN (not a target / no class) is the invalid ID 0.
uint32_t encodeOrZero(int64_t ECN, uint32_t Version) {
  if (ECN < 0)
    return 0;
  assert(ECN <= static_cast<int64_t>(MaxECN) && "ECN space exhausted");
  return encodeID(static_cast<uint32_t>(ECN), Version);
}

} // namespace

IDTables::IDTables(uint64_t CodeCapacity, uint32_t BaryCapacity)
    : TaryEntries((CodeCapacity + 3) / 4), BaryEntries(BaryCapacity) {
  assert(TaryEntries.size() <= UINT32_MAX &&
         "Tary entry counts must fit TxUpdateStats");
}

uint32_t IDTables::taryRead(uint64_t CodeOffset) const {
  uint64_t Index = CodeOffset >> 2;
  if (Index >= TaryEntries.size())
    return 0;
  uint32_t Lo = seamLoad(tary(Index), SchedObject::Tary, Index);
  unsigned Misalign = CodeOffset & 3;
  if (Misalign == 0)
    return Lo;
  // Misaligned read: synthesize the 4 bytes starting at the offset from
  // the two adjacent aligned entries. The reserved-bit pattern makes the
  // result invalid (its low byte is a non-low byte of a real ID, whose
  // LSB is 0), exactly as in the paper's byte-addressed table.
  uint32_t Hi = 0;
  if (Index + 1 < TaryEntries.size())
    Hi = seamLoad(tary(Index + 1), SchedObject::Tary, Index + 1);
  unsigned Shift = 8 * Misalign;
  return (Lo >> Shift) | (Hi << (32 - Shift));
}

uint32_t IDTables::baryRead(uint32_t Index) const {
  if (Index >= BaryEntries.size())
    return 0;
  return seamLoad(bary(Index), SchedObject::Bary, Index);
}

CheckResult IDTables::txCheck(uint32_t BaryIndex,
                              uint64_t TargetOffset) const {
  // Hot path mirrors Fig. 4's fast case exactly: one branch-ID load, one
  // target-ID load, one comparison. Everything else lives in the cold
  // slow path, as in the instrumented sequence.
  uint64_t Index = TargetOffset >> 2;
  if (__builtin_expect((TargetOffset & 3) == 0 && Index < TaryEntries.size() &&
                           BaryIndex < BaryEntries.size(),
                       1)) {
    uint32_t BranchID = seamLoad(bary(BaryIndex), SchedObject::Bary, BaryIndex);
    uint32_t TargetID = seamLoad<std::memory_order_acquire>(
        tary(Index), SchedObject::Tary, Index);
    if (__builtin_expect(BranchID == TargetID, 1))
      // A correctly patched module always loads a valid branch ID (the
      // loader embeds the right Bary indexes); an invalid equal pair
      // means the site was never installed, which fails closed.
      return isValidID(BranchID) ? CheckResult::Pass
                                 : CheckResult::ViolationInvalid;
  }
  return txCheckSlow(BaryIndex, TargetOffset);
}

CheckResult IDTables::txCheckSlow(uint32_t BaryIndex,
                                  uint64_t TargetOffset) const {
  for (;;) {
    // Seqlock read: if UpdateSeq is even and unchanged across the table
    // reads, no update transaction overlapped them, so a cross-version
    // pair is genuinely stale (e.g. the target outlived a shrinking
    // update) and must be reported as a violation rather than retried
    // forever.
    //
    // This LoadAcquire of UpdateSeq is the loop-top scheduling point:
    // the retry loop carries no local state across iterations, which the
    // schedule checker exploits to fingerprint spin states.
    uint64_t Seq =
        seamLoad<std::memory_order_acquire>(UpdateSeq, SchedObject::UpdateSeq);
    uint32_t BranchID = baryRead(BaryIndex);
    seamFence<std::memory_order_acquire>();
    uint32_t TargetID = taryRead(TargetOffset);
    if (BranchID == TargetID) {
      if (!isValidID(BranchID))
        return CheckResult::ViolationInvalid;
      return CheckResult::Pass;
    }
    // "Check:" label of Fig. 4: distinguish invalid target, version
    // race, and genuine ECN mismatch.
    if (!isValidID(TargetID))
      return CheckResult::ViolationInvalid;
    if (sameVersionHalf(BranchID, TargetID))
      return CheckResult::ViolationECN;
    seamFence<std::memory_order_acquire>();
    uint64_t CurSeq = seamLoad(UpdateSeq, SchedObject::UpdateSeq);
    if ((Seq & 1) == 0 && CurSeq == Seq)
      // Version mismatch with no update in flight: one side is stale.
      // An invalid *branch* ID means the site was never (re)installed;
      // otherwise the edge crosses versions and is not in any single
      // installed CFG.
      return isValidID(BranchID) ? CheckResult::ViolationECN
                                 : CheckResult::ViolationInvalid;
    seamIncrement(SlowRetries, SchedObject::SlowRetries);
    // An update transaction is in flight; retry.
  }
}

void IDTables::resetVersionEpoch() {
  uint64_t VU = seamLoad(VersionedUpdates, SchedObject::VersionedUpdateCount);
  seamStore(EpochBase, SchedObject::EpochBase, 0, VU);
}

template <typename PrologueFn, typename PhaseAFn, typename PhaseBFn>
TxUpdateStatus
IDTables::transact(bool Install, PrologueFn &&Prologue, PhaseAFn &&PhaseA,
                   PhaseBFn &&PhaseB,
                   const std::function<void()> &BetweenTablesHook,
                   TxUpdateStats *Stats) {
  // Update transactions are serialized by a global lock (they are rare);
  // check transactions proceed concurrently and are synchronized only
  // through the version numbers embedded in the IDs.
  std::lock_guard<std::mutex> Guard(UpdateLock);
  TxUpdateStats Local;
  if (!Prologue(Local))
    return TxUpdateStatus::VersionExhausted;

  // Mark the update in flight (odd seq) before the first table store.
  seamIncrement<std::memory_order_release>(UpdateSeq, SchedObject::UpdateSeq);

  // TEST-ONLY MUTANT: an install's Bary phase before its Tary phase, the
  // store order Fig. 3 forbids. Kept only in the instrumented build so
  // the schedule checker can demonstrate it detects the resulting torn
  // reads.
#if MCFI_SCHED_HOOKS
  bool Swap = Install && GSchedMutantReorderPhases;
#else
  bool Swap = false;
  (void)Install;
#endif
  auto Phase = [&](bool B) { B ? PhaseB(Local) : PhaseA(Local); };
  Phase(Swap);
  // Memory write barrier between the phases: every phase-A store
  // completes before any phase-B store (Fig. 3 line 5), the
  // linearization point of the update. GOT entry updates are inserted
  // between the two table updates and serialized by another barrier
  // (paper, PLT/GOT discussion).
  seamFence<std::memory_order_seq_cst>();
  if (BetweenTablesHook) {
    BetweenTablesHook();
    seamFence<std::memory_order_seq_cst>();
  }
  Phase(!Swap);
  seamFence<std::memory_order_seq_cst>();

  // Update complete (seq back to even).
  seamIncrement<std::memory_order_release>(UpdateSeq, SchedObject::UpdateSeq);

  if (Stats) {
    Local.Micros = Stats->Micros;             // caller-owned timing, keep it
    Local.BatchModules = Stats->BatchModules; // caller-owned, likewise
    *Stats = Local;
  }
  return TxUpdateStatus::Ok;
}

TxUpdateStatus
IDTables::txUpdate(uint64_t TaryLimitBytes,
                   const std::function<int64_t(uint64_t)> &GetTaryECN,
                   uint32_t BaryCount,
                   const std::function<int64_t(uint32_t)> &GetBaryECN,
                   const std::function<void()> &BetweenTablesHook,
                   TxUpdateStats *Stats) {
  assert(TaryLimitBytes <= taryCapacityBytes() && "code past table capacity");
  assert(BaryCount <= BaryEntries.size() && "too many branch sites");
  uint64_t Limit = (TaryLimitBytes + 3) / 4;

  auto BumpVersion = [&](TxUpdateStats &Local) {
    // Sec. 5.2's ABA guard: at quiescence only the current version is
    // live, so bumps 1..MaxVersion within an epoch are fresh, but bump
    // MaxVersion+1 lands back on the epoch's starting version, which a
    // stalled check transaction may still hold. Refuse instead of
    // silently wrapping; the runtime must quiesce (every thread observed
    // at a syscall boundary) and resetVersionEpoch() first.
    uint64_t VU = seamLoad(VersionedUpdates, SchedObject::VersionedUpdateCount);
    uint64_t EB = seamLoad(EpochBase, SchedObject::EpochBase);
    if (VU - EB >= MaxVersion)
      return false;
    Local.Version =
        (seamLoad(Version, SchedObject::Version) + 1) & MaxVersion;
    seamStore(Version, SchedObject::Version, 0, Local.Version);
    seamIncrement(Updates, SchedObject::UpdateCount);
    seamIncrement(VersionedUpdates, SchedObject::VersionedUpdateCount);
    return true;
  };

  // Phase A: install every Tary entry below the limit with relaxed
  // (movnti-style, weakly ordered) stores. Each 4-byte store is
  // individually atomic, which is the only requirement (Fig. 3's
  // copyTaryTable). If the code region shrank, zero the tail of the
  // previous install in the same phase: stale old-version target IDs
  // there would otherwise read as "update in flight" forever.
  auto InstallTary = [&](TxUpdateStats &Local) {
    for (uint64_t I = 0; I != Limit; ++I)
      seamStore(tary(I), SchedObject::Tary, I,
                encodeOrZero(GetTaryECN(I * 4), Local.Version));
    Local.TaryWritten = static_cast<uint32_t>(Limit);
    uint64_t Prev = seamLoad(InstalledTaryWords, SchedObject::InstalledTary);
    for (uint64_t I = Limit; I < Prev; ++I, ++Local.TaryCleared)
      seamStore(tary(I), SchedObject::Tary, I, 0);
    seamStore(InstalledTaryWords, SchedObject::InstalledTary, 0, Limit);
  };

  // Phase B: update the Bary table, zeroing any tail left over from a
  // larger previous install.
  auto InstallBary = [&](TxUpdateStats &Local) {
    for (uint32_t I = 0; I != BaryCount; ++I)
      seamStore(bary(I), SchedObject::Bary, I,
                encodeOrZero(GetBaryECN(I), Local.Version));
    Local.BaryWritten = BaryCount;
    uint32_t Prev = seamLoad(InstalledBaryCount, SchedObject::InstalledBary);
    for (uint32_t I = BaryCount; I < Prev; ++I, ++Local.BaryCleared)
      seamStore(bary(I), SchedObject::Bary, I, 0);
    seamStore(InstalledBaryCount, SchedObject::InstalledBary, 0, BaryCount);
  };

  return transact(/*Install=*/true, BumpVersion, InstallTary, InstallBary,
                  BetweenTablesHook, Stats);
}

TxUpdateStatus
IDTables::txUpdateRetire(const std::vector<TaryRange> &TaryRetire,
                         const std::vector<uint32_t> &BarySites,
                         const std::function<void()> &BetweenTablesHook,
                         TxUpdateStats *Stats) {
  auto KeepVersion = [&](TxUpdateStats &Local) {
    seamIncrement(Updates, SchedObject::UpdateCount);
    Local.Incremental = true; // no version bump, O(delta) stores
    Local.Version = seamLoad(Version, SchedObject::Version);
    return true;
  };

  // Phase A: zero the module's Bary sites. Sites first — the reverse of
  // the install order — so no still-installed site can observe its
  // targets vanishing: by the time a target is cleared, every site that
  // could legally reach it under the retired module's classes is gone.
  auto RetireBary = [&](TxUpdateStats &Local) {
    for (uint32_t I : BarySites) {
      assert(I < BaryEntries.size() && "retired site past capacity");
      seamStore(bary(I), SchedObject::Bary, I, 0);
      ++Local.BaryCleared;
    }
  };

  // Phase B: zero the module's Tary ranges. The installed extents are
  // left untouched — the retired ranges become interior holes, and a
  // later shrinking full update still zeroes down from the old extents.
  auto RetireTary = [&](TxUpdateStats &Local) {
    for (const TaryRange &R : TaryRetire) {
      uint64_t End = (R.EndBytes + 3) / 4;
      assert(End * 4 <= taryCapacityBytes() && "retired range past capacity");
      for (uint64_t I = R.BeginBytes / 4; I < End; ++I, ++Local.TaryCleared)
        seamStore(tary(I), SchedObject::Tary, I, 0);
    }
  };

  return transact(/*Install=*/false, KeepVersion, RetireBary, RetireTary,
                  BetweenTablesHook, Stats);
}

TxUpdateStatus IDTables::txUpdateIncremental(
    uint64_t TaryLimitBytes, const std::vector<TaryRange> &TaryDirty,
    const std::function<int64_t(uint64_t)> &GetTaryECN, uint32_t BaryCount,
    const std::vector<uint32_t> &BaryDirty,
    const std::function<int64_t(uint32_t)> &GetBaryECN,
    const std::function<void()> &BetweenTablesHook, TxUpdateStats *Stats) {
  assert(TaryLimitBytes <= taryCapacityBytes() && "code past table capacity");
  assert(BaryCount <= BaryEntries.size() && "too many branch sites");
  uint64_t Limit = (TaryLimitBytes + 3) / 4;
  uint64_t PrevTaryWords = 0;
  uint32_t PrevBaryCount = 0;

  auto KeepVersion = [&](TxUpdateStats &Local) {
    // Grow-only: a delta install may never shrink either table — shrinks
    // retire entries and must go through the full, version-bumping path.
    PrevTaryWords = seamLoad(InstalledTaryWords, SchedObject::InstalledTary);
    PrevBaryCount = seamLoad(InstalledBaryCount, SchedObject::InstalledBary);
    assert(Limit >= PrevTaryWords &&
           "incremental update may not shrink the Tary table");
    assert(BaryCount >= PrevBaryCount &&
           "incremental update may not shrink the Bary table");
    // No version bump: every new entry is stamped with the version
    // already installed, so each individual atomic store is its own
    // linearization point — a reader sees the edge absent or present,
    // never a torn cross-version pair. This is what makes the O(delta)
    // cost safe.
    Local.Incremental = true;
    Local.Version = seamLoad(Version, SchedObject::Version);
    seamIncrement(Updates, SchedObject::UpdateCount);
    return true;
  };

  // Phase A: (re-)encode only the dirty Tary ranges. Re-encoding an
  // unchanged entry at the same version is idempotent, so ranges may be
  // coalesced generously by the caller.
  auto InstallTaryDelta = [&](TxUpdateStats &Local) {
    for (const TaryRange &R : TaryDirty) {
      uint64_t End = (R.EndBytes + 3) / 4;
      assert(End <= Limit && "dirty range past the new Tary limit");
      for (uint64_t I = R.BeginBytes / 4; I < End; ++I, ++Local.TaryWritten) {
        uint32_t ID = encodeOrZero(GetTaryECN(I * 4), Local.Version);
        // Eligibility cross-check: an already-installed entry may only
        // be rewritten with the value it already holds.
        uint32_t Old = seamLoad(tary(I), SchedObject::Tary, I);
        assert((I >= PrevTaryWords || Old == 0 || Old == ID) &&
               "incremental update would change an installed Tary entry");
        (void)Old;
        seamStore(tary(I), SchedObject::Tary, I, ID);
      }
    }
    seamStore(InstalledTaryWords, SchedObject::InstalledTary, 0, Limit);
  };

  // Phase B: install the new Bary sites. Only indexes >= the previous
  // count, or below it with no ID (a retired, reclaimed site's zeroed
  // entry), are eligible — an existing site's window between the GOT
  // hook and its bary store would otherwise spuriously halt guests.
  auto InstallBaryDelta = [&](TxUpdateStats &Local) {
    for (uint32_t I : BaryDirty) {
      assert(I < BaryCount && "dirty site past the new Bary count");
      // A debug cross-check, deliberately off the seam: it is no step
      // of the protocol, so the checker does not schedule around it.
      assert((I >= PrevBaryCount ||
              bary(I).load(std::memory_order_relaxed) == 0) &&
             "incremental update would rewrite an installed Bary site");
      seamStore(bary(I), SchedObject::Bary, I,
                encodeOrZero(GetBaryECN(I), Local.Version));
      ++Local.BaryWritten;
    }
    seamStore(InstalledBaryCount, SchedObject::InstalledBary, 0, BaryCount);
  };

  return transact(/*Install=*/true, KeepVersion, InstallTaryDelta,
                  InstallBaryDelta, BetweenTablesHook, Stats);
}
