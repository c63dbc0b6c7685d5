//===- tables/IDTables.cpp - Bary/Tary tables and transactions ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every atomic access in the transaction paths is bracketed by the
// SchedPoint seam (schedYield before, schedObserve after) so the
// deterministic schedule checker can interleave logical threads at
// exactly these points. In production builds both calls inline to
// nothing; see tables/SchedPoint.h.
//
//===----------------------------------------------------------------------===//

#include "tables/IDTables.h"

#include "support/Assert.h"

using namespace mcfi;

IDTables::IDTables(uint64_t CodeCapacity, uint32_t BaryCapacity)
    : TaryEntries((CodeCapacity + 3) / 4), BaryEntries(BaryCapacity) {}

uint32_t IDTables::taryRead(uint64_t CodeOffset) const {
  uint64_t Index = CodeOffset >> 2;
  if (Index >= TaryEntries.size())
    return 0;
  schedYield(SchedOp::LoadRelaxed, SchedObject::Tary, Index);
  uint32_t Lo = tary(Index).load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::Tary, Index, Lo);
  unsigned Misalign = CodeOffset & 3;
  if (Misalign == 0)
    return Lo;
  // Misaligned read: synthesize the 4 bytes starting at the offset from
  // the two adjacent aligned entries. The reserved-bit pattern makes the
  // result invalid (its low byte is a non-low byte of a real ID, whose
  // LSB is 0), exactly as in the paper's byte-addressed table.
  uint32_t Hi = 0;
  if (Index + 1 < TaryEntries.size()) {
    schedYield(SchedOp::LoadRelaxed, SchedObject::Tary, Index + 1);
    Hi = tary(Index + 1).load(std::memory_order_relaxed);
    schedObserve(SchedOp::LoadRelaxed, SchedObject::Tary, Index + 1, Hi);
  }
  unsigned Shift = 8 * Misalign;
  return (Lo >> Shift) | (Hi << (32 - Shift));
}

uint32_t IDTables::baryRead(uint32_t Index) const {
  if (Index >= BaryEntries.size())
    return 0;
  schedYield(SchedOp::LoadRelaxed, SchedObject::Bary, Index);
  uint32_t ID = bary(Index).load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::Bary, Index, ID);
  return ID;
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
    schedYield(SchedOp::LoadRelaxed, SchedObject::Bary, BaryIndex);
    uint32_t BranchID = bary(BaryIndex).load(std::memory_order_relaxed);
    schedObserve(SchedOp::LoadRelaxed, SchedObject::Bary, BaryIndex, BranchID);
    schedYield(SchedOp::LoadAcquire, SchedObject::Tary, Index);
    uint32_t TargetID = tary(Index).load(std::memory_order_acquire);
    schedObserve(SchedOp::LoadAcquire, SchedObject::Tary, Index, TargetID);
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
    schedYield(SchedOp::LoadAcquire, SchedObject::UpdateSeq, 0);
    uint64_t Seq = UpdateSeq.load(std::memory_order_acquire);
    schedObserve(SchedOp::LoadAcquire, SchedObject::UpdateSeq, 0, Seq);
    uint32_t BranchID = baryRead(BaryIndex);
    schedYield(SchedOp::FenceAcquire, SchedObject::None, 0);
    std::atomic_thread_fence(std::memory_order_acquire);
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
    schedYield(SchedOp::FenceAcquire, SchedObject::None, 0);
    std::atomic_thread_fence(std::memory_order_acquire);
    schedYield(SchedOp::LoadRelaxed, SchedObject::UpdateSeq, 0);
    uint64_t CurSeq = UpdateSeq.load(std::memory_order_relaxed);
    schedObserve(SchedOp::LoadRelaxed, SchedObject::UpdateSeq, 0, CurSeq);
    if ((Seq & 1) == 0 && CurSeq == Seq)
      // Version mismatch with no update in flight: one side is stale.
      // An invalid *branch* ID means the site was never (re)installed;
      // otherwise the edge crosses versions and is not in any single
      // installed CFG.
      return isValidID(BranchID) ? CheckResult::ViolationECN
                                 : CheckResult::ViolationInvalid;
    schedYield(SchedOp::RMWRelaxed, SchedObject::SlowRetries, 0);
    uint64_t Retries = SlowRetries.fetch_add(1, std::memory_order_relaxed);
    schedObserve(SchedOp::RMWRelaxed, SchedObject::SlowRetries, 0,
                 Retries + 1);
    // An update transaction is in flight; retry.
  }
}

TxUpdateStatus
IDTables::txUpdate(uint64_t TaryLimitBytes,
                   const std::function<int64_t(uint64_t)> &GetTaryECN,
                   uint32_t BaryCount,
                   const std::function<int64_t(uint32_t)> &GetBaryECN,
                   const std::function<void()> &BetweenTablesHook,
                   TxUpdateStats *Stats) {
  // Update transactions are serialized by a global lock (they are rare);
  // check transactions proceed concurrently and are synchronized only
  // through the version numbers embedded in the IDs.
  std::lock_guard<std::mutex> Guard(UpdateLock);

  // Sec. 5.2's ABA guard: at quiescence only the current version is
  // live, so bumps 1..MaxVersion within an epoch are fresh, but bump
  // MaxVersion+1 lands back on the epoch's starting version, which a
  // stalled check transaction may still hold. Refuse instead of
  // silently wrapping; the runtime must quiesce (every thread observed
  // at a syscall boundary) and resetVersionEpoch() first.
  schedYield(SchedOp::LoadRelaxed, SchedObject::VersionedUpdateCount, 0);
  uint64_t VU = VersionedUpdates.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::VersionedUpdateCount, 0, VU);
  schedYield(SchedOp::LoadRelaxed, SchedObject::EpochBase, 0);
  uint64_t EB = EpochBase.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::EpochBase, 0, EB);
  if (VU - EB >= MaxVersion)
    return TxUpdateStatus::VersionExhausted;

  schedYield(SchedOp::LoadRelaxed, SchedObject::Version, 0);
  uint32_t OldVersion = Version.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::Version, 0, OldVersion);
  uint32_t NewVersion = (OldVersion + 1) & MaxVersion;
  schedYield(SchedOp::StoreRelaxed, SchedObject::Version, 0);
  Version.store(NewVersion, std::memory_order_relaxed);
  schedObserve(SchedOp::StoreRelaxed, SchedObject::Version, 0, NewVersion);
  schedYield(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0);
  uint64_t Upd = Updates.fetch_add(1, std::memory_order_relaxed);
  schedObserve(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0, Upd + 1);
  schedYield(SchedOp::RMWRelaxed, SchedObject::VersionedUpdateCount, 0);
  uint64_t VUpd = VersionedUpdates.fetch_add(1, std::memory_order_relaxed);
  schedObserve(SchedOp::RMWRelaxed, SchedObject::VersionedUpdateCount, 0,
               VUpd + 1);

  assert(TaryLimitBytes <= taryCapacityBytes() && "code past table capacity");
  assert(BaryCount <= BaryEntries.size() && "too many branch sites");

  TxUpdateStats Local;
  Local.Version = NewVersion;

  // Mark the update in flight (odd seq) before the first table store.
  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t Seq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, Seq + 1);

  uint64_t Limit = (TaryLimitBytes + 3) / 4;

  // Phase 1: construct the new Tary table locally, then copy it in with
  // relaxed (movnti-style, weakly ordered) stores. Each 4-byte store is
  // individually atomic, which is the only requirement (Fig. 3's
  // copyTaryTable). If the code region shrank, zero the tail of the
  // previous install in the same phase: stale old-version target IDs
  // there would otherwise read as "update in flight" forever.
  auto InstallTary = [&] {
    std::vector<uint32_t> NewTary(Limit, 0);
    for (uint64_t I = 0; I != Limit; ++I) {
      int64_t ECN = GetTaryECN(I * 4);
      if (ECN >= 0) {
        assert(ECN <= static_cast<int64_t>(MaxECN) && "ECN space exhausted");
        NewTary[I] = encodeID(static_cast<uint32_t>(ECN), NewVersion);
      }
    }
    for (uint64_t I = 0; I != Limit; ++I) {
      schedYield(SchedOp::StoreRelaxed, SchedObject::Tary, I);
      tary(I).store(NewTary[I], std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Tary, I, NewTary[I]);
    }
    Local.TaryWritten = Limit;
    schedYield(SchedOp::LoadRelaxed, SchedObject::InstalledTary, 0);
    uint64_t PrevTaryWords =
        InstalledTaryWords.load(std::memory_order_relaxed);
    schedObserve(SchedOp::LoadRelaxed, SchedObject::InstalledTary, 0,
                 PrevTaryWords);
    for (uint64_t I = Limit; I < PrevTaryWords; ++I) {
      schedYield(SchedOp::StoreRelaxed, SchedObject::Tary, I);
      tary(I).store(0, std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Tary, I, 0);
      ++Local.TaryCleared;
    }
    schedYield(SchedOp::StoreRelaxed, SchedObject::InstalledTary, 0);
    InstalledTaryWords.store(Limit, std::memory_order_relaxed);
    schedObserve(SchedOp::StoreRelaxed, SchedObject::InstalledTary, 0, Limit);
  };

  // Phase 2: update the Bary table, zeroing any tail left over from a
  // larger previous install.
  auto InstallBary = [&] {
    for (uint32_t I = 0; I != BaryCount; ++I) {
      int64_t ECN = GetBaryECN(I);
      uint32_t ID = 0;
      if (ECN >= 0) {
        assert(ECN <= static_cast<int64_t>(MaxECN) && "ECN space exhausted");
        ID = encodeID(static_cast<uint32_t>(ECN), NewVersion);
      }
      schedYield(SchedOp::StoreRelaxed, SchedObject::Bary, I);
      bary(I).store(ID, std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Bary, I, ID);
    }
    Local.BaryWritten = BaryCount;
    schedYield(SchedOp::LoadRelaxed, SchedObject::InstalledBary, 0);
    uint32_t PrevBaryCount =
        InstalledBaryCount.load(std::memory_order_relaxed);
    schedObserve(SchedOp::LoadRelaxed, SchedObject::InstalledBary, 0,
                 PrevBaryCount);
    for (uint32_t I = BaryCount; I < PrevBaryCount; ++I) {
      schedYield(SchedOp::StoreRelaxed, SchedObject::Bary, I);
      bary(I).store(0, std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Bary, I, 0);
      ++Local.BaryCleared;
    }
    schedYield(SchedOp::StoreRelaxed, SchedObject::InstalledBary, 0);
    InstalledBaryCount.store(BaryCount, std::memory_order_relaxed);
    schedObserve(SchedOp::StoreRelaxed, SchedObject::InstalledBary, 0,
                 BaryCount);
  };

  // Memory write barrier between the phases: all Tary stores complete
  // before any Bary store (Fig. 3 line 5) — the linearization point of
  // the update. GOT entry updates are inserted between the two table
  // updates and serialized by another barrier (paper, PLT/GOT
  // discussion).
  auto PhaseBarrierAndHook = [&] {
    schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (BetweenTablesHook) {
      BetweenTablesHook();
      schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
  };

#if MCFI_SCHED_HOOKS
  if (GSchedMutantReorderPhases) {
    // TEST-ONLY MUTANT: Bary before Tary — the store order Fig. 3
    // forbids. Kept only in the instrumented build so the schedule
    // checker can demonstrate it detects the resulting torn reads.
    InstallBary();
    PhaseBarrierAndHook();
    InstallTary();
  } else
#endif
  {
    InstallTary();
    PhaseBarrierAndHook();
    InstallBary();
  }
  schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Update complete (seq back to even).
  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t EndSeq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, EndSeq + 1);

  if (Stats) {
    Local.Incremental = false;
    Local.Micros = Stats->Micros; // caller-owned timing, keep it
    Local.BatchModules = Stats->BatchModules; // caller-owned, likewise
    *Stats = Local;
  }
  return TxUpdateStatus::Ok;
}

TxUpdateStatus
IDTables::txUpdateRetire(const std::vector<TaryRange> &TaryRetire,
                         const std::vector<uint32_t> &BarySites,
                         const std::function<void()> &BetweenTablesHook,
                         TxUpdateStats *Stats) {
  std::lock_guard<std::mutex> Guard(UpdateLock);

  schedYield(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0);
  uint64_t Upd = Updates.fetch_add(1, std::memory_order_relaxed);
  schedObserve(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0, Upd + 1);

  TxUpdateStats Local;
  Local.Incremental = true; // no version bump, O(delta) stores
  schedYield(SchedOp::LoadRelaxed, SchedObject::Version, 0);
  Local.Version = Version.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::Version, 0, Local.Version);

  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t Seq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, Seq + 1);

  // Phase 1: zero the module's Bary sites. Sites first — the reverse of
  // the install order — so no still-installed site can observe its
  // targets vanishing: by the time a target is cleared, every site that
  // could legally reach it under the retired module's classes is gone.
  auto RetireBary = [&] {
    for (uint32_t I : BarySites) {
      assert(I < BaryEntries.size() && "retired site past capacity");
      schedYield(SchedOp::StoreRelaxed, SchedObject::Bary, I);
      bary(I).store(0, std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Bary, I, 0);
      ++Local.BaryCleared;
    }
  };

  // Phase 2: zero the module's Tary ranges. The installed extents are
  // left untouched — the retired ranges become interior holes, and a
  // later shrinking full update still zeroes down from the old extents.
  auto RetireTary = [&] {
    for (const TaryRange &R : TaryRetire) {
      uint64_t Begin = R.BeginBytes / 4;
      uint64_t End = (R.EndBytes + 3) / 4;
      assert(End * 4 <= taryCapacityBytes() && "retired range past capacity");
      for (uint64_t I = Begin; I < End; ++I) {
        schedYield(SchedOp::StoreRelaxed, SchedObject::Tary, I);
        tary(I).store(0, std::memory_order_relaxed);
        schedObserve(SchedOp::StoreRelaxed, SchedObject::Tary, I, 0);
        ++Local.TaryCleared;
      }
    }
  };

  auto PhaseBarrierAndHook = [&] {
    schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (BetweenTablesHook) {
      BetweenTablesHook();
      schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
  };

  RetireBary();
  PhaseBarrierAndHook();
  RetireTary();
  schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
  std::atomic_thread_fence(std::memory_order_seq_cst);

  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t EndSeq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, EndSeq + 1);

  if (Stats) {
    Local.Micros = Stats->Micros;
    Local.BatchModules = Stats->BatchModules;
    *Stats = Local;
  }
  return TxUpdateStatus::Ok;
}

TxUpdateStatus IDTables::txUpdateIncremental(
    uint64_t TaryLimitBytes, const std::vector<TaryRange> &TaryDirty,
    const std::function<int64_t(uint64_t)> &GetTaryECN, uint32_t BaryCount,
    const std::vector<uint32_t> &BaryDirty,
    const std::function<int64_t(uint32_t)> &GetBaryECN,
    const std::function<void()> &BetweenTablesHook, TxUpdateStats *Stats) {
  std::lock_guard<std::mutex> Guard(UpdateLock);

  assert(TaryLimitBytes <= taryCapacityBytes() && "code past table capacity");
  assert(BaryCount <= BaryEntries.size() && "too many branch sites");
  // Grow-only: a delta install may never shrink either table — shrinks
  // retire entries and must go through the full, version-bumping path.
  schedYield(SchedOp::LoadRelaxed, SchedObject::InstalledTary, 0);
  uint64_t PrevTaryWords = InstalledTaryWords.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::InstalledTary, 0,
               PrevTaryWords);
  schedYield(SchedOp::LoadRelaxed, SchedObject::InstalledBary, 0);
  uint32_t PrevBaryCount = InstalledBaryCount.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::InstalledBary, 0,
               PrevBaryCount);
  assert((TaryLimitBytes + 3) / 4 >= PrevTaryWords &&
         "incremental update may not shrink the Tary table");
  assert(BaryCount >= PrevBaryCount &&
         "incremental update may not shrink the Bary table");

  // No version bump: every new entry is stamped with the version already
  // installed, so each individual atomic store is its own linearization
  // point — a reader sees the edge absent or present, never a torn
  // cross-version pair. This is what makes the O(delta) cost safe.
  schedYield(SchedOp::LoadRelaxed, SchedObject::Version, 0);
  uint32_t CurVersion = Version.load(std::memory_order_relaxed);
  schedObserve(SchedOp::LoadRelaxed, SchedObject::Version, 0, CurVersion);
  schedYield(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0);
  uint64_t Upd = Updates.fetch_add(1, std::memory_order_relaxed);
  schedObserve(SchedOp::RMWRelaxed, SchedObject::UpdateCount, 0, Upd + 1);

  TxUpdateStats Local;
  Local.Incremental = true;
  Local.Version = CurVersion;

  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t Seq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, Seq + 1);

  uint64_t Limit = (TaryLimitBytes + 3) / 4;

  // Phase 1: (re-)encode only the dirty Tary ranges. Re-encoding an
  // unchanged entry at the same version is idempotent, so ranges may be
  // coalesced generously by the caller.
  auto InstallTaryDelta = [&] {
    for (const TaryRange &R : TaryDirty) {
      uint64_t Begin = R.BeginBytes / 4;
      uint64_t End = (R.EndBytes + 3) / 4;
      assert(End <= Limit && "dirty range past the new Tary limit");
      for (uint64_t I = Begin; I < End; ++I) {
        int64_t ECN = GetTaryECN(I * 4);
        uint32_t ID = 0;
        if (ECN >= 0) {
          assert(ECN <= static_cast<int64_t>(MaxECN) && "ECN space exhausted");
          ID = encodeID(static_cast<uint32_t>(ECN), CurVersion);
        }
        // Eligibility cross-check: an already-installed entry may only
        // be rewritten with the value it already holds.
        schedYield(SchedOp::LoadRelaxed, SchedObject::Tary, I);
        uint32_t Old = tary(I).load(std::memory_order_relaxed);
        schedObserve(SchedOp::LoadRelaxed, SchedObject::Tary, I, Old);
        assert((I >= PrevTaryWords || Old == 0 || Old == ID) &&
               "incremental update would change an installed Tary entry");
        (void)Old;
        schedYield(SchedOp::StoreRelaxed, SchedObject::Tary, I);
        tary(I).store(ID, std::memory_order_relaxed);
        schedObserve(SchedOp::StoreRelaxed, SchedObject::Tary, I, ID);
        ++Local.TaryWritten;
      }
    }
    schedYield(SchedOp::StoreRelaxed, SchedObject::InstalledTary, 0);
    InstalledTaryWords.store(Limit, std::memory_order_relaxed);
    schedObserve(SchedOp::StoreRelaxed, SchedObject::InstalledTary, 0, Limit);
  };

  // Phase 2: install the new Bary sites. Only indexes >= the previous
  // count, or below it with no ID (a retired, reclaimed site's zeroed
  // entry), are eligible — an existing site's window between the GOT
  // hook and its bary store would otherwise spuriously halt guests.
  auto InstallBaryDelta = [&] {
    for (uint32_t I : BaryDirty) {
      assert(I < BaryCount && "dirty site past the new Bary count");
      assert((I >= PrevBaryCount ||
              bary(I).load(std::memory_order_relaxed) == 0) &&
             "incremental update would rewrite an installed Bary site");
      int64_t ECN = GetBaryECN(I);
      uint32_t ID = 0;
      if (ECN >= 0) {
        assert(ECN <= static_cast<int64_t>(MaxECN) && "ECN space exhausted");
        ID = encodeID(static_cast<uint32_t>(ECN), CurVersion);
      }
      schedYield(SchedOp::StoreRelaxed, SchedObject::Bary, I);
      bary(I).store(ID, std::memory_order_relaxed);
      schedObserve(SchedOp::StoreRelaxed, SchedObject::Bary, I, ID);
      ++Local.BaryWritten;
    }
    schedYield(SchedOp::StoreRelaxed, SchedObject::InstalledBary, 0);
    InstalledBaryCount.store(BaryCount, std::memory_order_relaxed);
    schedObserve(SchedOp::StoreRelaxed, SchedObject::InstalledBary, 0,
                 BaryCount);
  };

  // Same barrier discipline as the full transaction: new targets become
  // visible before the hook runs and before any new site can read them.
  auto PhaseBarrierAndHook = [&] {
    schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (BetweenTablesHook) {
      BetweenTablesHook();
      schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
  };

#if MCFI_SCHED_HOOKS
  if (GSchedMutantReorderPhases) {
    // TEST-ONLY MUTANT: new sites become visible before their targets
    // exist. See txUpdate above.
    InstallBaryDelta();
    PhaseBarrierAndHook();
    InstallTaryDelta();
  } else
#endif
  {
    InstallTaryDelta();
    PhaseBarrierAndHook();
    InstallBaryDelta();
  }
  schedYield(SchedOp::FenceSeqCst, SchedObject::None, 0);
  std::atomic_thread_fence(std::memory_order_seq_cst);

  schedYield(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0);
  uint64_t EndSeq = UpdateSeq.fetch_add(1, std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::UpdateSeq, 0, EndSeq + 1);

  if (Stats) {
    Local.Micros = Stats->Micros;
    Local.BatchModules = Stats->BatchModules; // caller-owned, likewise
    *Stats = Local;
  }
  return TxUpdateStatus::Ok;
}
