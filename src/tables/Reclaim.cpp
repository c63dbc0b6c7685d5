//===- tables/Reclaim.cpp - Epoch-based table/range reclamation -----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tables/Reclaim.h"

#include "support/Assert.h"

#include <algorithm>

using namespace mcfi;

void EpochReclaimer::bumpPending(int64_t Delta) {
  schedYield(SchedOp::RMWRelease, SchedObject::Reclaim, 0);
  uint64_t N = PendingCount.fetch_add(static_cast<uint64_t>(Delta),
                                      std::memory_order_release);
  schedObserve(SchedOp::RMWRelease, SchedObject::Reclaim, 0,
               N + static_cast<uint64_t>(Delta));
}

void EpochReclaimer::retire(RetiredRegion R) {
  std::lock_guard<std::mutex> Guard(Lock);
  ++Counters.Retired;
  for (uint32_t ECN : R.ECNs)
    ++Condemned[ECN];
  Pending.push_back(std::move(R));
  bumpPending(1);
}

std::vector<RetiredRegion> EpochReclaimer::collect(uint64_t CurrentGen) {
  std::lock_guard<std::mutex> Guard(Lock);
  std::vector<RetiredRegion> Matured;
  auto It = Pending.begin();
  while (It != Pending.end()) {
    // The R+2 rule: a thread counted toward generation R *before* the
    // retire may still be mid-transaction when R completes; only the
    // completion of R+1 proves every thread crossed a quiescent point
    // strictly after the retire.
    if (CurrentGen >= It->RetireGen + 2) {
      Matured.push_back(std::move(*It));
      It = Pending.erase(It);
    } else {
      ++It;
    }
  }
  for (const RetiredRegion &R : Matured) {
    ++Counters.Reclaimed;
    Counters.BytesReclaimed += R.SizeBytes;
    for (uint32_t ECN : R.ECNs) {
      auto C = Condemned.find(ECN);
      assert(C != Condemned.end() && "releasing a never-condemned ECN");
      if (--C->second == 0)
        Condemned.erase(C);
      ++Counters.ReleasedECNs;
    }
    // Deliberately NOT added to the free list here: the caller must
    // zero the range first (applyReclaim's W^X memset) and only then
    // publish it via addFreeRange. Publishing pre-zero would let a
    // concurrent mapModule reuse the range and have its freshly copied
    // code wiped by the still-pending memset.
  }
  if (!Matured.empty())
    bumpPending(-static_cast<int64_t>(Matured.size()));
  return Matured;
}

std::vector<RetiredRegion> EpochReclaimer::collectAll() {
  // With no readers alive, every pending region is trivially past grace:
  // treat them as retired infinitely long ago.
  return collect(~0ull);
}

bool EpochReclaimer::isCondemned(uint32_t ECN) const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Condemned.count(ECN) != 0;
}

bool EpochReclaimer::anyCondemned(const std::vector<uint32_t> &ECNs) const {
  std::lock_guard<std::mutex> Guard(Lock);
  for (uint32_t ECN : ECNs)
    if (Condemned.count(ECN))
      return true;
  return false;
}

void FreeList::add(uint64_t Base, uint64_t SizeBytes) {
  if (SizeBytes == 0)
    return;
  FreeRange R{Base, SizeBytes};
  auto At = std::lower_bound(
      Ranges.begin(), Ranges.end(), R,
      [](const FreeRange &A, const FreeRange &B) { return A.Base < B.Base; });
  At = Ranges.insert(At, R);
  // Coalesce with the successor, then the predecessor.
  auto Next = At + 1;
  if (Next != Ranges.end() && At->Base + At->SizeBytes == Next->Base) {
    At->SizeBytes += Next->SizeBytes;
    Ranges.erase(Next);
  }
  if (At != Ranges.begin()) {
    auto Prev = At - 1;
    if (Prev->Base + Prev->SizeBytes == At->Base) {
      Prev->SizeBytes += At->SizeBytes;
      Ranges.erase(At);
    }
  }
}

uint64_t FreeList::alloc(uint64_t SizeBytes, uint64_t Align) {
  for (auto It = Ranges.begin(); It != Ranges.end(); ++It) {
    uint64_t Base = (It->Base + (Align - 1)) & ~(Align - 1);
    uint64_t Pad = Base - It->Base;
    if (Pad + SizeBytes > It->SizeBytes)
      continue;
    // Carve [Base, Base+SizeBytes) out of the hole; alignment padding at
    // the front stays free, as does any leftover tail.
    uint64_t TailBase = Base + SizeBytes;
    uint64_t TailSize = It->SizeBytes - Pad - SizeBytes;
    if (Pad) {
      It->SizeBytes = Pad;
      if (TailSize) {
        FreeRange Tail{TailBase, TailSize};
        Ranges.insert(It + 1, Tail);
      }
    } else if (TailSize) {
      It->Base = TailBase;
      It->SizeBytes = TailSize;
    } else {
      Ranges.erase(It);
    }
    return Base;
  }
  return 0;
}

bool FreeList::takeEndingAt(uint64_t Top, FreeRange &Out) {
  for (auto It = Ranges.begin(); It != Ranges.end(); ++It) {
    if (It->Base + It->SizeBytes == Top) {
      Out = *It;
      Ranges.erase(It);
      return true;
    }
  }
  return false;
}

void EpochReclaimer::addFreeRange(uint64_t Base, uint64_t SizeBytes) {
  std::lock_guard<std::mutex> Guard(Lock);
  CodeFree.add(Base, SizeBytes);
}

uint64_t EpochReclaimer::allocFromFree(uint64_t SizeBytes, uint64_t Align) {
  std::lock_guard<std::mutex> Guard(Lock);
  uint64_t Base = CodeFree.alloc(SizeBytes, Align);
  if (Base)
    ++Counters.Reused;
  return Base;
}

bool EpochReclaimer::takeFreeRangeEndingAt(uint64_t Top, FreeRange &Out) {
  std::lock_guard<std::mutex> Guard(Lock);
  return CodeFree.takeEndingAt(Top, Out);
}

void EpochReclaimer::addFreeDataRange(uint64_t Base, uint64_t SizeBytes) {
  std::lock_guard<std::mutex> Guard(Lock);
  DataFree.add(Base, SizeBytes);
}

uint64_t EpochReclaimer::allocDataFromFree(uint64_t SizeBytes) {
  std::lock_guard<std::mutex> Guard(Lock);
  return DataFree.alloc(SizeBytes, 8);
}

std::vector<FreeRange> EpochReclaimer::freeRanges() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return CodeFree.ranges();
}

ReclaimStats EpochReclaimer::stats() const {
  std::lock_guard<std::mutex> Guard(Lock);
  ReclaimStats S = Counters;
  S.PendingRegions = Pending.size();
  uint64_t Ecns = 0;
  for (const auto &[ECN, Count] : Condemned) {
    (void)ECN;
    Ecns += Count;
  }
  S.CondemnedECNs = Ecns;
  S.FreeRanges = CodeFree.ranges().size();
  uint64_t Bytes = 0;
  for (const FreeRange &R : CodeFree.ranges())
    Bytes += R.SizeBytes;
  S.FreeBytes = Bytes;
  return S;
}
