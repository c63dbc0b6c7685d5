//===- tables/Shadow.cpp - Versioned shadow of the installed policy -------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tables/Shadow.h"

#include "support/Assert.h"

#include <algorithm>

using namespace mcfi;

namespace {

/// Adjacent new IBTs cluster (a loaded module's entries are contiguous),
/// so nearby dirty offsets are coalesced into one range. Re-encoding an
/// unchanged entry at the same version is idempotent, which is what makes
/// covering small gaps safe; the tolerance just trades a few redundant
/// stores for fewer ranges.
constexpr uint64_t CoalesceGapBytes = 128;

} // namespace

void PolicyShadow::retireRange(uint64_t TaryBeginBytes, uint64_t TaryEndBytes,
                               const std::vector<uint32_t> &BarySites) {
  assert(Installed && "retiring entries before any install");
  std::erase_if(Image.TaryECN, [&](const auto &Entry) {
    return Entry.first >= TaryBeginBytes && Entry.first < TaryEndBytes;
  });
  for (uint32_t I : BarySites)
    if (I < Image.BaryECN.size())
      Image.BaryECN[I] = -1;
}

ShadowDelta PolicyShadow::computeDelta(const PolicyImage &Next) const {
  ShadowDelta D;

  if (!Installed) {
    D.Reason = "first install";
    return D;
  }
  if (Next.TaryLimitBytes < Image.TaryLimitBytes) {
    D.Reason = "code region shrank";
    return D;
  }
  if (Next.BaryCount < Image.BaryCount ||
      Next.BaryECN.size() < Image.BaryECN.size()) {
    D.Reason = "branch-site table shrank";
    return D;
  }

  // Every installed IBT must survive with the same ECN; a removed or
  // renumbered target means some live Tary entry changes value.
  for (const auto &[Offset, ECN] : Image.TaryECN) {
    auto It = Next.TaryECN.find(Offset);
    if (It == Next.TaryECN.end()) {
      D.Reason = "installed target removed";
      return D;
    }
    if (It->second != ECN) {
      D.Reason = "installed target changed class";
      return D;
    }
  }

  // Every installed Bary site must keep its exact value. This covers the
  // resolved-import case: a PLT site going Empty -> real class is a value
  // change at a live index, and rewriting it without a version bump opens
  // a window (between the GOT hook and the site's store) where guests
  // would spuriously halt. A site holding no ID (-1) is not installed:
  // its entry is zero, left by a retire whose module has since been
  // reclaimed and its slot trimmed, so giving it an ID is an extension.
  std::vector<uint32_t> Reused;
  for (uint32_t I = 0; I != Image.BaryCount; ++I) {
    if (Image.BaryECN[I] < 0) {
      if (Next.BaryECN[I] >= 0)
        Reused.push_back(I);
    } else if (Next.BaryECN[I] != Image.BaryECN[I]) {
      D.Reason = "installed branch site changed";
      return D;
    }
  }

  // Pure extension: collect the new IBT offsets and new site indexes.
  D.FullRebuild = false;
  for (const auto &[Offset, ECN] : Next.TaryECN) {
    (void)ECN;
    if (!Image.TaryECN.count(Offset))
      D.TaryDirtyOffsets.push_back(Offset);
  }
  std::sort(D.TaryDirtyOffsets.begin(), D.TaryDirtyOffsets.end());
  D.TaryDirtyEntries = D.TaryDirtyOffsets.size();

  for (uint64_t Offset : D.TaryDirtyOffsets) {
    if (!D.TaryDirty.empty() &&
        Offset < D.TaryDirty.back().EndBytes + CoalesceGapBytes) {
      D.TaryDirty.back().EndBytes = Offset + 4;
    } else {
      D.TaryDirty.push_back({Offset, Offset + 4});
    }
  }

  D.BaryDirty = std::move(Reused);
  for (uint32_t I = Image.BaryCount; I < Next.BaryCount; ++I)
    D.BaryDirty.push_back(I);

  return D;
}
