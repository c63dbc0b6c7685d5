//===- tables/Shadow.h - Versioned shadow of the installed policy -*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shadow copy of the CFG policy most recently installed into the ID
/// tables, plus the delta computation that decides whether the *next*
/// policy can be installed incrementally (txUpdateIncremental, O(delta))
/// or needs the full version-bumping rebuild (txUpdate, O(code region)).
///
/// A policy is an incremental *extension* of the installed one exactly
/// when installing it changes no entry the tables already hold: every
/// installed Tary offset keeps its ECN, every installed Bary site keeps
/// its value, and both extents only grow. Anything else — a shrink, a
/// class renumbering, an import resolving at an existing PLT site —
/// retires or rewrites live entries and must pay for a version bump so
/// readers can tell old CFG from new.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_TABLES_SHADOW_H
#define MCFI_TABLES_SHADOW_H

#include "tables/IDTables.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcfi {

/// A flattened policy as the tables see it: table-offset keyed, with all
/// symbol/module structure already resolved away by the linker.
struct PolicyImage {
  uint64_t TaryLimitBytes = 0;
  uint32_t BaryCount = 0;
  /// 4-aligned code-region byte offset -> ECN, one entry per IBT.
  std::unordered_map<uint64_t, uint32_t> TaryECN;
  /// Per global site index; negative = site not installed (no ID).
  std::vector<int64_t> BaryECN;
};

/// The difference between the installed policy and a candidate one.
struct ShadowDelta {
  /// True when the candidate is not a pure extension; the dirty sets
  /// below are meaningless and the caller must run a full txUpdate.
  bool FullRebuild = true;
  /// Why a full rebuild is required (diagnostic / metrics label).
  std::string Reason;

  /// New-IBT byte offsets, sorted, coalesced into ranges for the
  /// range-oriented txUpdateIncremental interface.
  std::vector<TaryRange> TaryDirty;
  /// The same offsets uncoalesced (for cross-checks and tests).
  std::vector<uint64_t> TaryDirtyOffsets;
  /// New Bary site indexes: installed sites holding no ID (-1) that
  /// gain one, then every index >= the installed BaryCount.
  std::vector<uint32_t> BaryDirty;

  /// Tary entries actually new (TaryDirty ranges may cover more after
  /// coalescing; the extras are idempotent re-encodes).
  uint64_t TaryDirtyEntries = 0;
};

/// Tracks what the tables currently hold. Owned by the linker; updated
/// under the same serialization as the update transactions themselves
/// (the linker performs all installs from its own lock).
class PolicyShadow {
public:
  /// True once install() has recorded a first policy.
  bool hasInstall() const { return Installed; }

  /// Version the installed image was stamped with.
  uint32_t installedVersion() const { return InstalledVersion; }

  const PolicyImage &image() const { return Image; }

  /// Classifies \p Next against the installed image. Never mutates the
  /// shadow; call install() after the tables transaction succeeds.
  ShadowDelta computeDelta(const PolicyImage &Next) const;

  /// Records \p Next as installed at \p Version.
  void install(PolicyImage &&Next, uint32_t Version) {
    Image = std::move(Next);
    InstalledVersion = Version;
    Installed = true;
  }

  /// Records the effect of a retire transaction (dlclose): every Tary
  /// entry in [\p TaryBeginBytes, \p TaryEndBytes) is erased and each of
  /// \p BarySites reverts to "no ID" (-1) — exactly the zeroed state
  /// txUpdateRetire left in the tables. Extents are unchanged: the dead
  /// module's positions stay tombstoned, not reclaimed, until the epoch
  /// reclaimer matures the range.
  void retireRange(uint64_t TaryBeginBytes, uint64_t TaryEndBytes,
                   const std::vector<uint32_t> &BarySites);

private:
  PolicyImage Image;
  uint32_t InstalledVersion = 0;
  bool Installed = false;
};

} // namespace mcfi

#endif // MCFI_TABLES_SHADOW_H
