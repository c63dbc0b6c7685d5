//===- attack/TableAttacks.cpp - ID-table update-protocol attacks ---------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attacks on the check/update transaction protocol itself, run against
/// standalone IDTables instances (the same class the Machine embeds — the
/// guest's TableRead/BaryRead delegate straight to it, so a protocol hole
/// here would be a protocol hole at runtime):
///
///  - stale-version-replay: IDs snapshotted before a version-bumping
///    TxUpdate must not validate anything afterwards (Sec. 5.2's ABA
///    hazard), shrinking updates must leave no stale entries behind, and
///    the version space must refuse to wrap into replayable territory
///    without a quiescence point.
///  - torn-update: TxCheck racing full and incremental update storms
///    must never observe a torn cross-version table pair that validates
///    a never-legal edge (the linearizability claim of Fig. 3/4). These
///    are racy by construction and TSan-clean: every access goes through
///    the tables' atomics.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include "tables/ID.h"
#include "tables/IDTables.h"

#include <atomic>
#include <thread>

using namespace mcfi;
using namespace mcfi::attack;

namespace {

/// Small table shapes keep the version-wrap storm (~2^14 full rebuilds)
/// cheap: 64 Tary words and 8 Bary sites per rebuild.
constexpr uint64_t CodeCap = 1024;
constexpr uint32_t BaryCap = 8;
constexpr uint64_t TaryLimit = 256;

/// One-ECN-per-site toy policy: site I has ECN Site[I]; 4-aligned target
/// offset Off has ECN Target[Off / 4] (negative: not a target).
struct ToyPolicy {
  std::vector<int64_t> Site;
  std::vector<int64_t> Target; // indexed by Tary word

  TxUpdateStatus install(IDTables &T) const {
    return T.txUpdate(
        TaryLimit, [this](uint64_t Off) { return Target[Off / 4]; },
        static_cast<uint32_t>(Site.size()),
        [this](uint32_t I) { return Site[I]; });
  }
};

AttackRecord makeRecord(AttackClass Class, ExecTier Tier,
                        const std::string &Name, Verdict V,
                        const std::string &Detail) {
  AttackRecord R;
  R.Class = Class;
  R.Tier = Tier;
  R.Victim = "id-tables";
  R.Name = Name;
  R.Expect = Expectation::Killed;
  R.V = V;
  R.Detail = Detail;
  return R;
}

/// Replay of an edge the new CFG removed: snapshot the target ID under
/// policy A, install policy B without the target, and emulate the
/// stalled check transaction holding the stale ID.
AttackRecord staleRemovedEdgeReplay(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy A;
  A.Site = {5};
  A.Target.assign(TaryLimit / 4, -1);
  A.Target[16] = 5; // offset 64 is a legal target of site 0
  A.install(T);
  if (T.txCheck(0, 64) != CheckResult::Pass)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:removed-edge", Verdict::Survived,
                      "setup: legal edge did not pass");

  uint32_t StaleID = T.taryRead(64); // the attacker's snapshot
  ToyPolicy B = A;
  B.Target[16] = -1; // the new CFG removes the edge
  B.install(T);

  // The stalled check: its branch ID is re-read (current), its target ID
  // is the snapshot. Fig. 4's comparison fails on the version half, the
  // retry path re-reads the *current* tary entry — now cleared — and the
  // transfer halts with an invalid-target violation.
  bool StaleCompares = sameVersionHalf(StaleID, T.baryRead(0));
  CheckResult Retry = T.txCheck(0, 64);
  if (StaleCompares || Retry == CheckResult::Pass)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:removed-edge", Verdict::Survived,
                      "stale ID validated a removed edge");
  return makeRecord(AttackClass::StaleVersionReplay, Tier,
                    "stale:removed-edge", Verdict::CaughtByCheck,
                    "version half mismatch; retry: ViolationInvalid");
}

/// A shrinking update must zero entries past the new limit — otherwise
/// an old-version ID would linger at the stale offset for a later
/// same-version forgery to match.
AttackRecord staleShrinkLeftover(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy Big;
  Big.Site = {7};
  Big.Target.assign(TaryLimit / 4, -1);
  Big.Target[60] = 7; // offset 240, near the limit
  Big.install(T);

  // Shrink: reinstall with a quarter of the Tary extent.
  TxUpdateStatus S = T.txUpdate(
      TaryLimit / 4, [](uint64_t) { return int64_t(-1); }, 1,
      [](uint32_t) { return int64_t(7); });
  if (S != TxUpdateStatus::Ok)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:shrink-leftover", Verdict::Survived,
                      "shrink install refused");
  if (T.taryRead(240) != 0 || T.txCheck(0, 240) == CheckResult::Pass)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:shrink-leftover", Verdict::Survived,
                      "stale entry survived the shrink");
  return makeRecord(AttackClass::StaleVersionReplay, Tier,
                    "stale:shrink-leftover", Verdict::CaughtByCheck,
                    "stale extent zeroed; replay: ViolationInvalid");
}

/// Storm of version-bumping updates: the 14-bit version space must be
/// refused before it wraps into territory a stalled check could replay
/// (Sec. 5.2), and recover only after an explicit quiescence point.
AttackRecord staleVersionWrap(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy P;
  P.Site = {3};
  P.Target.assign(TaryLimit / 4, -1);
  P.Target[8] = 3;

  uint64_t Installed = 0;
  TxUpdateStatus S = TxUpdateStatus::Ok;
  // MaxVersion+1 bumps would wrap; the margin must stop the storm first.
  for (uint64_t I = 0; I <= MaxVersion + 2; ++I) {
    S = P.install(T);
    if (S != TxUpdateStatus::Ok)
      break;
    ++Installed;
  }
  if (S != TxUpdateStatus::VersionExhausted || Installed > MaxVersion)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:version-wrap", Verdict::Survived,
                      "update storm was not refused before wrap");
  // Recovery sanity: a quiescence point re-opens the version space.
  T.resetVersionEpoch();
  bool Recovered = P.install(T) == TxUpdateStatus::Ok;
  return makeRecord(AttackClass::StaleVersionReplay, Tier,
                    "stale:version-wrap", Verdict::UnreachableByPolicy,
                    std::string("VersionExhausted at margin; ") +
                        (Recovered ? "recovered after quiescence"
                                   : "RECOVERY FAILED"));
}

/// Cross-version ID forgery: words mixing halves of two valid IDs must
/// fail the reserved-bit validation (the misaligned-read defense).
AttackRecord staleMixedHalves(ExecTier Tier) {
  uint32_t U = encodeID(5, 9);
  uint32_t W = encodeID(5, 10);
  uint32_t Mixed = (U & 0xffffu) | (W & 0xffff0000u);
  bool MixedInvalid = !sameVersionHalf(U, W);
  // A word assembled at a misaligned offset splices byte-shifted halves;
  // its reserved bits cannot match the 0,0,0,1 pattern.
  uint32_t Spliced = (U >> 16) | (W << 16);
  if (!MixedInvalid || isValidID(Spliced) || idECN(Mixed) != 5)
    return makeRecord(AttackClass::StaleVersionReplay, Tier,
                      "stale:mixed-halves", Verdict::Survived,
                      "forged cross-version word validated");
  return makeRecord(AttackClass::StaleVersionReplay, Tier,
                    "stale:mixed-halves", Verdict::CaughtByCheck,
                    "version-half compare and reserved bits both refuse");
}

/// Core torn-update probe: checker threads hammer an edge that is
/// invalid under every policy the updater installs; one Pass means a
/// torn cross-version table pair validated a never-legal edge.
template <typename UpdateStorm>
AttackRecord tornProbe(AttackClass Class, ExecTier Tier,
                       const std::string &Name, IDTables &T,
                       uint32_t BadSite, uint64_t BadOffset,
                       const UpdateStorm &Storm) {
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Passes{0};

  std::thread Checkers[2];
  for (std::thread &C : Checkers)
    C = std::thread([&] {
      while (!Done.load(std::memory_order_acquire))
        if (T.txCheck(BadSite, BadOffset) == CheckResult::Pass)
          Passes.fetch_add(1, std::memory_order_relaxed);
      // One final check after the last update settled.
      if (T.txCheck(BadSite, BadOffset) == CheckResult::Pass)
        Passes.fetch_add(1, std::memory_order_relaxed);
    });

  Storm();
  Done.store(true, std::memory_order_release);
  for (std::thread &C : Checkers)
    C.join();

  if (Passes.load())
    return makeRecord(Class, Tier, Name, Verdict::Survived,
                      "torn table pair validated a never-legal edge");
  return makeRecord(Class, Tier, Name, Verdict::CaughtByCheck,
                    "no check passed across the update storm");
}

/// Full-rebuild flips between two policies that disagree on every ECN;
/// the probed edge is illegal under both and under any mix.
AttackRecord tornFullFlip(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy A, B;
  A.Site = {1, 3};
  B.Site = {2, 4};
  A.Target.assign(TaryLimit / 4, -1);
  B.Target.assign(TaryLimit / 4, -1);
  A.Target[16] = 3; // offset 64: legal only for site 1 under A
  B.Target[16] = 4; // ... and only for site 1 under B
  A.install(T);
  return tornProbe(AttackClass::TornUpdate, Tier, "torn:full-flip", T,
                   /*BadSite=*/0, /*BadOffset=*/64, [&] {
                     for (unsigned I = 0; I != 400; ++I)
                       (I & 1 ? B : A).install(T);
                   });
}

/// Incremental extension storm: additions never make the probed edge
/// legal, and each entry-write must linearize independently.
AttackRecord tornIncrementalExtend(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy Base;
  Base.Site = {1};
  Base.Target.assign(TaryLimit / 4, -1);
  Base.Target[4] = 1;
  Base.install(T);

  // Growing target map shared by the incremental deltas; plain vector is
  // fine — only the storm thread mutates it, the checkers see IDTables.
  std::vector<int64_t> Target = Base.Target;
  return tornProbe(
      AttackClass::TornUpdate, Tier, "torn:incremental-extend", T,
      /*BadSite=*/0, /*BadOffset=*/64, [&] {
        for (unsigned I = 0; I != 40; ++I) {
          uint64_t Word = 20 + I; // offsets 80, 84, ... all ECN 2
          Target[Word] = 2;
          std::vector<TaryRange> Dirty{{Word * 4, Word * 4 + 4}};
          T.txUpdateIncremental(
              TaryLimit, Dirty,
              [&Target](uint64_t Off) { return Target[Off / 4]; }, 1, {},
              [](uint32_t) { return int64_t(1); });
        }
      });
}

/// Grow/shrink flips move the installed Tary extent across the probed
/// offset; a torn shrink could leave its stale ID observable.
AttackRecord tornShrinkGrow(ExecTier Tier) {
  IDTables T(CodeCap, BaryCap);
  ToyPolicy Grown;
  Grown.Site = {1, 6};
  Grown.Target.assign(TaryLimit / 4, -1);
  Grown.Target[32] = 6; // offset 128: legal only for site 1
  Grown.install(T);
  return tornProbe(AttackClass::TornUpdate, Tier, "torn:shrink-grow", T,
                   /*BadSite=*/0, /*BadOffset=*/128, [&] {
                     for (unsigned I = 0; I != 400; ++I) {
                       if (I & 1) {
                         Grown.install(T);
                       } else {
                         T.txUpdate(
                             64, [](uint64_t) { return int64_t(-1); }, 2,
                             [&Grown](uint32_t S) { return Grown.Site[S]; });
                       }
                     }
                   });
}

} // namespace

std::vector<AttackRecord>
mcfi::attack::runTableAttacks(AttackClass Class, ExecTier Tier,
                              unsigned MaxPerClass) {
  using Synth = AttackRecord (*)(ExecTier);
  const Synth *List = nullptr;
  unsigned N = 0;
  static const Synth Stale[] = {staleRemovedEdgeReplay, staleShrinkLeftover,
                                staleVersionWrap, staleMixedHalves};
  static const Synth Torn[] = {tornFullFlip, tornIncrementalExtend,
                               tornShrinkGrow};
  if (Class == AttackClass::StaleVersionReplay) {
    List = Stale;
    N = sizeof(Stale) / sizeof(Stale[0]);
  } else if (Class == AttackClass::TornUpdate) {
    List = Torn;
    N = sizeof(Torn) / sizeof(Torn[0]);
  }
  std::vector<AttackRecord> Out;
  for (unsigned I = 0; I != N && I != MaxPerClass; ++I)
    Out.push_back(List[I](Tier));
  return Out;
}
