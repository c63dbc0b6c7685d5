//===- tests/TablesTest.cpp - ID tables and transaction tests -------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit and property tests for the ID encoding (Fig. 2), the Bary/Tary
/// tables, the check/update transactions (Figs. 3-4), and the
/// linearizability property of Sec. 5.2 under real concurrency.
///
//===----------------------------------------------------------------------===//

#include "support/RNG.h"
#include "tables/Baselines.h"
#include "tables/ID.h"
#include "tables/IDTables.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mcfi;

namespace {

//===----------------------------------------------------------------------===//
// ID encoding (Fig. 2)
//===----------------------------------------------------------------------===//

TEST(IDEncoding, ReservedBitsPattern) {
  // LSB of each byte is 0,0,0,1 from high to low bytes, for every ID.
  RNG R(1);
  for (int I = 0; I != 10000; ++I) {
    uint32_t ECN = static_cast<uint32_t>(R.below(MaxECN + 1));
    uint32_t Ver = static_cast<uint32_t>(R.below(MaxVersion + 1));
    uint32_t ID = encodeID(ECN, Ver);
    EXPECT_TRUE(isValidID(ID));
    EXPECT_EQ(ID & 0x01010101u, 0x00000001u);
  }
}

TEST(IDEncoding, RoundTrip) {
  RNG R(2);
  for (int I = 0; I != 10000; ++I) {
    uint32_t ECN = static_cast<uint32_t>(R.below(MaxECN + 1));
    uint32_t Ver = static_cast<uint32_t>(R.below(MaxVersion + 1));
    uint32_t ID = encodeID(ECN, Ver);
    EXPECT_EQ(idECN(ID), ECN);
    EXPECT_EQ(idVersion(ID), Ver);
  }
}

TEST(IDEncoding, DistinctInputsDistinctIDs) {
  // The encoding is injective over (ECN, version).
  EXPECT_NE(encodeID(1, 0), encodeID(0, 1));
  EXPECT_NE(encodeID(5, 7), encodeID(7, 5));
  EXPECT_NE(encodeID(MaxECN, 0), encodeID(0, MaxVersion));
}

TEST(IDEncoding, SameVersionHalfMatchesVersionEquality) {
  RNG R(3);
  for (int I = 0; I != 10000; ++I) {
    uint32_t V1 = static_cast<uint32_t>(R.below(MaxVersion + 1));
    uint32_t V2 = static_cast<uint32_t>(R.below(MaxVersion + 1));
    uint32_t A = encodeID(static_cast<uint32_t>(R.below(MaxECN + 1)), V1);
    uint32_t B = encodeID(static_cast<uint32_t>(R.below(MaxECN + 1)), V2);
    EXPECT_EQ(sameVersionHalf(A, B), V1 == V2);
  }
}

TEST(IDEncoding, ZeroIsInvalid) { EXPECT_FALSE(isValidID(0)); }

/// A word assembled from two halves of adjacent IDs is always invalid:
/// this is what rejects misaligned indirect-branch targets.
TEST(IDEncoding, MisalignedCompositesAreInvalid) {
  RNG R(4);
  for (int I = 0; I != 10000; ++I) {
    uint32_t Lo = encodeID(static_cast<uint32_t>(R.below(MaxECN + 1)),
                           static_cast<uint32_t>(R.below(MaxVersion + 1)));
    uint32_t Hi = encodeID(static_cast<uint32_t>(R.below(MaxECN + 1)),
                           static_cast<uint32_t>(R.below(MaxVersion + 1)));
    for (unsigned Shift = 8; Shift != 32; Shift += 8) {
      uint32_t Composite = (Lo >> Shift) | (Hi << (32 - Shift));
      EXPECT_FALSE(isValidID(Composite))
          << "shift " << Shift << " produced a valid ID";
    }
  }
}

//===----------------------------------------------------------------------===//
// Table reads and the check transaction
//===----------------------------------------------------------------------===//

class TablesFixture : public ::testing::Test {
protected:
  TablesFixture() : T(4096, 64) {}

  /// Installs a policy where aligned offset 8*i has ECN TaryECNs[i] and
  /// site j has ECN BaryECNs[j] (negative = none).
  void install(const std::vector<int64_t> &TaryECNs,
               const std::vector<int64_t> &BaryECNs) {
    T.txUpdate(
        8 * TaryECNs.size(),
        [&](uint64_t Off) -> int64_t {
          return (Off % 8 == 0 && Off / 8 < TaryECNs.size())
                     ? TaryECNs[Off / 8]
                     : -1;
        },
        static_cast<uint32_t>(BaryECNs.size()),
        [&](uint32_t I) { return BaryECNs[I]; });
  }

  IDTables T;
};

TEST_F(TablesFixture, CheckPassesOnMatchingECN) {
  install({1, 2, 1}, {1, 2});
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);   // site 0 -> offset 0
  EXPECT_EQ(T.txCheck(0, 16), CheckResult::Pass);  // site 0 -> offset 16
  EXPECT_EQ(T.txCheck(1, 8), CheckResult::Pass);   // site 1 -> offset 8
}

TEST_F(TablesFixture, CheckECNViolation) {
  install({1, 2}, {1});
  EXPECT_EQ(T.txCheck(0, 8), CheckResult::ViolationECN);
}

TEST_F(TablesFixture, CheckInvalidTarget) {
  install({1}, {1});
  EXPECT_EQ(T.txCheck(0, 8), CheckResult::ViolationInvalid);  // no entry
  EXPECT_EQ(T.txCheck(0, 2), CheckResult::ViolationInvalid);  // misaligned
  EXPECT_EQ(T.txCheck(0, 999999), CheckResult::ViolationInvalid);
}

TEST_F(TablesFixture, MisalignedReadsNeverValid) {
  install({1, 2, 3, 4}, {1});
  for (uint64_t Off = 0; Off != 32; ++Off) {
    uint32_t ID = T.taryRead(Off);
    if (Off % 4 == 0)
      continue;
    EXPECT_FALSE(isValidID(ID)) << "offset " << Off;
  }
}

TEST_F(TablesFixture, UninstalledSiteFailsClosed) {
  install({1}, {-1});
  // Site 0 has no branch ID (0 in the table): fails closed even against
  // an all-zero target entry.
  EXPECT_EQ(T.txCheck(0, 999999), CheckResult::ViolationInvalid);
}

TEST_F(TablesFixture, VersionAdvancesAndWraps) {
  EXPECT_EQ(T.currentVersion(), 0u);
  install({1}, {1});
  EXPECT_EQ(T.currentVersion(), 1u);
  install({1}, {1});
  EXPECT_EQ(T.currentVersion(), 2u);
  EXPECT_EQ(T.updateCount(), 2u);
}

TEST_F(TablesFixture, ChecksKeepPassingAcrossUpdates) {
  install({1, 2}, {1, 2});
  for (int I = 0; I != 100; ++I) {
    install({1, 2}, {1, 2}); // same CFG, new version
    EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
    EXPECT_EQ(T.txCheck(1, 8), CheckResult::Pass);
    EXPECT_EQ(T.txCheck(0, 8), CheckResult::ViolationECN);
  }
}

//===----------------------------------------------------------------------===//
// Shrinking updates must retire stale entries (regression)
//===----------------------------------------------------------------------===//

TEST_F(TablesFixture, ShrinkingUpdateClearsStaleTaryEntries) {
  // Install a wide policy, then a narrower one. The old code left the
  // entries in [new limit, old limit) holding old-version IDs; a check
  // against such an offset then saw "valid ID, different version" and
  // retried forever in txCheckSlow (livelock) instead of reporting the
  // violation.
  install({1, 1, 1, 1, 1, 1}, {1, 1});
  EXPECT_TRUE(isValidID(T.taryRead(40)));
  install({1, 1}, {1, 1});
  // The stale range is zeroed inside the transaction...
  EXPECT_EQ(T.taryRead(40), 0u);
  EXPECT_EQ(T.taryRead(16), 0u);
  // ...so a check against a retired target terminates with a violation.
  EXPECT_EQ(T.txCheck(0, 40), CheckResult::ViolationInvalid);
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
}

TEST_F(TablesFixture, ShrinkingUpdateClearsStaleBaryEntries) {
  install({1, 1}, {1, 1, 1, 1});
  EXPECT_TRUE(isValidID(T.baryRead(3)));
  install({1, 1}, {1});
  EXPECT_EQ(T.baryRead(3), 0u);
  // A stale site index fails closed rather than spinning against the
  // new-version target.
  EXPECT_EQ(T.txCheck(3, 0), CheckResult::ViolationInvalid);
  EXPECT_EQ(T.installedBaryCount(), 1u);
  EXPECT_EQ(T.installedTaryLimitBytes(), 16u);
}

TEST_F(TablesFixture, StaleCrossVersionPairTerminates) {
  // Even when both IDs are valid but from different versions (no update
  // in flight), the slow path must conclude, not spin. Build the state
  // directly: install, then shrink the Bary side so site 1 is stale,
  // then grow it back under a *new* version so the site reads a valid
  // ID whose version differs from the target's.
  install({1, 1}, {1, 1});
  install({1, 1}, {1});      // site 1 retired
  uint64_t RetriesBefore = T.slowRetryCount();
  EXPECT_EQ(T.txCheck(1, 0), CheckResult::ViolationInvalid);
  // At quiescence the verdict takes at most one extra read pair.
  EXPECT_LE(T.slowRetryCount() - RetriesBefore, 1u);
}

TEST_F(TablesFixture, UpdateStatsCountEntriesTouched) {
  TxUpdateStats Stats;
  T.txUpdate(
      32, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; }, 4,
      [](uint32_t) -> int64_t { return 1; }, nullptr, &Stats);
  EXPECT_FALSE(Stats.Incremental);
  EXPECT_EQ(Stats.TaryWritten, 8u); // 32 bytes = 8 words
  EXPECT_EQ(Stats.BaryWritten, 4u);
  EXPECT_EQ(Stats.TaryCleared, 0u);
  EXPECT_EQ(Stats.BaryCleared, 0u);

  T.txUpdate(
      16, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; }, 2,
      [](uint32_t) -> int64_t { return 1; }, nullptr, &Stats);
  EXPECT_EQ(Stats.TaryWritten, 4u);
  EXPECT_EQ(Stats.TaryCleared, 4u); // words 4..8 retired
  EXPECT_EQ(Stats.BaryWritten, 2u);
  EXPECT_EQ(Stats.BaryCleared, 2u); // sites 2..4 retired
}

TEST(UpdateStats, EveryTransactionReportsItsOwnStats) {
  // Full, incremental and retire transactions copy their stats out
  // through one skeleton: each reports its own kind, version and entry
  // counts, and the caller-owned fields survive every one of them.
  IDTables T(64, 4);
  auto EveryOther = [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; };
  auto One = [](uint32_t) -> int64_t { return 1; };
  TxUpdateStats Stats;
  Stats.Micros = 12.5;
  Stats.BatchModules = 3;
  auto ExpectCounts = [&](uint64_t TW, uint64_t BW, uint64_t TC,
                          uint64_t BC) {
    EXPECT_EQ(Stats.TaryWritten, TW);
    EXPECT_EQ(Stats.BaryWritten, BW);
    EXPECT_EQ(Stats.TaryCleared, TC);
    EXPECT_EQ(Stats.BaryCleared, BC);
    EXPECT_DOUBLE_EQ(Stats.Micros, 12.5);
    EXPECT_EQ(Stats.BatchModules, 3u);
  };

  // Full: bumps the version and writes every entry below the limits.
  ASSERT_EQ(T.txUpdate(16, EveryOther, 2, One, nullptr, &Stats),
            TxUpdateStatus::Ok);
  EXPECT_FALSE(Stats.Incremental);
  EXPECT_EQ(Stats.Version, 1u);
  EXPECT_EQ(T.currentVersion(), 1u);
  ExpectCounts(4, 2, 0, 0);

  // Incremental: grows both tables at the current version.
  ASSERT_EQ(T.txUpdateIncremental(32, {{16, 32}}, EveryOther, 3, {2}, One,
                                  nullptr, &Stats),
            TxUpdateStatus::Ok);
  EXPECT_TRUE(Stats.Incremental);
  EXPECT_EQ(Stats.Version, 1u);
  ExpectCounts(4, 1, 0, 0); // words 4..8 (bytes 16..32), site 2
  EXPECT_EQ(T.installedTaryLimitBytes(), 32u);
  EXPECT_EQ(T.installedBaryCount(), 3u);

  // Retire: zeroes what the delta added, at the current version, and
  // leaves the installed extents alone.
  ASSERT_EQ(T.txUpdateRetire({{16, 32}}, {2}, nullptr, &Stats),
            TxUpdateStatus::Ok);
  EXPECT_TRUE(Stats.Incremental);
  EXPECT_EQ(Stats.Version, 1u);
  ExpectCounts(0, 0, 4, 1);
  EXPECT_EQ(T.installedTaryLimitBytes(), 32u);
  EXPECT_EQ(T.installedBaryCount(), 3u);
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
  EXPECT_EQ(T.txCheck(0, 16), CheckResult::ViolationInvalid);
  EXPECT_EQ(T.txCheck(2, 0), CheckResult::ViolationInvalid);
  EXPECT_EQ(T.updateCount(), 3u);
  EXPECT_EQ(T.versionedUpdateCount(), 1u);

  // A refused install has no side effects, on the stats either.
  for (uint64_t I = 1; I != MaxVersion; ++I)
    ASSERT_EQ(T.txUpdate(32, EveryOther, 3, One), TxUpdateStatus::Ok);
  Stats.Incremental = true;
  Stats.Version = 77;
  ASSERT_EQ(T.txUpdate(32, EveryOther, 3, One, nullptr, &Stats),
            TxUpdateStatus::VersionExhausted);
  EXPECT_TRUE(Stats.Incremental);
  EXPECT_EQ(Stats.Version, 77u);
  ExpectCounts(0, 0, 4, 1);
}

//===----------------------------------------------------------------------===//
// Incremental (delta) update transactions
//===----------------------------------------------------------------------===//

TEST_F(TablesFixture, IncrementalUpdateExtendsWithoutVersionBump) {
  install({1, 2}, {1, 2});
  uint32_t Version = T.currentVersion();

  // Extend: offsets 16 and 24 join classes 1 and 3; site 2 is new.
  auto TaryECN = [](uint64_t Off) -> int64_t {
    switch (Off) {
    case 0:
    case 16:
      return 1;
    case 8:
      return 2;
    case 24:
      return 3;
    default:
      return -1;
    }
  };
  TxUpdateStats Stats;
  EXPECT_EQ(T.txUpdateIncremental(
                32, {{16, 32}}, TaryECN, 3, {2},
                [](uint32_t I) -> int64_t { return I == 2 ? 3 : (I + 1); },
                nullptr, &Stats),
            TxUpdateStatus::Ok);

  EXPECT_TRUE(Stats.Incremental);
  EXPECT_EQ(Stats.TaryWritten, 4u); // words 4..8 (bytes 16..32)
  EXPECT_EQ(Stats.BaryWritten, 1u);
  EXPECT_EQ(T.currentVersion(), Version) << "no version bump on delta";

  // Old edges still pass, new edges pass, cross-class still violates.
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
  EXPECT_EQ(T.txCheck(1, 8), CheckResult::Pass);
  EXPECT_EQ(T.txCheck(0, 16), CheckResult::Pass);
  EXPECT_EQ(T.txCheck(2, 24), CheckResult::Pass);
  EXPECT_EQ(T.txCheck(2, 0), CheckResult::ViolationECN);
  EXPECT_EQ(T.txCheck(0, 24), CheckResult::ViolationECN);
}

TEST_F(TablesFixture, IncrementalUpdateDoesNotConsumeVersionSpace) {
  install({1}, {1});
  uint64_t Since = T.updatesSinceEpoch();
  for (int I = 0; I != 100; ++I) {
    uint64_t Limit = 8 + 8 * static_cast<uint64_t>(I + 1);
    EXPECT_EQ(T.txUpdateIncremental(
                  Limit, {{Limit - 8, Limit}},
                  [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; }, 1, {},
                  [](uint32_t) -> int64_t { return 1; }),
              TxUpdateStatus::Ok);
  }
  EXPECT_EQ(T.updatesSinceEpoch(), Since) << "deltas must not burn versions";
  EXPECT_EQ(T.updateCount(), 101u); // but they do count as updates
  EXPECT_EQ(T.txCheck(0, 800), CheckResult::Pass);
}

//===----------------------------------------------------------------------===//
// Linearizability under real concurrency (Sec. 5.2)
//===----------------------------------------------------------------------===//

/// While an updater thread continuously reinstalls policies, checker
/// threads verify the invariants:
///  - an edge present in *every* policy version always passes;
///  - an edge present in *no* policy version never passes.
/// Any interleaving that produced a mixed old/new observation would
/// break one of the two.
TEST(Linearizability, ConcurrentChecksAndUpdates) {
  IDTables T(4096, 64);

  // Policy A: offsets {0,8} in class 1, {16} in class 2.
  // Policy B: same shape but different ECN numbering (2 and 5).
  // Edge (site0 -> 0) and (site1 -> 16) hold in both; (site0 -> 16)
  // holds in neither.
  auto InstallA = [&] {
    T.txUpdate(
        32, [](uint64_t O) -> int64_t { return O == 16 ? 2 : (O % 8 ? -1 : 1); },
        2, [](uint32_t I) -> int64_t { return I == 0 ? 1 : 2; });
  };
  auto InstallB = [&] {
    T.txUpdate(
        32, [](uint64_t O) -> int64_t { return O == 16 ? 5 : (O % 8 ? -1 : 2); },
        2, [](uint32_t I) -> int64_t { return I == 0 ? 2 : 5; });
  };
  InstallA();

  std::atomic<bool> CheckersDone{false};
  std::atomic<uint64_t> Passes{0};
  std::atomic<int> Failures{0};
  std::atomic<int> Running{4};

  auto Checker = [&] {
    uint64_t Local = 0;
    for (int I = 0; I != 100000; ++I) {
      if (T.txCheck(0, 0) != CheckResult::Pass)
        Failures.fetch_add(1);
      if (T.txCheck(1, 16) != CheckResult::Pass)
        Failures.fetch_add(1);
      if (T.txCheck(0, 16) == CheckResult::Pass)
        Failures.fetch_add(1);
      if (T.txCheck(0, 3) != CheckResult::ViolationInvalid)
        Failures.fetch_add(1);
      Local += 4;
    }
    Passes.fetch_add(Local);
    if (Running.fetch_sub(1) == 1)
      CheckersDone.store(true);
  };

  std::vector<std::thread> Checkers;
  for (int I = 0; I != 4; ++I)
    Checkers.emplace_back(Checker);

  // Keep flipping policies for as long as the checkers run, so updates
  // genuinely race the checks.
  uint64_t Flips = 0;
  while (!CheckersDone.load(std::memory_order_relaxed)) {
    InstallB();
    InstallA();
    Flips += 2;
  }
  for (std::thread &Th : Checkers)
    Th.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(Passes.load(), 0u);
  EXPECT_GT(Flips, 0u);
}

//===----------------------------------------------------------------------===//
// Baseline schemes agree with MCFI on semantics
//===----------------------------------------------------------------------===//

template <typename Scheme> void checkBaselineSemantics() {
  Scheme S(4096, 16);
  S.update(
      32, [](uint64_t O) -> int64_t { return O == 8 ? 2 : (O % 8 ? -1 : 1); },
      2, [](uint32_t I) -> int64_t { return I == 0 ? 1 : 2; });
  EXPECT_TRUE(S.check(0, 0));
  EXPECT_TRUE(S.check(1, 8));
  EXPECT_FALSE(S.check(0, 8));
  EXPECT_FALSE(S.check(0, 4));      // misaligned
  EXPECT_FALSE(S.check(0, 100000)); // out of range
}

TEST(Baselines, TMLSemantics) { checkBaselineSemantics<TMLTables>(); }
TEST(Baselines, RWLSemantics) { checkBaselineSemantics<RWLTables>(); }
TEST(Baselines, MutexSemantics) { checkBaselineSemantics<MutexTables>(); }

TEST(Baselines, TMLConcurrentReadersSeeConsistentState) {
  TMLTables S(4096, 16);
  auto A = [&] {
    S.update(
        16, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; }, 1,
        [](uint32_t) -> int64_t { return 1; });
  };
  A();
  std::atomic<bool> Stop{false};
  std::atomic<int> Failures{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed))
      if (!S.check(0, 0))
        Failures.fetch_add(1);
  });
  for (int I = 0; I != 2000; ++I)
    A();
  Stop.store(true);
  Reader.join();
  EXPECT_EQ(Failures.load(), 0);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// ABA mitigation and version wraparound (Sec. 5.2)
//===----------------------------------------------------------------------===//

TEST(ABA, VersionWrapsAndChecksStayCorrect) {
  IDTables T(256, 8);
  auto Install = [&] {
    return T.txUpdate(
        64, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 3; }, 1,
        [](uint32_t) -> int64_t { return 3; });
  };
  // Drive the 14-bit version space all the way around (16384+), with
  // epoch resets standing in for the runtime's quiescence points once
  // the space runs low: every check must keep passing and the
  // invalid/mismatch verdicts must stay stable.
  for (int I = 0; I != static_cast<int>(MaxVersion) + 10; ++I) {
    if (T.versionSpaceLow())
      T.resetVersionEpoch(); // no checks in flight here: quiescent
    EXPECT_EQ(Install(), TxUpdateStatus::Ok);
    if (I % 1024 == 0) {
      EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
      EXPECT_EQ(T.txCheck(0, 4), CheckResult::ViolationInvalid);
    }
  }
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
  EXPECT_GT(T.updateCount(), static_cast<uint64_t>(MaxVersion));
}

TEST(ABA, UpdateRefusesToWrapWithoutQuiescence) {
  IDTables T(64, 2);
  auto Install = [&] {
    return T.txUpdate(
        8, [](uint64_t) -> int64_t { return 1; }, 1,
        [](uint32_t) -> int64_t { return 1; });
  };
  // Exhaust the version space without ever declaring quiescence.
  for (uint64_t I = 0; I != MaxVersion; ++I)
    ASSERT_EQ(Install(), TxUpdateStatus::Ok);
  uint32_t Version = T.currentVersion();
  uint64_t Count = T.updateCount();
  // The next bump would re-enter used version space: it must fail
  // loudly and leave no trace, not wrap silently (the old behaviour).
  EXPECT_EQ(Install(), TxUpdateStatus::VersionExhausted);
  EXPECT_EQ(T.currentVersion(), Version);
  EXPECT_EQ(T.updateCount(), Count);
  EXPECT_EQ(T.txCheck(0, 0), CheckResult::Pass);
  // After a quiescence point the transaction goes through again.
  T.resetVersionEpoch();
  EXPECT_EQ(Install(), TxUpdateStatus::Ok);
  EXPECT_EQ(T.updateCount(), Count + 1);
}

TEST(ABA, EpochCounterDetectsExhaustion) {
  IDTables T(64, 2);
  auto Install = [&] {
    T.txUpdate(
        8, [](uint64_t) -> int64_t { return 1; }, 1,
        [](uint32_t) -> int64_t { return 1; });
  };
  EXPECT_FALSE(T.versionSpaceLow());
  for (uint64_t I = 0; I != MaxVersion; ++I)
    Install();
  EXPECT_TRUE(T.versionSpaceLow());
  // A quiescence point (all threads at a syscall) resets the epoch.
  T.resetVersionEpoch();
  EXPECT_FALSE(T.versionSpaceLow());
  EXPECT_EQ(T.updatesSinceEpoch(), 0u);
  Install();
  EXPECT_EQ(T.updatesSinceEpoch(), 1u);
}

//===----------------------------------------------------------------------===//
// txUpdateIncremental preconditions (debug asserts)
//===----------------------------------------------------------------------===//

/// Delta installation is only sound for grow-only, already-installed-
/// entries-unchanged updates; everything else must take the full
/// rebuild path. The preconditions are asserted, so misuse dies in
/// debug builds instead of silently producing torn tables.
class IncrementalDeathTest : public ::testing::Test {
protected:
  IncrementalDeathTest() : T(256, 8) {
    T.txUpdate(
        32, [](uint64_t O) -> int64_t { return O % 8 ? -1 : 1; }, 2,
        [](uint32_t) -> int64_t { return 1; });
  }

  static int64_t taryEven8(uint64_t O) { return O % 8 ? -1 : 1; }
  static int64_t baryOne(uint32_t) { return 1; }

  IDTables T;
};

TEST_F(IncrementalDeathTest, RefusesToShrinkTary) {
  EXPECT_DEATH(T.txUpdateIncremental(16, {}, taryEven8, 2, {}, baryOne),
               "incremental update may not shrink the Tary table");
}

TEST_F(IncrementalDeathTest, RefusesToShrinkBary) {
  EXPECT_DEATH(T.txUpdateIncremental(32, {}, taryEven8, 1, {}, baryOne),
               "incremental update may not shrink the Bary table");
}

TEST_F(IncrementalDeathTest, RefusesDirtyRangePastTaryLimit) {
  EXPECT_DEATH(
      T.txUpdateIncremental(40, {{40, 48}}, taryEven8, 2, {}, baryOne),
      "dirty range past the new Tary limit");
}

TEST_F(IncrementalDeathTest, RefusesToChangeInstalledTaryEntry) {
  // Offset 8 is installed as class 1; a delta re-encoding it as class 2
  // would flip an entry readers already rely on, mid-flight.
  EXPECT_DEATH(T.txUpdateIncremental(
                   32, {{8, 16}},
                   [](uint64_t O) -> int64_t { return O % 8 ? -1 : 2; }, 2, {},
                   baryOne),
               "incremental update would change an installed Tary entry");
}

TEST_F(IncrementalDeathTest, RefusesDirtySitePastBaryCount) {
  EXPECT_DEATH(T.txUpdateIncremental(32, {}, taryEven8, 3, {3}, baryOne),
               "dirty site past the new Bary count");
}

TEST_F(IncrementalDeathTest, RefusesToRewriteInstalledBarySite) {
  EXPECT_DEATH(T.txUpdateIncremental(32, {}, taryEven8, 3, {1}, baryOne),
               "incremental update would rewrite an installed Bary site");
}

TEST_F(IncrementalDeathTest, AcceptsGrowOnlyDelta) {
  // Sanity guard for the fixture itself: a legal grow-only delta (new
  // Tary range, new Bary site) goes through without dying.
  EXPECT_EQ(T.txUpdateIncremental(40, {{32, 40}}, taryEven8, 3, {2}, baryOne),
            TxUpdateStatus::Ok);
  EXPECT_EQ(T.txCheck(2, 32), CheckResult::Pass);
}

} // namespace
