//===- tests/SchedCheckTest.cpp - Deterministic schedule checker ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests for the src/schedcheck subsystem itself, plus the deterministic
// regressions ISSUE 3 asks for: exhaustive exploration of the six
// transaction scenarios, mutant torn-read detection with schedule
// replay, and the PR-1 stale-ID livelock interleaving. This binary
// links mcfi_tables_sched (via mcfi_schedcheck), never mcfi_tables, so
// it stays off the mcfi_test() helper.
//
//===----------------------------------------------------------------------===//

#include "schedcheck/SchedCheck.h"

#include "tables/ID.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::schedcheck;

namespace {

//===----------------------------------------------------------------------===//
// Oracle soundness: the sequential spec must agree with the real tables
// evaluated without concurrency.
//===----------------------------------------------------------------------===//

TEST(SchedOracle, SpecMatchesQuiescentTables) {
  for (const Scenario &S : builtinScenarios()) {
    IDTables Tables(S.CodeCapacity, S.BaryCapacity);
    const SpecPolicy &P = S.Initial;
    auto GetTary = [&P](uint64_t Off) -> int64_t {
      auto It = P.TaryECN.find(Off);
      return It == P.TaryECN.end() ? -1 : int64_t(It->second);
    };
    auto GetBary = [&P](uint32_t Site) -> int64_t {
      auto It = P.BaryECN.find(Site);
      return It == P.BaryECN.end() ? -1 : int64_t(It->second);
    };
    ASSERT_EQ(Tables.txUpdate(P.TaryLimitBytes, GetTary, P.BaryCount, GetBary),
              TxUpdateStatus::Ok);
    // Every site/target pair the scenario's checkers probe, plus a sweep
    // of all aligned offsets, must produce the spec's verdict.
    for (uint32_t Site = 0; Site < S.BaryCapacity; ++Site)
      for (uint64_t Off = 0; Off < S.CodeCapacity; Off += 4)
        EXPECT_EQ(Tables.txCheck(Site, Off), evalCheck(P, Site, Off))
            << S.Name << " site=" << Site << " target=" << Off;
    for (const auto &Script : S.Checkers)
      for (const CheckOp &Op : Script)
        EXPECT_EQ(Tables.txCheck(Op.Site, Op.Target),
                  evalCheck(P, Op.Site, Op.Target))
            << S.Name << " site=" << Op.Site << " target=" << Op.Target;
  }
}

TEST(SchedOracle, MisalignedTargetsAlwaysInvalid) {
  const Scenario *S = findScenario("full");
  ASSERT_NE(S, nullptr);
  for (uint64_t Off = 1; Off < 24; ++Off) {
    if (Off & 3) {
      EXPECT_EQ(evalCheck(S->Initial, 0, Off), CheckResult::ViolationInvalid);
    }
  }
}

//===----------------------------------------------------------------------===//
// Acceptance: exhaustive DFS (preemption bound 2, two checkers + one
// updater) passes the oracle on all six scenarios, untruncated.
//===----------------------------------------------------------------------===//

class SchedScenario : public ::testing::TestWithParam<const char *> {};

TEST_P(SchedScenario, ExhaustivePassesOracle) {
  const Scenario *S = findScenario(GetParam());
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->Checkers.size(), 2u) << "acceptance demands 2 checkers";
  ExploreOptions Opts;
  Opts.PreemptionBound = 2;
  ExploreReport R = exploreExhaustive(*S, Opts);
  EXPECT_FALSE(R.Truncated) << "exploration hit MaxSchedules: proves nothing";
  EXPECT_TRUE(R.Violations.empty())
      << R.Violations.front().Message
      << "\nreplay: " << R.Violations.front().Schedule;
  // An exploration that degenerated to a handful of schedules would pass
  // vacuously; every scenario has hundreds of distinct interleavings.
  EXPECT_GT(R.Schedules, 100u);
}

TEST_P(SchedScenario, RandomWalksPassOracle) {
  const Scenario *S = findScenario(GetParam());
  ASSERT_NE(S, nullptr);
  ExploreReport R = exploreRandom(*S, 10000, 1);
  EXPECT_TRUE(R.Violations.empty())
      << R.Violations.front().Message
      << "\nreplay: " << R.Violations.front().Schedule;
  EXPECT_EQ(R.Schedules, 10000u);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SchedScenario,
                         ::testing::Values("full", "incremental", "shrink",
                                           "wrap", "backtoback", "batch",
                                           "unload"));

//===----------------------------------------------------------------------===//
// Acceptance: the test-only mutant reordering the Tary->barrier->Bary
// stores must be reported as a torn read with a replayable schedule.
//===----------------------------------------------------------------------===//

TEST(SchedMutant, PhaseReorderIsDetectedAndReplayable) {
  const Scenario *S = findScenario("incremental");
  ASSERT_NE(S, nullptr);
  ExploreOptions Opts;
  Opts.MutantReorderPhases = true;
  ExploreReport R = exploreExhaustive(*S, Opts);
  ASSERT_FALSE(R.Violations.empty())
      << "mutant phase order must produce a torn observation";
  const Violation &V = R.Violations.front();
  EXPECT_EQ(V.Kind, ViolationKind::TornObservation) << V.Message;
  ASSERT_FALSE(V.Schedule.empty());
  EXPECT_FALSE(V.Trace.empty());

  // The schedule must replay deterministically to the same violation.
  RunRecord Replay = runSchedule(*S, V.Schedule, Opts);
  ASSERT_TRUE(Replay.Violated);
  EXPECT_EQ(Replay.Fault.Kind, ViolationKind::TornObservation);
  EXPECT_EQ(Replay.Fault.Message, V.Message);
  EXPECT_EQ(Replay.Fault.Schedule, V.Schedule);

  // And minimization must yield a (no longer) prefix that still fails.
  std::string Min = minimizeSchedule(*S, V.Schedule, Opts);
  EXPECT_LE(parseSchedule(Min).size(), parseSchedule(V.Schedule).size());
  RunRecord MinRun = runSchedule(*S, Min, Opts);
  ASSERT_TRUE(MinRun.Violated);
  EXPECT_EQ(MinRun.Fault.Kind, ViolationKind::TornObservation);
}

TEST(SchedMutant, TornBatchIsDetectedAndReplayable) {
  // The batch scenario's sentinel: under the phase-reorder mutant, the
  // second module's Bary site becomes visible before the first module's
  // Tary entry, so a checker can Pass through module B's site (frontier
  // advances to the post-batch policy) and then read module A's
  // still-empty Tary slot — a torn batch, observable exactly because
  // the coalesced install claims to be a single linearization point.
  const Scenario *S = findScenario("batch");
  ASSERT_NE(S, nullptr);
  ExploreOptions Opts;
  Opts.MutantReorderPhases = true;
  ExploreReport R = exploreExhaustive(*S, Opts);
  ASSERT_FALSE(R.Violations.empty())
      << "torn batch order must produce a torn observation";
  const Violation &V = R.Violations.front();
  EXPECT_EQ(V.Kind, ViolationKind::TornObservation) << V.Message;
  ASSERT_FALSE(V.Schedule.empty());

  // Replay is deterministic, and the same schedule is clean without the
  // mutant (the sentinel discriminates the store orders).
  RunRecord Replay = runSchedule(*S, V.Schedule, Opts);
  ASSERT_TRUE(Replay.Violated);
  EXPECT_EQ(Replay.Fault.Kind, ViolationKind::TornObservation);
  RunRecord Clean = runSchedule(*S, V.Schedule);
  EXPECT_FALSE(Clean.Violated) << Clean.Fault.Message;
}

TEST(SchedMutant, CorrectOrderHasNoTornReadOnSentinelSchedule) {
  // The exact schedule that kills the mutant must be clean when the
  // store order is correct: the sentinel discriminates the orders.
  const Scenario *S = findScenario("incremental");
  ASSERT_NE(S, nullptr);
  ExploreOptions Mutant;
  Mutant.MutantReorderPhases = true;
  ExploreReport R = exploreExhaustive(*S, Mutant);
  ASSERT_FALSE(R.Violations.empty());
  RunRecord Clean = runSchedule(*S, R.Violations.front().Schedule);
  EXPECT_FALSE(Clean.Violated) << Clean.Fault.Message;
}

//===----------------------------------------------------------------------===//
// Unload: the dlclose retire + grace-gated range-reuse scenario. The
// grace wait is what makes the dlclose/dlopen ABA unobservable; the
// skip-grace mutant removes it and must be caught as a torn Pass on the
// sentinel edge (retired module's site vs reuse module's target).
//===----------------------------------------------------------------------===//

TEST(SchedUnload, SkipGraceMutantIsCaughtAsUseAfterRetire) {
  const Scenario *S = findScenario("unload");
  ASSERT_NE(S, nullptr);
  ExploreOptions Opts;
  Opts.MutantSkipGrace = true;
  ExploreReport R = exploreExhaustive(*S, Opts);
  ASSERT_FALSE(R.Violations.empty())
      << "skipping the grace period must surface the unload ABA";
  const Violation &V = R.Violations.front();
  EXPECT_EQ(V.Kind, ViolationKind::TornObservation) << V.Message;
  // The torn op is the sentinel: the retired module's Bary site passing
  // against the reuse module's Tary entry — an edge no policy allows.
  EXPECT_NE(V.Message.find("site=1"), std::string::npos) << V.Message;
  EXPECT_NE(V.Message.find("target=28"), std::string::npos) << V.Message;
  EXPECT_NE(V.Message.find("Pass"), std::string::npos) << V.Message;

  // Deterministic replay; and with the grace period honoured the
  // killing schedule is not merely clean but *infeasible* — it demands
  // the updater run at a point where the grace gate parks it (the only
  // acceptable replay outcomes are a clean run or that harness report,
  // never a torn observation).
  RunRecord Replay = runSchedule(*S, V.Schedule, Opts);
  ASSERT_TRUE(Replay.Violated);
  EXPECT_EQ(Replay.Fault.Kind, ViolationKind::TornObservation);
  EXPECT_EQ(Replay.Fault.Message, V.Message);
  RunRecord Clean = runSchedule(*S, V.Schedule);
  if (Clean.Violated) {
    EXPECT_EQ(Clean.Fault.Kind, ViolationKind::Harness)
        << Clean.Fault.Message;
    EXPECT_NE(Clean.Fault.Message.find("not runnable"), std::string::npos)
        << Clean.Fault.Message;
  }
}

TEST(SchedUnload, GraceWaitParksUpdaterUntilCheckersQuiesce) {
  // With grace honoured, every schedule is clean AND the reuse update
  // still completes (the updater is parked, not deadlocked): both
  // updates must report Ok on a straight-through schedule.
  const Scenario *S = findScenario("unload");
  ASSERT_NE(S, nullptr);
  RunRecord R = runSchedule(*S, "");
  EXPECT_FALSE(R.Violated) << R.Fault.Message;
  ASSERT_EQ(R.UpdateStatuses.size(), 2u);
  EXPECT_EQ(R.UpdateStatuses[0], TxUpdateStatus::Ok);
  EXPECT_EQ(R.UpdateStatuses[1], TxUpdateStatus::Ok);
  // Every checker op linearizes against some policy in its window.
  for (const OpRecord &C : R.Checks)
    EXPECT_LE(C.AssignedPolicy, 2u);
}

//===----------------------------------------------------------------------===//
// Satellite: deterministic replay of the PR-1 stale-ID livelock
// interleaving. Pre-fix, a checker probing a retired target after a
// shrinking update spun forever in txCheckSlow (stale old-version ID
// against a new-version branch ID looked like an update forever in
// flight). The fixed protocol zeroes the stale range and the seqlock
// bound resolves the check in one pass: ViolationInvalid, zero retries.
//===----------------------------------------------------------------------===//

TEST(SchedRegression, StaleIDLivelockInterleavingTerminates) {
  const Scenario *S = findScenario("shrink");
  ASSERT_NE(S, nullptr);
  // Forced step 0 runs the updater; the default policy then drives the
  // shrinking update to completion before any checker starts — exactly
  // the post-update probe of the retired range that used to livelock.
  RunRecord R = runSchedule(*S, "0");
  ASSERT_FALSE(R.Violated) << R.Fault.Message;
  ASSERT_EQ(R.UpdateStatuses.size(), 1u);
  EXPECT_EQ(R.UpdateStatuses[0], TxUpdateStatus::Ok);
  bool SawRetiredProbe = false;
  for (const OpRecord &C : R.Checks) {
    // Every check in this serialized schedule resolves against the
    // post-shrink policy without a single seqlock retry.
    EXPECT_EQ(C.Retries, 0u) << "txCheckSlow must terminate in one pass";
    EXPECT_EQ(C.AssignedPolicy, 1u);
    if (C.Target >= 16) {
      SawRetiredProbe = true;
      EXPECT_EQ(C.Result, CheckResult::ViolationInvalid)
          << "retired target must fail closed, not livelock";
    }
  }
  EXPECT_TRUE(SawRetiredProbe);

  // Determinism: replaying the full recorded schedule reproduces the
  // identical run.
  RunRecord Again = runSchedule(*S, R.Schedule);
  ASSERT_FALSE(Again.Violated);
  EXPECT_EQ(Again.Schedule, R.Schedule);
  ASSERT_EQ(Again.Checks.size(), R.Checks.size());
  for (size_t I = 0; I < R.Checks.size(); ++I) {
    EXPECT_EQ(Again.Checks[I].Result, R.Checks[I].Result);
    EXPECT_EQ(Again.Checks[I].Retries, R.Checks[I].Retries);
  }
}

//===----------------------------------------------------------------------===//
// Version-wrap scenario details beyond the oracle: statuses and the
// wrapped version must come out exactly as scripted.
//===----------------------------------------------------------------------===//

TEST(SchedWrap, StatusesFollowExhaustionAndQuiescence) {
  const Scenario *S = findScenario("wrap");
  ASSERT_NE(S, nullptr);
  RunRecord R = runSchedule(*S, "0"); // serialize: updater first
  ASSERT_FALSE(R.Violated) << R.Fault.Message;
  ASSERT_EQ(R.UpdateStatuses.size(), 3u);
  EXPECT_EQ(R.UpdateStatuses[0], TxUpdateStatus::Ok);
  EXPECT_EQ(R.UpdateStatuses[1], TxUpdateStatus::VersionExhausted);
  EXPECT_EQ(R.UpdateStatuses[2], TxUpdateStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Harness plumbing: schedule strings, determinism of random walks, and
// rejection of schedules that desynchronize from the run.
//===----------------------------------------------------------------------===//

TEST(SchedHarness, ScheduleStringsRoundTrip) {
  std::vector<int> Choices = {0, 0, 2, 1, 0, 2};
  EXPECT_EQ(formatSchedule(Choices), "0,0,2,1,0,2");
  EXPECT_EQ(parseSchedule("0,0,2,1,0,2"), Choices);
  EXPECT_EQ(parseSchedule(" 0, 1 ,2 "), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(parseSchedule("").empty());
}

TEST(SchedHarness, RandomWalksAreSeedDeterministic) {
  const Scenario *S = findScenario("backtoback");
  ASSERT_NE(S, nullptr);
  ExploreReport A = exploreRandom(*S, 50, 42);
  ExploreReport B = exploreRandom(*S, 50, 42);
  EXPECT_EQ(A.Decisions, B.Decisions);
  EXPECT_EQ(A.Violations.size(), B.Violations.size());
  ExploreReport C = exploreRandom(*S, 50, 43);
  // Different seed, different walks (decision totals almost surely
  // differ; equality would indicate the seed is ignored).
  EXPECT_NE(A.Decisions, C.Decisions);
}

TEST(SchedHarness, InvalidScheduleIsReportedNotExecuted) {
  const Scenario *S = findScenario("full");
  ASSERT_NE(S, nullptr);
  RunRecord R = runSchedule(*S, "7");
  ASSERT_TRUE(R.Violated);
  EXPECT_EQ(R.Fault.Kind, ViolationKind::Harness);
  RunRecord Junk = runSchedule(*S, "0,banana,0");
  ASSERT_TRUE(Junk.Violated);
  EXPECT_EQ(Junk.Fault.Kind, ViolationKind::Harness);
}

TEST(SchedHarness, ExplorationCountsAreDeterministic) {
  const Scenario *S = findScenario("full");
  ASSERT_NE(S, nullptr);
  ExploreReport A = exploreExhaustive(*S);
  ExploreReport B = exploreExhaustive(*S);
  EXPECT_EQ(A.Schedules, B.Schedules);
  EXPECT_EQ(A.Decisions, B.Decisions);
  EXPECT_EQ(A.PrunedStates, B.PrunedStates);
}

TEST(SchedHarness, TruncationIsReportedLoudly) {
  const Scenario *S = findScenario("full");
  ASSERT_NE(S, nullptr);
  ExploreOptions Opts;
  Opts.MaxSchedules = 10;
  ExploreReport R = exploreExhaustive(*S, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.Schedules, 10u);
}

//===----------------------------------------------------------------------===//
// The updateInFlight() accessor (satellite: explicit-ordering reads for
// harness-visible counters) pairs with the seqlock bracket.
//===----------------------------------------------------------------------===//

TEST(SchedHarness, UpdateInFlightTracksSeqlockParity) {
  IDTables Tables(32, 4);
  EXPECT_FALSE(Tables.updateInFlight());
  bool SawInFlight = false;
  auto GetTary = [](uint64_t Off) -> int64_t { return Off == 0 ? 1 : -1; };
  auto GetBary = [](uint32_t) -> int64_t { return 1; };
  ASSERT_EQ(Tables.txUpdate(16, GetTary, 1, GetBary,
                            [&] { SawInFlight = Tables.updateInFlight(); }),
            TxUpdateStatus::Ok);
  EXPECT_TRUE(SawInFlight) << "between-tables hook runs inside the bracket";
  EXPECT_FALSE(Tables.updateInFlight());
}

} // namespace
