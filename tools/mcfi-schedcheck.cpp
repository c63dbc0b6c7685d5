//===- tools/mcfi-schedcheck.cpp - Schedule-exploration CLI ---------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the deterministic transaction-layer schedule
// checker (src/schedcheck). Exhaustively explores the built-in scenarios
// under a preemption bound, runs seeded random walks, replays a recorded
// schedule, and minimizes failing schedules. Exits nonzero when any
// violation is found. The CI gate is the sched_check ctest, the same
// explorations as gtest cases in tests/SchedCheckTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "schedcheck/SchedCheck.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace mcfi;
using namespace mcfi::schedcheck;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: mcfi-schedcheck [options]\n"
      "  --list                 list built-in scenarios\n"
      "  --scenario NAME        scenario to check (default: all)\n"
      "  --exhaustive           exhaustive DFS (default mode)\n"
      "  --bound N              preemption bound for DFS (default 2)\n"
      "  --random N             run N seeded random walks instead of DFS\n"
      "  --seed S               base seed for --random (default 1)\n"
      "  --replay SCHED         replay one schedule (comma-separated)\n"
      "  --minimize SCHED       minimize a failing schedule, then exit\n"
      "  --mutant               enable the Bary-before-Tary phase mutant\n"
      "  --mutant-skip-grace    enable the skip-grace mutant (unload ABA)\n"
      "  --max-schedules N      DFS schedule cap (default 500000)\n"
      "  --keep-going           report all violations, not just the first\n"
      "  --trace                print the event trace of violations\n");
}

void printViolation(const Violation &V, bool WithTrace) {
  std::printf("  VIOLATION [%s]: %s\n", violationKindName(V.Kind),
              V.Message.c_str());
  std::printf("  replay with: --replay '%s'\n", V.Schedule.c_str());
  if (WithTrace && !V.Trace.empty())
    std::printf("%s", V.Trace.c_str());
}

struct Options {
  std::string ScenarioName;
  std::string Replay;
  std::string Minimize;
  uint64_t RandomWalks = 0;
  uint64_t Seed = 1;
  bool List = false;
  bool Trace = false;
  ExploreOptions Explore;
};

int runScenario(const Scenario &S, const Options &Opt) {
  if (!Opt.Minimize.empty()) {
    std::string Min = minimizeSchedule(S, Opt.Minimize, Opt.Explore);
    RunRecord R = runSchedule(S, Min, Opt.Explore);
    std::printf("scenario %-12s minimized schedule: '%s' (%zu of %zu steps)\n",
                S.Name.c_str(), Min.c_str(), parseSchedule(Min).size(),
                parseSchedule(Opt.Minimize).size());
    if (R.Violated)
      printViolation(R.Fault, Opt.Trace);
    else
      std::printf("  (no violation reproduced; original returned)\n");
    return R.Violated ? 1 : 0;
  }

  if (!Opt.Replay.empty()) {
    RunRecord R = runSchedule(S, Opt.Replay, Opt.Explore);
    std::printf("scenario %-12s replay of %zu forced steps: %s\n",
                S.Name.c_str(), parseSchedule(Opt.Replay).size(),
                R.Violated ? "VIOLATION" : "ok");
    for (const OpRecord &C : R.Checks)
      std::printf("  t%d txCheck(%u, %llu) -> %s  lin=%zu window=[%zu,%zu] "
                  "retries=%llu\n",
                  C.Thread, C.Site, (unsigned long long)C.Target,
                  checkResultName(C.Result), C.AssignedPolicy, C.WindowLo,
                  C.WindowHi, (unsigned long long)C.Retries);
    if (R.Violated)
      printViolation(R.Fault, Opt.Trace);
    return R.Violated ? 1 : 0;
  }

  ExploreReport Report;
  if (Opt.RandomWalks) {
    Report = exploreRandom(S, Opt.RandomWalks, Opt.Seed, Opt.Explore);
    std::printf("scenario %-12s random: %llu walks, %llu decisions, "
                "%zu violation(s)\n",
                S.Name.c_str(), (unsigned long long)Report.Schedules,
                (unsigned long long)Report.Decisions,
                Report.Violations.size());
  } else {
    Report = exploreExhaustive(S, Opt.Explore);
    std::printf("scenario %-12s exhaustive(bound=%d): %llu schedules, "
                "%llu decisions, %llu pruned, %zu violation(s)%s\n",
                S.Name.c_str(), Opt.Explore.PreemptionBound,
                (unsigned long long)Report.Schedules,
                (unsigned long long)Report.Decisions,
                (unsigned long long)Report.PrunedStates,
                Report.Violations.size(),
                Report.Truncated ? " [TRUNCATED at --max-schedules]" : "");
  }
  for (const Violation &V : Report.Violations)
    printViolation(V, Opt.Trace);
  // A truncated exploration proved nothing: fail loudly rather than
  // letting a silently capped run read as "all schedules pass".
  return (!Report.Violations.empty() || Report.Truncated) ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "mcfi-schedcheck: %s requires an argument\n",
                     Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--list")
      Opt.List = true;
    else if (Arg == "--scenario")
      Opt.ScenarioName = Next();
    else if (Arg == "--exhaustive")
      Opt.RandomWalks = 0;
    else if (Arg == "--bound")
      Opt.Explore.PreemptionBound = std::atoi(Next());
    else if (Arg == "--random")
      Opt.RandomWalks = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--seed")
      Opt.Seed = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--replay")
      Opt.Replay = Next();
    else if (Arg == "--minimize")
      Opt.Minimize = Next();
    else if (Arg == "--mutant")
      Opt.Explore.MutantReorderPhases = true;
    else if (Arg == "--mutant-skip-grace")
      Opt.Explore.MutantSkipGrace = true;
    else if (Arg == "--max-schedules")
      Opt.Explore.MaxSchedules = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--keep-going")
      Opt.Explore.StopAtFirstViolation = false;
    else if (Arg == "--trace")
      Opt.Trace = true;
    else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "mcfi-schedcheck: unknown option '%s'\n",
                   Arg.c_str());
      printUsage();
      return 2;
    }
  }

  if (Opt.List) {
    for (const Scenario &S : builtinScenarios())
      std::printf("%-12s %zu updates, %zu checkers: %s\n", S.Name.c_str(),
                  S.Updates.size(), S.Checkers.size(), S.Summary.c_str());
    return 0;
  }

  if ((!Opt.Replay.empty() || !Opt.Minimize.empty()) &&
      Opt.ScenarioName.empty()) {
    std::fprintf(stderr,
                 "mcfi-schedcheck: --replay/--minimize require --scenario\n");
    return 2;
  }

  std::vector<const Scenario *> Selected;
  if (Opt.ScenarioName.empty() || Opt.ScenarioName == "all") {
    for (const Scenario &S : builtinScenarios())
      Selected.push_back(&S);
  } else {
    const Scenario *S = findScenario(Opt.ScenarioName);
    if (!S) {
      std::fprintf(stderr, "mcfi-schedcheck: no scenario named '%s'\n",
                   Opt.ScenarioName.c_str());
      return 2;
    }
    Selected.push_back(S);
  }

  int Exit = 0;
  for (const Scenario *S : Selected)
    Exit |= runScenario(*S, Opt);
  return Exit;
}
