//===- schedcheck/Scenarios.cpp - Built-in transaction scenarios ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The seven transaction-layer races the checker covers: the five ISSUE 3
// requires, the coalesced multi-dlopen batch installation, and the
// dlclose retire / grace-gated reuse race.
// Scenarios are deliberately tiny (a few Tary words, two checker threads,
// two or three ops each): exhaustive exploration cost is exponential in
// the number of scheduling points, and every behavior of the transaction
// protocol — version bumps, delta installs, shrink zeroing, wrap refusal
// — already manifests at this scale.
//
//===----------------------------------------------------------------------===//

#include "schedcheck/SchedCheck.h"

#include "tables/ID.h"

using namespace mcfi;
using namespace mcfi::schedcheck;

namespace {

std::vector<Scenario> makeScenarios() {
  std::vector<Scenario> Out;

  {
    // Full txUpdate racing concurrent checks: the version-bump protocol.
    // The update re-encodes every entry with a new version and changes
    // offset 8 from class 1 to class 2, so checks of (0, 8) must resolve
    // to Pass (old) or ViolationECN (new), never anything else.
    Scenario S;
    S.Name = "full";
    S.Summary = "full txUpdate (version bump, ECN change) vs checks";
    S.CodeCapacity = 64;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 24;
    S.Initial.TaryECN = {{0, 1}, {8, 1}, {16, 2}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1 = S.Initial;
    P1.TaryECN[8] = 2;
    S.Updates = {P1};
    S.Checkers = {
        {{0, 0}, {0, 8}, {1, 8}},
        // (0, 2) is misaligned: invalid under every policy, and its
        // synthesized word exercises the two-entry Tary read mid-update.
        {{1, 16}, {0, 8}, {0, 2}},
    };
    Out.push_back(std::move(S));
  }

  {
    // txUpdateIncremental racing checks: the delta adds Tary entry 24
    // and Bary site 2 at the *same* version. Checker 1's script is the
    // phase-order sentinel: a Pass at (2, 0) — new site against the
    // shared target 0, same class — proves Bary site 2 is installed,
    // which under the Tary-first store order implies target 24 is
    // installed too. The mutant order breaks exactly this: (2, 0) can
    // Pass (advancing the real-time frontier to the new policy) while
    // (2, 24) still reads an empty Tary slot and reports
    // ViolationInvalid, which only the old policy explains — a torn
    // observation.
    Scenario S;
    S.Name = "incremental";
    S.Summary = "txUpdateIncremental (grow-only delta) vs checks";
    S.CodeCapacity = 64;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 24;
    S.Initial.TaryECN = {{0, 1}, {16, 2}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1 = S.Initial;
    P1.Incremental = true;
    P1.TaryLimitBytes = 32;
    P1.TaryECN[24] = 1;
    P1.BaryCount = 3;
    P1.BaryECN[2] = 1;
    P1.TaryDirty = {{24, 32}};
    P1.BaryDirty = {2};
    S.Updates = {P1};
    S.Checkers = {
        {{2, 0}, {2, 24}},
        {{0, 24}, {0, 0}, {2, 16}},
    };
    Out.push_back(std::move(S));
  }

  {
    // Shrinking full update: the Tary limit drops from 32 to 16 bytes,
    // so entries 16 and 24 must be zeroed (stale-range zeroing). The
    // serialized schedule "0" on this scenario replays the PR-1
    // stale-ID interleaving: a check of a retired target after the
    // shrink must terminate as ViolationInvalid without any seqlock
    // retries instead of livelocking.
    Scenario S;
    S.Name = "shrink";
    S.Summary = "shrinking txUpdate (stale-range zeroing) vs checks";
    S.CodeCapacity = 64;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 32;
    S.Initial.TaryECN = {{0, 1}, {8, 1}, {16, 2}, {24, 1}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1;
    P1.TaryLimitBytes = 16;
    P1.TaryECN = {{0, 1}, {8, 1}};
    P1.BaryCount = 2;
    P1.BaryECN = {{0, 1}, {1, 2}};
    S.Updates = {P1};
    S.Checkers = {
        {{1, 16}, {0, 24}},
        {{0, 0}, {1, 16}},
    };
    Out.push_back(std::move(S));
  }

  {
    // Version wrap at MaxVersion: the version space is pre-aged so the
    // first update lands exactly on the boundary, the second must be
    // refused with VersionExhausted (and leave no trace in the
    // linearization order), and after a quiescence-point epoch reset the
    // third succeeds with the version wrapping to 0.
    Scenario S;
    S.Name = "wrap";
    S.Summary = "VersionExhausted refusal and post-quiescence wrap to 0";
    S.CodeCapacity = 16;
    S.BaryCapacity = 8;
    S.ForceVersionedUpdates = MaxVersion - 2;
    S.Initial.TaryLimitBytes = 16;
    S.Initial.TaryECN = {{0, 1}, {8, 2}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1 = S.Initial;
    P1.TaryECN[8] = 1;
    SpecPolicy P2 = S.Initial;
    P2.TaryECN[0] = 2;
    P2.ExpectExhausted = true;
    SpecPolicy P3 = S.Initial;
    P3.TaryECN = {{0, 2}, {8, 2}};
    P3.QuiesceBefore = true;
    S.Updates = {P1, P2, P3};
    S.Checkers = {
        {{0, 8}, {0, 0}},
        {{1, 8}, {1, 0}},
    };
    Out.push_back(std::move(S));
  }

  {
    // Back-to-back updates racing one checker mid-script: the second
    // update grows the table while checks from the first window are
    // still completing, so windows spanning two linearization steps are
    // exercised.
    Scenario S;
    S.Name = "backtoback";
    S.Summary = "two consecutive full updates racing in-flight checks";
    S.CodeCapacity = 32;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 16;
    S.Initial.TaryECN = {{0, 1}, {8, 2}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1 = S.Initial;
    P1.TaryECN[8] = 1;
    SpecPolicy P2;
    P2.TaryLimitBytes = 24;
    P2.TaryECN = {{0, 1}, {8, 2}, {16, 1}};
    P2.BaryCount = 2;
    P2.BaryECN = {{0, 1}, {1, 2}};
    S.Updates = {P1, P2};
    S.Checkers = {
        {{0, 8}, {0, 16}},
        {{1, 8}, {0, 0}},
    };
    Out.push_back(std::move(S));
  }

  {
    // Batch install: the linker installs a two-module dlopenBatch
    // (module A at Tary 24 / Bary 2, module B at Tary 32 / Bary 3) into
    // ONE incremental delta — one SpecPolicy, one linearization point.
    // Checker 1 is the torn-batch sentinel: a Pass at (3, 0) — module
    // B's new site against the shared target — is only explicable by the
    // post-batch policy, advancing the real-time frontier; the following
    // check of (3, 24) targets module A's entry *within the same batch*,
    // so it must then Pass too. A torn batch (B's Bary visible before
    // A's Tary) makes (3, 24) read an empty Tary slot: ViolationInvalid,
    // which only the pre-batch policy explains — a torn observation.
    // Checker 2 crosses the batch the other way (module A's site B's
    // target, plus pre-batch state).
    Scenario S;
    S.Name = "batch";
    S.Summary = "coalesced two-dlopen batch install (one delta) vs checks";
    S.CodeCapacity = 64;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 24;
    S.Initial.TaryECN = {{0, 1}, {16, 2}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 2}};
    SpecPolicy P1 = S.Initial;
    P1.Incremental = true;
    P1.TaryLimitBytes = 40;
    P1.TaryECN[24] = 1; // module A's new target
    P1.TaryECN[32] = 1; // module B's new target
    P1.BaryCount = 4;
    P1.BaryECN[2] = 1; // module A's new site
    P1.BaryECN[3] = 1; // module B's new site
    P1.TaryDirty = {{24, 28}, {32, 36}};
    P1.BaryDirty = {2, 3};
    S.Updates = {P1};
    S.Checkers = {
        {{3, 0}, {3, 24}},
        {{2, 32}, {0, 0}, {2, 16}},
    };
    Out.push_back(std::move(S));
  }

  {
    // Module unload: a dlclose retire transaction (module X: Tary 24 /
    // Bary site 1, class 3) followed by a grace-gated reuse of the
    // recycled range (module Z: Tary 28 / Bary site 2, and the CFG
    // re-merge hands Z's class the condemned number 3). The reuse is an
    // incremental install — no version bump — so it is exactly the
    // dlclose/dlopen ABA: a checker that latched X's Bary ID before the
    // retire would compare it against Z's identically-numbered,
    // identically-versioned Tary entry and PASS an edge no policy ever
    // allowed. Checker 1 is the use-after-retire sentinel: its (1, 28)
    // evaluates to ViolationInvalid under every linearization point
    // (site 1 is X's, target 28 is Z's), so the ABA Pass is torn by
    // construction. With GraceBefore honoured the updater parks until
    // every live checker has crossed an op boundary (a quiescent point)
    // after the retire, and the race is impossible; the
    // GSchedMutantSkipGrace mutant drops the wait and must be caught.
    Scenario S;
    S.Name = "unload";
    S.Summary = "dlclose retire + grace-gated range reuse (ABA) vs checks";
    S.CodeCapacity = 64;
    S.BaryCapacity = 8;
    S.Initial.TaryLimitBytes = 32;
    S.Initial.TaryECN = {{0, 1}, {24, 3}};
    S.Initial.BaryCount = 2;
    S.Initial.BaryECN = {{0, 1}, {1, 3}};
    // Update 1: retire module X. The resulting policy simply forgets X;
    // extents are unchanged (its positions are tombstoned, not freed).
    SpecPolicy P1;
    P1.Retire = true;
    P1.TaryRetire = {{24, 32}};
    P1.BaryRetireSites = {1};
    P1.TaryLimitBytes = 32;
    P1.TaryECN = {{0, 1}};
    P1.BaryCount = 2;
    P1.BaryECN = {{0, 1}};
    // Update 2: module Z reuses X's range after grace. Different layout
    // (IBT at 28, new site index 2), same version, condemned ECN 3.
    SpecPolicy P2;
    P2.Incremental = true;
    P2.GraceBefore = true;
    P2.TaryLimitBytes = 32;
    P2.TaryECN = {{0, 1}, {28, 3}};
    P2.BaryCount = 3;
    P2.BaryECN = {{0, 1}, {2, 3}};
    P2.TaryDirty = {{28, 32}};
    P2.BaryDirty = {2};
    S.Updates = {P1, P2};
    S.Checkers = {
        // The sentinel: X's site against Z's target. Any Pass is torn.
        {{1, 28}},
        // X's in-class edge racing the retire, then Z's own edge (legal
        // only once the reuse is installed).
        {{1, 24}, {2, 28}},
    };
    Out.push_back(std::move(S));
  }

  return Out;
}

} // namespace

const std::vector<Scenario> &schedcheck::builtinScenarios() {
  static const std::vector<Scenario> Scenarios = makeScenarios();
  return Scenarios;
}

const Scenario *schedcheck::findScenario(const std::string &Name) {
  for (const Scenario &S : builtinScenarios())
    if (S.Name == Name)
      return &S;
  return nullptr;
}
