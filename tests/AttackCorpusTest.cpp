//===- tests/AttackCorpusTest.cpp - Adversarial gauntlet tests ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Drives the attack-synthesis subsystem in-process: the full corpus
/// must lose on every tier, the corpus must be byte-deterministic for a
/// fixed seed, fuel-bounded attacks that never reach an indirect
/// transfer must classify UnreachableByPolicy (not hang), the verdict
/// classifier's edges must map the runtime's stop states correctly, and
/// the shared gadget miner must serve repeat scans from its
/// content-hash cache.
///
//===----------------------------------------------------------------------===//

#include "analyzer/GadgetScan.h"
#include "attack/Attack.h"

#include <gtest/gtest.h>

#include <map>

using namespace mcfi;
using namespace mcfi::attack;

namespace {

TEST(AttackCorpus, EveryAttackLosesOnEveryTier) {
  CorpusOptions Opts;
  Opts.MaxPerClass = 2; // keep the in-process gauntlet quick
  CorpusReport R = runCorpus(Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Survivors, 0u);
  EXPECT_EQ(R.ExpectationMismatches, 0u);
  for (const AttackRecord &Rec : R.Records)
    EXPECT_NE(Rec.V, Verdict::Survived)
        << className(Rec.Class) << "/" << tierLabel(Rec.Tier) << " "
        << Rec.Name << ": " << Rec.Detail;

  // The gauntlet is only meaningful if it actually covers the attack
  // surface: at least 4 classes with a nonzero corpus, on both tiers.
  unsigned NonZero = 0;
  for (const auto &[C, S] : R.Classes) {
    (void)C;
    if (S.Corpus)
      ++NonZero;
  }
  EXPECT_GE(NonZero, 4u);
  std::map<ExecTier, uint64_t> PerTier;
  for (const AttackRecord &Rec : R.Records)
    ++PerTier[Rec.Tier];
  EXPECT_EQ(PerTier.size(), 2u);
  EXPECT_GT(R.AIR, 0.99);
}

TEST(AttackCorpus, SameSeedSameCorpusSameVerdicts) {
  CorpusOptions Opts;
  Opts.Seed = 0xfeedbeef;
  Opts.Tiers = {ExecTier::Threaded};
  Opts.MaxPerClass = 2;
  CorpusReport A = runCorpus(Opts);
  CorpusReport B = runCorpus(Opts);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  // Byte-identical JSON: same attacks, same order, same verdicts, same
  // details. This is the regression the --seed contract promises.
  EXPECT_EQ(corpusJSON(A, Opts), corpusJSON(B, Opts));

  // And a different seed still kills everything (picks differ, the
  // protection must not).
  Opts.Seed = 0x1234;
  CorpusReport C = runCorpus(Opts);
  EXPECT_EQ(C.Survivors, 0u);
}

TEST(AttackCorpus, CorruptionNeverConsumedIsFuelBounded) {
  // The victim spins forever and never calls through `idle`; corrupting
  // it must classify UnreachableByPolicy via the fuel bound — the
  // harness must not hang waiting for a transfer that never comes.
  const char *Spinner = R"(
    long f(long x) { return x + 1; }
    long g(long x) { return x + 2; }
    long (*idle)(long) = f;
    long (*idle2)(long) = g;
    int main() {
      long acc = 0;
      long i;
      for (i = 0; i < 1000000000; i = i + 1) {
        acc = acc + 1;
      }
      print_int(acc);
      return 0;
    }
  )";
  CorpusOptions Opts;
  Opts.Victims.push_back({"spinner", {Spinner}});
  Opts.Tiers = {ExecTier::Threaded};
  Opts.Classes = {AttackClass::FnPtrInClass, AttackClass::FnPtrCrossClass};
  Opts.MaxPerClass = 2;
  Opts.Fuel = 500'000;
  CorpusReport R = runCorpus(Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_FALSE(R.Records.empty());
  for (const AttackRecord &Rec : R.Records)
    EXPECT_EQ(Rec.V, Verdict::UnreachableByPolicy)
        << Rec.Name << ": " << Rec.Detail;
  EXPECT_TRUE(R.Ok);
}

TEST(AttackCorpus, InClassSwapsAreDeterministicAcrossTiers) {
  // The precision boundary must be *deterministic*: the same in-class
  // swap lands (or is refused) identically on every tier.
  CorpusOptions Opts;
  Opts.Classes = {AttackClass::FnPtrInClass};
  Opts.MaxPerClass = 3;
  CorpusReport R = runCorpus(Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  std::map<std::string, std::map<ExecTier, Verdict>> ByName;
  for (const AttackRecord &Rec : R.Records) {
    EXPECT_TRUE(Rec.V == Verdict::AllowedByPolicy ||
                Rec.V == Verdict::UnreachableByPolicy ||
                Rec.V == Verdict::CaughtByCheck)
        << Rec.Name << ": " << Rec.Detail;
    ByName[Rec.Name][Rec.Tier] = Rec.V;
  }
  for (const auto &[Name, PerTier] : ByName) {
    ASSERT_EQ(PerTier.size(), 2u) << Name;
    Verdict First = PerTier.begin()->second;
    for (const auto &[T, V] : PerTier)
      EXPECT_EQ(V, First) << Name << " diverges on " << tierLabel(T);
  }
}

TEST(AttackCorpus, ClassifierMapsRuntimeStopStates) {
  RunResult Ref;
  Ref.Reason = StopReason::Exited;
  Ref.ExitCode = 0;
  std::string RefOut = "42\n";

  auto Classify = [&](StopReason Reason, const char *Msg, int64_t Exit,
                      const std::string &Out, Expectation E) {
    RunResult R;
    R.Reason = Reason;
    R.Message = Msg;
    R.ExitCode = Exit;
    return classifyRun(R, Out, Ref, RefOut, E);
  };

  // The check transactions' hlt.
  EXPECT_EQ(Classify(StopReason::CfiViolation, "CFI check failed at 0x1234",
                     0, "", Expectation::Killed),
            Verdict::CaughtByCheck);
  // The SFI layer: W^X, unmapped fetch, decode validity.
  EXPECT_EQ(Classify(StopReason::Trap, "W^X: executing unsealed code at 0x2",
                     0, "", Expectation::Killed),
            Verdict::CaughtByMask);
  EXPECT_EQ(Classify(StopReason::Trap, "fetch from unmapped address 0x99", 0,
                     "", Expectation::Killed),
            Verdict::CaughtByMask);
  EXPECT_EQ(Classify(StopReason::Trap, "invalid instruction at 0x30", 0, "",
                     Expectation::Killed),
            Verdict::CaughtByMask);
  // Plain hardware-level faults.
  EXPECT_EQ(Classify(StopReason::Trap, "load fault at 0x10 (pc 0x20)", 0, "",
                     Expectation::Killed),
            Verdict::Trapped);
  // Fuel bound: the corruption was never consumed.
  EXPECT_EQ(Classify(StopReason::OutOfFuel, "", 0, "", Expectation::Killed),
            Verdict::UnreachableByPolicy);
  // Clean exit identical to the reference: dead on arrival.
  EXPECT_EQ(Classify(StopReason::Exited, "", 0, "42\n", Expectation::Killed),
            Verdict::UnreachableByPolicy);
  // Divergent exit: a landed in-class transfer vs a genuine survival.
  EXPECT_EQ(Classify(StopReason::Exited, "", 0, "43\n",
                     Expectation::InClassTransfer),
            Verdict::AllowedByPolicy);
  EXPECT_EQ(Classify(StopReason::Exited, "", 0, "PWNED\n",
                     Expectation::Killed),
            Verdict::Survived);
  EXPECT_EQ(Classify(StopReason::Exited, "", 7, "42\n", Expectation::Killed),
            Verdict::Survived);
}

TEST(AttackCorpus, UnloadLifecycleAttacksAllDieOnEveryTier) {
  // The dlclose gauntlet: dispatch into a retired-but-unreclaimed
  // module, replay of a pre-close in-class bind, and the dlclose/dlopen
  // ID-snapshot ABA — three synthesizers, both tiers, and every
  // one of the six runs must end CaughtByCheck (the retire transaction
  // zeroes the tables and the condemned-ECN guard bumps the version;
  // nothing should even reach the SFI layer).
  CorpusOptions Opts;
  Opts.Classes = {AttackClass::Unload};
  CorpusReport R = runCorpus(Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Survivors, 0u);
  ASSERT_EQ(R.Records.size(), 6u);
  std::map<ExecTier, unsigned> PerTier;
  for (const AttackRecord &Rec : R.Records) {
    EXPECT_EQ(Rec.Class, AttackClass::Unload);
    EXPECT_EQ(Rec.V, Verdict::CaughtByCheck)
        << tierLabel(Rec.Tier) << " " << Rec.Name << ": " << Rec.Detail;
    ++PerTier[Rec.Tier];
  }
  ASSERT_EQ(PerTier.size(), 2u);
  for (const auto &[T, N] : PerTier)
    EXPECT_EQ(N, 3u) << tierLabel(T);

  const ClassSummary &S = R.Classes.at(AttackClass::Unload);
  EXPECT_EQ(S.Corpus, 6u);
  EXPECT_EQ(S.Killed, 6u);
  EXPECT_EQ(R.AIR, 1.0);
}

TEST(AttackCorpus, MaliciousModulesAreRefusedAtDlopenOnEveryTier) {
  // Nine hand-built plugins, each breaking one rule only the loader's
  // verifier enforces, dlopened on both tiers: every one must be refused
  // before it is sealed, with a finding that names an offset.
  CorpusOptions Opts;
  Opts.Classes = {AttackClass::MaliciousModule};
  Opts.MaxPerClass = 1; // a fixed list: the cap does not apply
  CorpusReport R = runCorpus(Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Survivors, 0u);
  ASSERT_EQ(R.Records.size(), 18u);
  for (const AttackRecord &Rec : R.Records) {
    EXPECT_EQ(Rec.Class, AttackClass::MaliciousModule);
    EXPECT_EQ(Rec.Victim, "plugin-host");
    EXPECT_EQ(Rec.V, Verdict::RefusedAtLoad)
        << tierLabel(Rec.Tier) << " " << Rec.Name << ": " << Rec.Detail;
    EXPECT_NE(Rec.Detail.find("0x"), std::string::npos) << Rec.Detail;
  }
  const ClassSummary &S = R.Classes.at(AttackClass::MaliciousModule);
  EXPECT_EQ(S.Killed, 18u);
  EXPECT_EQ(S.ByVerdict[static_cast<unsigned>(Verdict::RefusedAtLoad)], 18u);
  EXPECT_STREQ(className(AttackClass::MaliciousModule), "malicious-module");
  EXPECT_STREQ(verdictName(Verdict::RefusedAtLoad), "refused-at-load");
}

TEST(AttackCorpus, UnloadClassRoundTripsItsName) {
  EXPECT_STREQ(className(AttackClass::Unload), "unload");
  AttackClass C;
  ASSERT_TRUE(parseClassName("unload", C));
  EXPECT_EQ(C, AttackClass::Unload);
}

TEST(AttackCorpus, GadgetScansAreCachedByContent) {
  std::vector<uint8_t> Code(512);
  for (size_t I = 0; I != Code.size(); ++I)
    Code[I] = static_cast<uint8_t>(I * 37 + 11);

  GadgetCacheStats Before = gadgetCacheStats();
  auto A = mineGadgets(Code.data(), Code.size());
  auto B = mineGadgets(Code.data(), Code.size());
  GadgetCacheStats After = gadgetCacheStats();

  // Second scan of identical bytes is served from the cache: the same
  // canonical result object, one more hit, no extra miss.
  EXPECT_EQ(A.get(), B.get());
  EXPECT_GE(After.Hits, Before.Hits + 1);
  EXPECT_EQ(A->CodeSize, Code.size());

  // A blob of the same size with different bytes gets its own scan.
  std::vector<uint8_t> Other = Code;
  Other[100] ^= 0xff;
  auto C = mineGadgets(Other.data(), Other.size());
  EXPECT_NE(A.get(), C.get());

  // So does one whose 64-bit FNV-1a hash (basis 0x9ddfea08eb382d69, the
  // cache's former key) equals another's: the pair below collides, found
  // by a Pollard-rho search, and must still get two scans.
  const uint8_t X[8] = {0x01, 0xad, 0x26, 0x51, 0x11, 0x3a, 0xf0, 0x86};
  const uint8_t Y[8] = {0xc7, 0xbb, 0x97, 0x0f, 0x30, 0x29, 0x11, 0xfc};
  EXPECT_NE(mineGadgets(X, sizeof X).get(), mineGadgets(Y, sizeof Y).get());
}

} // namespace
