//===- tests/SecurityTest.cpp - Control-flow hijacking attack tests -------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Attack scenarios under the paper's concurrent-attacker threat model:
/// the attacker can write any writable guest memory between any two
/// instructions (we play the attacker from the host, which is exactly
/// that power). MCFI must force every hijacked indirect transfer into a
/// `hlt`; the unprotected baseline demonstrates that the same corruption
/// succeeds without MCFI.
///
/// Every scenario is parameterized over both VM execution tiers: the
/// interpreter's discrete check sequence and the threaded dispatcher's
/// fused TxCheck superinstruction must be exactly as strong (the
/// synthesized end of this spectrum lives in
/// AttackCorpusTest / tools/mcfi-attack).
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"
#include "metrics/Harness.h"
#include "tables/ID.h"

#include <gtest/gtest.h>

#include <set>

using namespace mcfi;

namespace {

/// Victim: repeatedly calls through a function pointer stored in the
/// writable global `hook`. The attacker corrupts `hook` mid-run.
const char *VictimSource = R"(
long benign(long x) { return x + 1; }
long benign2(long x) { return x + 2; }
long same_type_other(long x) { return x * 2; }
long wrong_type(long a, long b) { return a * b; }
void execve_like(char *prog) { print_str("PWNED: "); print_str(prog); }

long (*hook)(long) = benign;
/* make the alternates address-taken so they are IBTs with real ECNs
   (paper: only address-taken functions are indirect-call targets) */
long (*spare)(long) = same_type_other;
long (*wrong)(long, long) = wrong_type;
void (*danger)(char *) = execve_like;

int main() {
  long acc = 0;
  long i;
  for (i = 0; i < 1000000; i = i + 1) {
    acc = acc + hook(i);
  }
  print_int(acc & 65535);
  return 0;
}
)";

class SecurityTierTest : public ::testing::TestWithParam<ExecTier> {};

struct Victim {
  BuiltProgram BP;
  Thread T;
  uint64_t HookAddr = 0; ///< guest address of the `hook` global

  uint64_t funcAddr(const std::string &Name) {
    return BP.M->findFunction(Name);
  }
};

Victim prepare(ExecTier Tier, bool Instrument) {
  Victim V;
  BuildSpec Spec;
  Spec.Instrument = Instrument;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  V.BP = buildProgram({VictimSource}, Spec);
  EXPECT_TRUE(V.BP.Ok) << V.BP.Error;
  if (!V.BP.Ok)
    return V;
  // Find the data address of `hook`.
  for (const MappedModule &Mod : V.BP.M->modules()) {
    auto It = Mod.Obj->DataSymbols.find("hook");
    if (It != Mod.Obj->DataSymbols.end())
      V.HookAddr = Mod.DataBase + It->second;
  }
  EXPECT_NE(V.HookAddr, 0u);
  EXPECT_TRUE(V.BP.M->makeThread("_start", V.T));
  return V;
}

/// Runs a slice, corrupts `hook` with \p Target, and runs to the end.
RunResult attackHook(Victim &V, uint64_t Target) {
  RunResult Mid = V.BP.M->run(V.T, 200'000); // mid-execution
  EXPECT_EQ(Mid.Reason, StopReason::OutOfFuel) << Mid.Message;
  EXPECT_TRUE(V.BP.M->store(V.HookAddr, 8, Target));
  return V.BP.M->run(V.T, ~0ull);
}

TEST_P(SecurityTierTest, HijackToMidInstructionIsBlocked) {
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  // Target the middle of a legitimate function: under MCFI the Tary
  // entry there is invalid (no IBT), so the check halts.
  uint64_t Evil = V.funcAddr("benign2") + 3;
  RunResult R = attackHook(V, Evil);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST_P(SecurityTierTest, HijackToWrongTypeFunctionIsBlocked) {
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  // wrong_type has signature long(long,long): different equivalence
  // class, so the ECN comparison fails even though it is a legitimate
  // function entry... provided its address is even an IBT at all.
  uint64_t Evil = V.funcAddr("wrong_type");
  ASSERT_NE(Evil, 0u);
  RunResult R = attackHook(V, Evil);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST_P(SecurityTierTest, HijackToExecveLikeIsBlocked) {
  // The paper's GnuPG CVE-2006-6235 discussion: a hijacked function
  // pointer redirected to execve is stopped because the types do not
  // match, even though execve-like is address-taken elsewhere.
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  uint64_t Evil = V.funcAddr("execve_like");
  ASSERT_NE(Evil, 0u);
  RunResult R = attackHook(V, Evil);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
  EXPECT_EQ(V.BP.M->takeOutput().find("PWNED"), std::string::npos);
}

TEST_P(SecurityTierTest, HijackToReturnSiteIsBlocked) {
  // Return sites are IBTs, but they live in the *return* equivalence
  // classes; an indirect call cannot target them under MCFI (it could
  // under coarse-grained single-class CFI).
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  uint64_t RetSite = 0;
  for (const MappedModule &Mod : V.BP.M->modules())
    for (const CallSiteInfo &CS : Mod.Obj->Aux.CallSites)
      if (!CS.IsSetjmp && CS.Caller == "main")
        RetSite = Mod.CodeBase + CS.RetSiteOffset;
  ASSERT_NE(RetSite, 0u);
  RunResult R = attackHook(V, RetSite);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST_P(SecurityTierTest, SameTypeSwapIsAllowed) {
  // Precision boundary (inherent to type-matching CFG generation): a
  // function of the *same* type is in the same equivalence class, so the
  // swap passes the checks and the program keeps running.
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  uint64_t Other = V.funcAddr("same_type_other");
  ASSERT_NE(Other, 0u);
  RunResult R = attackHook(V, Other);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
}

TEST_P(SecurityTierTest, BaselineHijackSucceeds) {
  // Without MCFI the same wrong-type hijack simply transfers control:
  // the attack is NOT reported as a CFI violation (it either runs the
  // wrong function or wanders off), demonstrating the protection delta.
  Victim V = prepare(GetParam(), /*Instrument=*/false);
  ASSERT_TRUE(V.BP.Ok);
  uint64_t Evil = V.funcAddr("execve_like");
  RunResult R = attackHook(V, Evil);
  EXPECT_NE(R.Reason, StopReason::CfiViolation);
  // The hijacked call actually ran the dangerous function.
  EXPECT_NE(V.BP.M->takeOutput().find("PWNED"), std::string::npos);
}

TEST_P(SecurityTierTest, ReturnAddressSmashIsBlocked) {
  // Classic stack smash: overwrite the topmost return address on the
  // victim thread's stack with a function entry. Under MCFI the return
  // check requires a *return site* of the right class; a function entry
  // fails it.
  Victim V = prepare(GetParam(), /*Instrument=*/true);
  ASSERT_TRUE(V.BP.Ok);
  RunResult Mid = V.BP.M->run(V.T, 200'000);
  ASSERT_EQ(Mid.Reason, StopReason::OutOfFuel);

  // Collect the program's return-site addresses, then scan up from SP
  // for the first stack slot holding one: that is a pushed return
  // address (spilled locals never hold return sites).
  std::set<uint64_t> RetSites;
  for (const MappedModule &Mod : V.BP.M->modules())
    for (const CallSiteInfo &CS : Mod.Obj->Aux.CallSites)
      if (!CS.IsSetjmp)
        RetSites.insert(Mod.CodeBase + CS.RetSiteOffset);

  uint64_t SP = V.T.Regs[visa::RegSP];
  uint64_t Patched = 0;
  for (uint64_t Addr = SP; Addr < SP + 65536; Addr += 8) {
    uint64_t Val;
    if (!V.BP.M->load(Addr, 8, Val))
      break;
    if (RetSites.count(Val)) {
      ASSERT_TRUE(V.BP.M->store(Addr, 8, V.funcAddr("benign2")));
      Patched = Addr;
      break;
    }
  }
  ASSERT_NE(Patched, 0u) << "no return address found on the stack";
  RunResult R = V.BP.M->run(V.T, ~0ull);
  EXPECT_EQ(R.Reason, StopReason::CfiViolation) << R.Message;
}

TEST_P(SecurityTierTest, CorruptedLongjmpBufferIsBlocked) {
  const char *Source = R"(
    long buf[4];
    long *expose(void) { return buf; }
    void boom(void) { print_str("boom\n"); }
    int main() {
      if (setjmp(buf) != 0) {
        print_str("resumed\n");
        return 0;
      }
      /* attacker: redirect the jmp_buf PC at a non-setjmp site */
      buf[0] = (long)boom;
      longjmp(buf, 1);
      return 1;
    }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = GetParam();
  BuiltProgram BP = buildProgram({Source}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Measured M = measureRun(BP);
  EXPECT_EQ(M.Result.Reason, StopReason::CfiViolation) << M.Result.Message;
  EXPECT_EQ(M.Output.find("boom"), std::string::npos);
}

TEST_P(SecurityTierTest, RawK1PointerCallHalts) {
  // A K1 violation left unfixed: the CFG has no edge from the call site
  // to the mismatched target, so invoking the pointer halts. This is
  // exactly why the paper's Table 2 K1 cases required source fixes.
  const char *Source = R"(
    typedef long (*Fn)(long);
    long victim(char *s) { return (long)s; }
    Fn p = (Fn)victim;
    int main() {
      print_int(p(5));
      return 0;
    }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = GetParam();
  BuiltProgram BP = buildProgram({Source}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Measured M = measureRun(BP);
  EXPECT_EQ(M.Result.Reason, StopReason::CfiViolation) << M.Result.Message;
}

TEST_P(SecurityTierTest, WXPreventsCodeRegionWrites) {
  // Guest stores into the code region must fault (W^X).
  const char *Source = R"(
    int main() {
      long *code = (long *)65536; /* the code base */
      *code = 1234567;
      return 0;
    }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = GetParam();
  BuiltProgram BP = buildProgram({Source}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Measured M = measureRun(BP);
  EXPECT_EQ(M.Result.Reason, StopReason::Trap) << M.Result.Message;
}

TEST_P(SecurityTierTest, SignalHandlerMustBeValidTarget) {
  const char *Source = R"(
    int main() {
      void (*evil)(int) = (void (*)(int))65539; /* mid-instruction */
      signal(5, evil);
      raise(5);
      return 0;
    }
  )";
  BuildSpec Spec;
  Spec.LinkRtLibrary = false;
  Spec.Tier = GetParam();
  BuiltProgram BP = buildProgram({Source}, Spec);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Measured M = measureRun(BP);
  EXPECT_EQ(M.Result.Reason, StopReason::CfiViolation) << M.Result.Message;
}

TEST_P(SecurityTierTest, MltaRefinementFlipsCrossRegistryVerdict) {
  // The MLTA differential, pinned per tier: the identical
  // cross-enclosing-type overwrite is an in-class transfer the plain
  // type-matched policy allows, dies at the check under the refined
  // policy, and a same-chain swap stays allowed under refinement.
  std::vector<attack::AttackRecord> Recs =
      attack::runMltaAttacks(GetParam(), "builtin", 3);
  ASSERT_EQ(Recs.size(), 3u);
  EXPECT_EQ(Recs[0].Name, "mlta:flta:cross-registry");
  EXPECT_EQ(Recs[0].V, attack::Verdict::AllowedByPolicy) << Recs[0].Detail;
  EXPECT_EQ(Recs[1].Name, "mlta:refined:cross-registry");
  EXPECT_EQ(Recs[1].V, attack::Verdict::CaughtByCheck) << Recs[1].Detail;
  EXPECT_EQ(Recs[2].Name, "mlta:refined:same-chain");
  EXPECT_EQ(Recs[2].V, attack::Verdict::AllowedByPolicy) << Recs[2].Detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, SecurityTierTest,
    ::testing::Values(ExecTier::Interpreter, ExecTier::Threaded),
    [](const ::testing::TestParamInfo<ExecTier> &Info) {
      return Info.param == ExecTier::Interpreter ? "Interpreter"
                                                 : "Threaded";
    });

} // namespace
