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
#include "support/StringUtils.h"
#include "tables/ID.h"
#include "toolchain/Toolchain.h"
#include "verifier/Verifier.h"

#include <gtest/gtest.h>

#include <cctype>
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
      attack::runMltaAttacks(GetParam(), 3);
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

//===----------------------------------------------------------------------===//
// Malicious modules: the verifier alone stands between them and the host
//===----------------------------------------------------------------------===//

/// True when \p Text names code offset \p Off (as 0x<hex>, not as a
/// prefix of a longer number).
bool namesOffset(const std::string &Text, uint64_t Off) {
  std::string Hex =
      formatString("0x%llx", static_cast<unsigned long long>(Off));
  for (size_t Pos = Text.find(Hex); Pos != std::string::npos;
       Pos = Text.find(Hex, Pos + 1)) {
    size_t End = Pos + Hex.size();
    if (End == Text.size() ||
        !std::isxdigit(static_cast<unsigned char>(Text[End])))
      return true;
  }
  return false;
}

/// The first finding of verifying \p Obj's own bytes ("" if it passes).
std::string standaloneFinding(const MCFIObject &Obj) {
  VerifyResult VR = verifyModule(Obj.Code.data(), Obj.Code.size(), Obj);
  return VR.Ok ? "" : VR.Errors.front();
}

/// Runs \p Fn from a fresh stack and returns what it printed before it
/// stopped (its return address is not a call site, so it never returns
/// cleanly).
std::string runEntry(Machine &M, const char *Fn) {
  Thread T;
  T.PC = M.findFunction(Fn);
  T.Regs[visa::RegSP] = M.allocStack();
  M.run(T, 1'000'000);
  return M.takeOutput();
}

/// The plugin host and \p Plugin linked statically (bootstrap 0, host 1,
/// plugin 2).
struct StaticBuild {
  std::unique_ptr<Machine> M = std::make_unique<Machine>();
  std::unique_ptr<Linker> L;
  bool Ok = false;
  std::string Error;
};

StaticBuild linkWithHost(const MCFIObject &Plugin, bool Verify) {
  StaticBuild B;
  LinkOptions LO;
  LO.Verify = Verify;
  B.L = std::make_unique<Linker>(*B.M, LO);
  CompileResult Host =
      compileModule(attack::pluginHostSource(), {.ModuleName = "host"});
  EXPECT_TRUE(Host.Ok);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Host.Obj));
  Objs.push_back(Plugin);
  B.Ok = B.L->linkProgram(std::move(Objs), B.Error);
  return B;
}

/// Serializes \p Obj, reads it back and dlopens it into a fresh host;
/// returns the handle, with the linker's error in \p Error.
int64_t dlopenIntoHost(const MCFIObject &Obj, attack::PluginHost &H,
                       bool Verify, std::string &Error) {
  LinkOptions LO;
  LO.Verify = Verify;
  if (!attack::buildPluginHost(H, ExecTier::Threaded, LO, Error))
    return -1;
  MCFIObject Loaded;
  if (!readObject(writeObject(Obj), Loaded)) {
    Error = "readObject refused it";
    return -1;
  }
  int64_t Handle = H.L->dlopen(H.L->registerLibrary(std::move(Loaded)));
  Error = H.L->lastError();
  return Handle;
}

const attack::MaliciousModule &findModule(
    const std::vector<attack::MaliciousModule> &Mods, const std::string &Name) {
  for (const attack::MaliciousModule &MM : Mods)
    if (MM.Name == Name)
      return MM;
  ADD_FAILURE() << "no malicious module " << Name;
  return Mods.front();
}

TEST(MaliciousModule, JumpTableShiftedOntoDataIsRefused) {
  // A switch dispatch whose table-entry and table-address relocations
  // all carry one extra delta, aimed so the dispatch reads the global
  // tbl, where plugin_fn stored secret's address. Every entry still
  // agrees on one base, so only the addends give the shift away. Run
  // unverified, sel(3) jumps to secret, which prints 666.
  CompileResult Plugin =
      compileModule(attack::jumpTablePluginSource(), {.ModuleName = "jt"});
  ASSERT_TRUE(Plugin.Ok);
  const uint64_t Table = Plugin.Obj.Aux.JumpTables.front().TableOffset;
  const uint64_t Tbl = Plugin.Obj.DataSymbols.at("tbl");

  // Static link: where the plugin lands fixes the delta.
  StaticBuild Clean = linkWithHost(Plugin.Obj, /*Verify=*/false);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  const MappedModule &At = Clean.M->modules()[2];
  MCFIObject Shifted = Plugin.Obj;
  attack::shiftJumpTables(Shifted,
                          At.DataBase + Tbl - (At.CodeBase + Table));

  StaticBuild Unverified = linkWithHost(Shifted, /*Verify=*/false);
  ASSERT_TRUE(Unverified.Ok) << Unverified.Error;
  EXPECT_EQ(runEntry(*Unverified.M, "plugin_fn"), "666\n");

  // The verifier over the mapped bytes, as the linker would run it.
  const MappedModule &Mapped = Unverified.M->modules()[2];
  size_t Size = Shifted.Code.size();
  const uint8_t *Code = Unverified.M->codePtr(Mapped.CodeBase, Size);
  VerifyResult VR = verifyModule(
      Code, Size, Shifted,
      disassembleModule(Code, Size, Shifted, Mapped.CodeBase));
  ASSERT_FALSE(VR.Ok);
  EXPECT_TRUE(namesOffset(VR.Errors.front(), Table)) << VR.Errors.front();

  StaticBuild Verified = linkWithHost(Shifted, /*Verify=*/true);
  EXPECT_FALSE(Verified.Ok);
  EXPECT_TRUE(namesOffset(Verified.Error, Table)) << Verified.Error;
  EXPECT_TRUE(namesOffset(standaloneFinding(Shifted), Table));

  // dlopen of the registered plugin, shifted for where it is mapped.
  std::vector<attack::MaliciousModule> Mods;
  std::string Error;
  ASSERT_TRUE(attack::buildMaliciousModules(Mods, Error)) << Error;
  const attack::MaliciousModule &MM = findModule(Mods, "jump-table-base");
  ASSERT_EQ(MM.BadOffset, Table);
  attack::PluginHost Open, Refused;
  ASSERT_GE(dlopenIntoHost(MM.Obj, Open, /*Verify=*/false, Error), 0)
      << Error;
  EXPECT_EQ(runEntry(*Open.M, "plugin_fn"), "666\n");
  EXPECT_LT(dlopenIntoHost(MM.Obj, Refused, /*Verify=*/true, Error), 0);
  EXPECT_TRUE(namesOffset(Error, Table)) << Error;
}

TEST(MaliciousModule, JumpTableEntriesMustHoldTheMappingBase) {
  // The entries are checked against the base the disassembly names, not
  // against one they merely agree on: the mapped bytes verify at their
  // own base and are refused, at the table, at any other.
  CompileResult Plugin =
      compileModule(attack::jumpTablePluginSource(), {.ModuleName = "jt"});
  ASSERT_TRUE(Plugin.Ok);
  const MCFIObject &Obj = Plugin.Obj;
  const uint64_t Table = Obj.Aux.JumpTables.front().TableOffset;
  StaticBuild B = linkWithHost(Obj, /*Verify=*/true);
  ASSERT_TRUE(B.Ok) << B.Error;
  const uint64_t CodeBase = B.M->modules()[2].CodeBase;
  size_t Size = Obj.Code.size();
  const uint8_t *Code = B.M->codePtr(CodeBase, Size);
  auto VerifyAt = [&](uint64_t Base) {
    return verifyModule(Code, Size, Obj,
                        disassembleModule(Code, Size, Obj, Base));
  };
  EXPECT_TRUE(VerifyAt(CodeBase).Ok);
  VerifyResult Elsewhere = VerifyAt(CodeBase + 8);
  ASSERT_FALSE(Elsewhere.Ok);
  EXPECT_TRUE(namesOffset(Elsewhere.Errors.front(), Table))
      << Elsewhere.Errors.front();

  // Without a disassembly the first entry names the base, so the mapped
  // bytes and the object's own (base 0) both pass, and a later entry
  // naming another base is refused.
  EXPECT_TRUE(verifyModule(Code, Size, Obj).Ok);
  EXPECT_TRUE(verifyModule(Obj.Code.data(), Size, Obj).Ok);
  std::vector<uint8_t> Torn(Code, Code + Size);
  Torn[Table + 8 + 1] ^= 1; // entry 1 names a base 256 bytes away
  VerifyResult TornVR = verifyModule(Torn.data(), Size, Obj);
  ASSERT_FALSE(TornVR.Ok);
  EXPECT_TRUE(namesOffset(TornVR.Errors.front(), Table + 8))
      << TornVR.Errors.front();
}

TEST(MaliciousModule, DirectBranchOutOfTheModuleIsRefused) {
  // plugin_fn starts `movi r15, &secret; jmp <the host's calli r15>`
  // with no relocation: it reaches the host's indirect call past its
  // check, and the calli runs secret, which nothing takes the address
  // of. Run unverified, it prints 666.
  std::vector<attack::MaliciousModule> Mods;
  std::string Error;
  ASSERT_TRUE(attack::buildMaliciousModules(Mods, Error)) << Error;
  const attack::MaliciousModule &MM = findModule(Mods, "direct-escape");

  attack::PluginHost Open, Refused;
  ASSERT_GE(dlopenIntoHost(MM.Obj, Open, /*Verify=*/false, Error), 0)
      << Error;
  EXPECT_EQ(runEntry(*Open.M, "plugin_fn"), "666\n");

  std::string Finding = standaloneFinding(MM.Obj);
  EXPECT_TRUE(namesOffset(Finding, MM.BadOffset)) << Finding;
  EXPECT_NE(Finding.find("leaves the module"), std::string::npos) << Finding;
  EXPECT_LT(dlopenIntoHost(MM.Obj, Refused, /*Verify=*/true, Error), 0);
  EXPECT_TRUE(namesOffset(Error, MM.BadOffset)) << Error;
  StaticBuild Linked = linkWithHost(MM.Obj, /*Verify=*/true);
  EXPECT_FALSE(Linked.Ok);
  EXPECT_TRUE(namesOffset(Linked.Error, MM.BadOffset)) << Linked.Error;
}

TEST(MaliciousModule, EveryVariantIsRefusedWithAnOffset) {
  // The standalone verifier names each module's bad offset; a dlopen
  // (after a writeObject/readObject round trip) and a static link refuse
  // it with an offset-naming error. A relocation over an opcode is
  // applied before the loaders verify, so their finding may name the
  // byte it made undecodable instead.
  std::vector<attack::MaliciousModule> Mods;
  std::string Error;
  ASSERT_TRUE(attack::buildMaliciousModules(Mods, Error)) << Error;
  std::set<std::string> Names;
  for (const attack::MaliciousModule &MM : Mods) {
    Names.insert(MM.Name);
    std::string Finding = standaloneFinding(MM.Obj);
    EXPECT_TRUE(namesOffset(Finding, MM.BadOffset))
        << MM.Name << ": " << Finding;
    attack::PluginHost H;
    EXPECT_LT(dlopenIntoHost(MM.Obj, H, /*Verify=*/true, Error), 0)
        << MM.Name;
    EXPECT_NE(Error.find("0x"), std::string::npos) << MM.Name << ": " << Error;
    // Only a pass is recorded: opening the refused library (id 0) again
    // runs the verifier again, and it refuses again.
    EXPECT_LT(H.L->dlopen(0), 0) << MM.Name;
    EXPECT_EQ(H.L->batchHistory().back().Verified, 1u) << MM.Name;
    StaticBuild Linked = linkWithHost(MM.Obj, /*Verify=*/true);
    EXPECT_FALSE(Linked.Ok) << MM.Name;
    EXPECT_NE(Linked.Error.find("0x"), std::string::npos)
        << MM.Name << ": " << Linked.Error;
  }
  EXPECT_EQ(Names, (std::set<std::string>{
                       "jump-table-base", "direct-escape", "jz-escape",
                       "callsym-on-jz", "callsym-on-movi",
                       "reloc-over-opcode", "reloc-spanning",
                       "relocated-validity", "entry-in-check"}));
}

} // namespace
