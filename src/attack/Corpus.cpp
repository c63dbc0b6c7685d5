//===- attack/Corpus.cpp - Attack corpus driver and verdicts --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates the gauntlet: per (victim, tier), synthesize the guest-
/// level attacks, replay each against a fresh victim build, and classify
/// the outcome against the clean reference run; per tier, run the
/// classes that bring their own victim (table, unload, mlta,
/// malicious-module) once; then aggregate per-class kill counts into
/// the AIR-style summary. Everything is
/// deterministic for a fixed CorpusOptions value — no wall clocks, no
/// unordered iteration, one seeded RNG consumed in a fixed order — so
/// the JSON rendering is byte-identical across runs.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include "support/StringUtils.h"
#include "tables/ID.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::attack;

const char *mcfi::attack::className(AttackClass C) {
  switch (C) {
  case AttackClass::FnPtrInClass:
    return "fnptr-in-class";
  case AttackClass::FnPtrCrossClass:
    return "fnptr-cross-class";
  case AttackClass::RopGadget:
    return "rop-gadget";
  case AttackClass::FakeTable:
    return "fake-table";
  case AttackClass::StaleVersionReplay:
    return "stale-version-replay";
  case AttackClass::TornUpdate:
    return "torn-update";
  case AttackClass::FusedCheck:
    return "fused-check";
  case AttackClass::CodeEpochReplay:
    return "code-epoch-replay";
  case AttackClass::Unload:
    return "unload";
  case AttackClass::Mlta:
    return "mlta";
  case AttackClass::MaliciousModule:
    return "malicious-module";
  }
  return "?";
}

bool mcfi::attack::parseClassName(const std::string &Name, AttackClass &Out) {
  for (unsigned I = 0; I != NumAttackClasses; ++I) {
    AttackClass C = static_cast<AttackClass>(I);
    if (Name == className(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

const char *mcfi::attack::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Survived:
    return "survived";
  case Verdict::CaughtByCheck:
    return "caught-by-check";
  case Verdict::CaughtByMask:
    return "caught-by-mask";
  case Verdict::Trapped:
    return "trapped";
  case Verdict::UnreachableByPolicy:
    return "unreachable-by-policy";
  case Verdict::AllowedByPolicy:
    return "allowed-by-policy";
  case Verdict::RefusedAtLoad:
    return "refused-at-load";
  }
  return "?";
}

const char *mcfi::attack::tierLabel(ExecTier T) {
  switch (T) {
  case ExecTier::Interpreter:
    return "interpreter";
  case ExecTier::Threaded:
    return "threaded";
  }
  return "?";
}

namespace {

const char *reasonLabel(StopReason R) {
  switch (R) {
  case StopReason::Exited:
    return "exited";
  case StopReason::CfiViolation:
    return "cfi-violation";
  case StopReason::Trap:
    return "trap";
  case StopReason::OutOfFuel:
    return "out-of-fuel";
  }
  return "?";
}

bool contains(const std::string &S, const char *Needle) {
  return S.find(Needle) != std::string::npos;
}

std::vector<AttackClass> allClasses() {
  std::vector<AttackClass> Out;
  for (unsigned I = 0; I != NumAttackClasses; ++I)
    Out.push_back(static_cast<AttackClass>(I));
  return Out;
}

} // namespace

Verdict mcfi::attack::classifyRun(const RunResult &R, const std::string &Output,
                                  const RunResult &Ref,
                                  const std::string &RefOutput,
                                  Expectation Expect) {
  switch (R.Reason) {
  case StopReason::CfiViolation:
    // A check transaction executed hlt, or the runtime refused a
    // mediated transfer (longjmp/signal validation).
    return Verdict::CaughtByCheck;
  case StopReason::Trap:
    // The SFI layer's kills carry distinctive messages; anything else
    // (data faults, stack overflow) is a plain hardware-level trap.
    if (contains(R.Message, "W^X") || contains(R.Message, "fetch from unmapped") ||
        contains(R.Message, "invalid instruction"))
      return Verdict::CaughtByMask;
    return Verdict::Trapped;
  case StopReason::OutOfFuel:
    // The fuel bound fired before the corruption was ever consumed: the
    // attack never reached an indirect transfer.
    return Verdict::UnreachableByPolicy;
  case StopReason::Exited:
    if (Ref.Reason == StopReason::Exited && R.ExitCode == Ref.ExitCode &&
        Output == RefOutput)
      return Verdict::UnreachableByPolicy; // ran the clean execution
    return Expect == Expectation::InClassTransfer ? Verdict::AllowedByPolicy
                                                  : Verdict::Survived;
  }
  return Verdict::Survived;
}

CorpusReport mcfi::attack::runCorpus(const CorpusOptions &Opts) {
  CorpusReport Rep;
  std::vector<AttackClass> Classes =
      Opts.Classes.empty() ? allClasses() : Opts.Classes;
  std::vector<VictimSpec> Victims =
      Opts.Victims.empty() ? std::vector<VictimSpec>{builtinVictim()}
                           : Opts.Victims;
  RNG R(Opts.Seed);
  constexpr uint64_t SliceFuel = 100'000;

  auto Fail = [&](const std::string &Err) {
    Rep.Error = Err;
    Rep.Ok = false;
    return Rep;
  };

  for (const VictimSpec &Victim : Victims) {
    if (Opts.Tiers.empty())
      break;
    // Synthesize ONCE per victim, from the post-slice state of the first
    // tier, then replay the identical attack list under every tier: the
    // same hijack must lose the same way everywhere. Tier identity (the
    // differential tier harness's invariant) makes the enumeration state
    // — data layout, stack contents at the slice boundary — transferable.
    VictimBuild Enum = buildVictim(Victim, Opts.Tiers.front(), SliceFuel);
    if (!Enum.BP.Ok)
      return Fail(Victim.Name + ": " + Enum.BP.Error);
    std::vector<GuestAttack> Attacks =
        synthesizeGuestAttacks(Enum, Classes, Opts.MaxPerClass, R);

    for (ExecTier Tier : Opts.Tiers) {
      // Clean reference run: the divergence baseline for classification.
      VictimBuild Ref = buildVictim(Victim, Tier, 0);
      if (!Ref.BP.Ok)
        return Fail(Victim.Name + ": " + Ref.BP.Error);
      RunResult RefRun = Ref.BP.M->run(Ref.T, Opts.Fuel);
      std::string RefOut = Ref.BP.M->takeOutput();

      for (const GuestAttack &A : Attacks) {
        VictimBuild W =
            buildVictim(Victim, Tier, Enum.SliceRan ? SliceFuel : 0);
        if (!W.BP.Ok)
          return Fail(Victim.Name + ": " + W.BP.Error);
        Machine &M = *W.BP.M;

        AttackRecord Rec;
        Rec.Class = A.Class;
        Rec.Tier = Tier;
        Rec.Victim = Victim.Name;
        Rec.Name = A.Name;
        Rec.Expect = A.Expect;

        if (A.DlopenLibrary && W.BP.L->dlopen(0) < 0) {
          Rec.V = Verdict::Survived;
          Rec.Detail = "dlopen of the replay plugin failed";
          Rep.Records.push_back(Rec);
          continue;
        }

        uint64_t Target = A.Target;
        if (!A.TargetSymbol.empty()) {
          Target = M.findFunction(A.TargetSymbol);
          if (!Target) {
            Rec.V = Verdict::Survived;
            Rec.Detail = "target symbol vanished: " + A.TargetSymbol;
            Rep.Records.push_back(Rec);
            continue;
          }
          Target += A.TargetDelta;
        }
        Rec.Target = Target;

        if (A.ForgeIDs) {
          // Counterfeit table: ID words with the victim slot's own ECN
          // and the live version, planted in attacker-writable memory.
          // If any check consulted guest memory, this would pass it.
          uint64_t CurVal = 0;
          M.load(A.SlotAddr, 8, CurVal);
          int64_t ECN = W.BP.L->policy().getTaryECN(CurVal);
          uint32_t Forged = encodeID(ECN < 0 ? 0 : static_cast<uint32_t>(ECN),
                                     M.tables().currentVersion());
          uint64_t Scratch = M.allocHeap(64);
          for (uint64_t Off = 0; Off < 64; Off += 4)
            M.store(Scratch + Off, 4, Forged);
        }

        M.store(A.SlotAddr, 8, Target);
        RunResult RR = M.run(W.T, Opts.Fuel);
        std::string AOut = M.takeOutput();
        Rec.V = classifyRun(RR, AOut, RefRun, RefOut, A.Expect);
        Rec.Detail = reasonLabel(RR.Reason);
        if (!RR.Message.empty())
          Rec.Detail += ": " + RR.Message;
        if (A.Class == AttackClass::FusedCheck)
          Rec.Detail += formatString("; fused=%llu",
                                     (unsigned long long)M.vmStats()
                                         .FusedChecks);
        if (A.DlopenLibrary)
          Rec.Detail += formatString("; segments_built=%llu",
                                     (unsigned long long)M.vmStats()
                                         .SegmentsBuilt);
        Rep.Records.push_back(Rec);
      }
    }
  }

  // The table, unload, mlta and malicious-module classes read no victim:
  // they build their own (standalone IDTables, the builtin victim with
  // its plugin, the dual-registry victim, the plugin host), so they run
  // once per tier, not per victim.
  // They ride the tier grid: the protocol must hold wherever the VM tier
  // embeds it.
  auto Wanted = [&](AttackClass C) {
    return std::find(Classes.begin(), Classes.end(), C) != Classes.end();
  };
  auto Append = [&](const std::vector<AttackRecord> &Recs) {
    Rep.Records.insert(Rep.Records.end(), Recs.begin(), Recs.end());
  };
  for (ExecTier Tier : Opts.Tiers) {
    for (AttackClass C :
         {AttackClass::StaleVersionReplay, AttackClass::TornUpdate})
      if (Wanted(C))
        Append(runTableAttacks(C, Tier, Opts.MaxPerClass));
    if (Wanted(AttackClass::Unload))
      Append(runUnloadAttacks(Tier, Opts.MaxPerClass));
    if (Wanted(AttackClass::Mlta))
      Append(runMltaAttacks(Tier, Opts.MaxPerClass));
    if (Wanted(AttackClass::MaliciousModule))
      Append(runMaliciousModuleAttacks(Tier));
  }

  // Aggregate.
  for (AttackClass C : Classes)
    Rep.Classes[C]; // report every requested class, even if empty
  for (const AttackRecord &Rec : Rep.Records) {
    ClassSummary &S = Rep.Classes[Rec.Class];
    ++S.Corpus;
    ++S.ByVerdict[static_cast<unsigned>(Rec.V)];
    if (Rec.V == Verdict::Survived) {
      ++S.Survived;
      ++Rep.Survivors;
    } else if (Rec.V == Verdict::AllowedByPolicy) {
      ++S.Allowed;
      if (Rec.Expect == Expectation::Killed)
        ++Rep.ExpectationMismatches;
    } else {
      ++S.Killed;
    }
  }
  double Sum = 0;
  unsigned Rated = 0;
  for (const auto &[C, S] : Rep.Classes) {
    (void)C;
    uint64_t Denom = S.Corpus - S.Allowed;
    if (!Denom)
      continue;
    Sum += static_cast<double>(S.Killed) / static_cast<double>(Denom);
    ++Rated;
  }
  Rep.AIR = Rated ? Sum / Rated : 0;
  Rep.Ok = Rep.Error.empty() && Rep.Survivors == 0 &&
           Rep.ExpectationMismatches == 0 && !Rep.Records.empty();
  return Rep;
}

std::string mcfi::attack::corpusJSON(const CorpusReport &R,
                                     const CorpusOptions &Opts) {
  std::string J = formatString("{\"seed\":%llu,\"tiers\":[",
                               (unsigned long long)Opts.Seed);
  for (size_t I = 0; I != Opts.Tiers.size(); ++I)
    J += std::string(I ? "," : "") + "\"" + tierLabel(Opts.Tiers[I]) + "\"";
  J += "],\"classes\":[";
  bool FirstC = true;
  for (const auto &[C, S] : R.Classes) {
    if (!FirstC)
      J += ",";
    FirstC = false;
    J += formatString("{\"class\":\"%s\",\"corpus\":%llu,\"killed\":%llu,"
                      "\"allowed\":%llu,\"survived\":%llu,\"verdicts\":{",
                      className(C), (unsigned long long)S.Corpus,
                      (unsigned long long)S.Killed,
                      (unsigned long long)S.Allowed,
                      (unsigned long long)S.Survived);
    for (unsigned V = 0; V != NumVerdicts; ++V)
      J += formatString("%s\"%s\":%llu", V ? "," : "",
                        verdictName(static_cast<Verdict>(V)),
                        (unsigned long long)S.ByVerdict[V]);
    J += "}}";
  }
  J += "],\"records\":[";
  for (size_t I = 0; I != R.Records.size(); ++I) {
    const AttackRecord &Rec = R.Records[I];
    if (I)
      J += ",";
    J += formatString(
        "{\"class\":\"%s\",\"tier\":\"%s\",\"victim\":\"%s\",\"name\":\"%s\","
        "\"target\":\"0x%llx\",\"expect\":\"%s\",\"verdict\":\"%s\","
        "\"detail\":\"%s\"}",
        className(Rec.Class), tierLabel(Rec.Tier),
        jsonEscape(Rec.Victim).c_str(), jsonEscape(Rec.Name).c_str(),
        (unsigned long long)Rec.Target,
        Rec.Expect == Expectation::Killed ? "killed" : "in-class",
        verdictName(Rec.V), jsonEscape(Rec.Detail).c_str());
  }
  J += formatString("],\"survivors\":%llu,\"expectation_mismatches\":%llu,"
                    "\"air\":%.4f,\"ok\":%s",
                    (unsigned long long)R.Survivors,
                    (unsigned long long)R.ExpectationMismatches, R.AIR,
                    R.Ok ? "true" : "false");
  if (!R.Error.empty())
    J += ",\"error\":\"" + jsonEscape(R.Error) + "\"";
  J += "}";
  return J;
}
