//===- tests/FuzzTest.cpp - Randomized end-to-end properties --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Randomized end-to-end properties over generator-produced programs:
/// for every random profile, the instrumented build must (a) verify,
/// (b) produce byte-identical output to the unprotected baseline, and
/// (c) never trap or CFI-halt. This is the strongest single invariant
/// in the suite: instrumentation is behaviour-preserving on benign
/// programs across the whole pipeline. The seeded mutant pipeline is
/// its adversarial twin: corrupted modules are either rejected or run
/// safely, and what runs is exactly what the verifier checked.
///
//===----------------------------------------------------------------------===//

#include "dataflow/Dataflow.h"
#include "metrics/Harness.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "runtime/Dispatch.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "verifier/Verifier.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

using namespace mcfi;

namespace {

BenchProfile randomProfile(uint64_t Seed) {
  RNG R(Seed);
  BenchProfile P;
  P.Name = "fuzz" + std::to_string(Seed);
  P.Functions = static_cast<unsigned>(R.range(4, 60));
  P.FnPtrTypes = static_cast<unsigned>(R.range(1, 9));
  P.AddressTakenPct = static_cast<unsigned>(R.range(20, 100));
  P.Switches = static_cast<unsigned>(R.range(0, 4));
  P.VariadicWorkers = static_cast<unsigned>(R.range(0, 3));
  P.WorkIterations = static_cast<unsigned>(R.range(3, 40));
  P.WorkPerCall = static_cast<unsigned>(R.range(0, 6));
  P.IndirectCallPct = static_cast<unsigned>(R.range(0, 100));
  P.Upcasts = static_cast<unsigned>(R.range(0, 4));
  P.Downcasts = static_cast<unsigned>(R.range(0, 4));
  P.MallocCasts = static_cast<unsigned>(R.range(0, 4));
  P.NullUpdates = static_cast<unsigned>(R.range(0, 4));
  P.NfAccesses = static_cast<unsigned>(R.range(0, 4));
  P.K1Cases = static_cast<unsigned>(R.range(0, 3));
  P.K2Cases = static_cast<unsigned>(R.range(0, 5));
  if (P.NfAccesses && !P.K2Cases)
    P.K2Cases = 1; // the NF driver consumes one K2 budget unit
  P.Seed = Seed * 7919 + 13;
  return P;
}

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipeline, InstrumentationPreservesBehaviour) {
  BenchProfile P = randomProfile(GetParam());
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);

  std::string OutBase, OutInst;
  Measured Base = runProfile(P, /*Instrument=*/false, &OutBase);
  ASSERT_EQ(Base.Result.Reason, StopReason::Exited)
      << P.Name << ": " << Base.Result.Message;
  Measured Inst = runProfile(P, /*Instrument=*/true, &OutInst);
  ASSERT_EQ(Inst.Result.Reason, StopReason::Exited)
      << P.Name << ": " << Inst.Result.Message;
  EXPECT_EQ(OutBase, OutInst) << P.Name;
}

TEST_P(FuzzPipeline, ModulesVerifyAndRoundTrip) {
  BenchProfile P = randomProfile(GetParam() ^ 0xF00D);
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
  CompileResult CR = compileModule(Source, {.ModuleName = P.Name});
  ASSERT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());

  // Verify the standalone module.
  VerifyResult VR =
      verifyModule(CR.Obj.Code.data(), CR.Obj.Code.size(), CR.Obj);
  EXPECT_TRUE(VR.Ok) << P.Name << ": "
                     << (VR.Errors.empty() ? "?" : VR.Errors.front());

  // Serialization round trip preserves the bytes.
  MCFIObject Back;
  ASSERT_TRUE(readObject(writeObject(CR.Obj), Back));
  EXPECT_EQ(Back.Code, CR.Obj.Code);
  EXPECT_EQ(Back.Aux.BranchSites.size(), CR.Obj.Aux.BranchSites.size());
}

TEST_P(FuzzPipeline, MaskAlignVariantAlsoWorks) {
  BenchProfile P = randomProfile(GetParam() ^ 0xA11A);
  P.WorkIterations = 5;
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);

  CompileOptions CO;
  CO.ModuleName = P.Name;
  CO.MaskAlignTargets = true;
  CompileResult CR = compileModule(Source, CO);
  ASSERT_TRUE(CR.Ok);
  VerifyResult VR =
      verifyModule(CR.Obj.Code.data(), CR.Obj.Code.size(), CR.Obj);
  EXPECT_TRUE(VR.Ok) << (VR.Errors.empty() ? "?" : VR.Errors.front());

  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(CR.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;
  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
}

TEST_P(FuzzPipeline, DataflowEngineTerminates) {
  // The fixpoint must converge on every generator-produced program —
  // including the cast-heavy ones — and its per-site completeness must
  // stay internally consistent (incompatible flows only ever come out
  // of recorded sites, havoc forces an empty refinement).
  BenchProfile P = randomProfile(GetParam() ^ 0xDF10);
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);

  std::vector<std::string> Errors;
  auto Prog = minic::parseProgram(Source, Errors);
  ASSERT_TRUE(Prog) << (Errors.empty() ? "?" : Errors.front());
  ASSERT_TRUE(minic::analyze(*Prog, Errors))
      << (Errors.empty() ? "?" : Errors.front());

  std::vector<FlowModule> Mods{{Prog.get(), P.Name}};
  DataflowResult R = analyzeFunctionPointerFlow(Mods);
  EXPECT_GT(R.Stats.Nodes, 0u);
  for (const FlowFinding &F : R.Incompatible) {
    bool FromSite = false;
    for (const SiteFlow &S : R.Sites)
      if (S.Caller == F.Caller && S.Loc.Line == F.CallLoc.Line)
        FromSite = true;
    EXPECT_TRUE(FromSite) << F.Target;
  }
  CFGRefinement Ref = computeRefinement(R);
  if (R.Havoc) {
    EXPECT_TRUE(Ref.Allowed.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Seeded verify -> link -> run mutants
//===----------------------------------------------------------------------===//

/// A plugin with indirect calls through a function-pointer table, a
/// switch (a jump table) and stores; its probe exits with the result.
std::string mutantPluginSource(unsigned K, RNG &R) {
  std::string P = formatString("m%u_", K);
  std::string S;
  for (int F = 0; F != 3; ++F)
    S += formatString("long %sf%d(long x) { return (x * %d + %d) & 65535; }\n",
                      P.c_str(), F, int(R.range(3, 99)), int(R.range(1, 999)));
  S += formatString("long (*%stab[3])(long);\nlong %scell;\n", P.c_str(),
                    P.c_str());
  S += formatString("long %ssel(long x) {\n  switch (x) {\n", P.c_str());
  for (int C = 0; C != 5; ++C)
    S += formatString("  case %d: return %d;\n", C, int(R.range(1, 500)));
  S += "  default: return 0;\n  }\n}\n";
  S += formatString("long %sprobe(long x) {\n  long i = 0;\n", P.c_str());
  for (int F = 0; F != 3; ++F)
    S += formatString("  %stab[%d] = %sf%d;\n", P.c_str(), F, P.c_str(), F);
  S += formatString("  while (i < 12) {\n"
                    "    x = %stab[x %% 3](x) + %ssel(i %% 7);\n"
                    "    %scell = x;\n    i = i + 1;\n  }\n"
                    "  exit((int)(%scell & 127));\n  return x;\n}\n",
                    P.c_str(), P.c_str(), P.c_str(), P.c_str());
  return S;
}

enum class MutationKind { ByteFlip, WordSplat, Truncate };

/// Mutates \p Bytes in place.
void mutateBytes(std::vector<uint8_t> &Bytes, MutationKind Kind, RNG &R) {
  switch (Kind) {
  case MutationKind::ByteFlip:
    Bytes[R.below(Bytes.size())] ^= static_cast<uint8_t>(R.range(1, 255));
    break;
  case MutationKind::WordSplat: {
    uint64_t Word = R.next();
    size_t Off = R.below(Bytes.size() - 7);
    for (unsigned B = 0; B != 8; ++B)
      Bytes[Off + B] = static_cast<uint8_t>(Word >> (8 * B));
    break;
  }
  case MutationKind::Truncate:
    Bytes.resize(R.below(Bytes.size()));
    break;
  }
}

/// One mutant of \p Obj's code bytes; the aux info is untouched.
MCFIObject mutateCode(const MCFIObject &Obj, MutationKind Kind, RNG &R) {
  MCFIObject Mut = Obj;
  mutateBytes(Mut.Code, Kind, R);
  return Mut;
}

/// The decode attached to a sealed module is a fresh sweep of its
/// mapped bytes: every decoded offset holds what visa::decode reads
/// there, and consecutive instructions leave no gap but a declared jump
/// table — so the stream the VM executes is the one the verifier checked.
void expectDecodeIsFreshSweep(const Machine &M, const MappedModule &MM,
                              const std::string &What) {
  ASSERT_TRUE(MM.Sealed && MM.Decode) << What << ": sealed without a decode";
  const DecodedModule &D = *MM.Decode;
  size_t Size = MM.Obj->Code.size();
  const uint8_t *Code = M.codePtr(MM.CodeBase, Size);
  ASSERT_TRUE(Code);
  ASSERT_EQ(D.IndexByOff.size(), MM.CodeSize) << What;
  size_t Covered = 0;
  for (uint64_t Off = 0; Off != MM.CodeSize; ++Off) {
    int32_t Idx = D.IndexByOff[Off];
    if (Idx < 0)
      continue;
    ++Covered;
    const DInstr &DI = D.Stream[static_cast<size_t>(Idx)];
    visa::Instr I;
    ASSERT_TRUE(visa::decode(Code, Size, Off, I)) << What << " @" << Off;
    ASSERT_TRUE(DI.PC == MM.CodeBase + Off && DI.I.Op == I.Op &&
                DI.I.Rd == I.Rd && DI.I.Ra == I.Ra && DI.I.Rb == I.Rb &&
                DI.I.Off == I.Off && DI.I.Imm == I.Imm &&
                DI.I.Length == I.Length)
        << What << ": executed decode differs at offset " << Off;
  }
  ASSERT_EQ(Covered, D.Stream.size()) << What;
  auto isTable = [&](uint64_t From, uint64_t To) {
    for (const JumpTableInfo &JT : MM.Obj->Aux.JumpTables)
      if (JT.TableOffset == From &&
          JT.TableOffset + 8 * JT.Targets.size() == To)
        return true;
    return From == To;
  };
  uint64_t End = 0;
  for (const DInstr &DI : D.Stream) {
    uint64_t Off = DI.PC - MM.CodeBase;
    EXPECT_TRUE(isTable(End, Off))
        << What << ": undecoded bytes [" << End << ", " << Off << ")";
    End = Off + DI.I.Length;
  }
  EXPECT_TRUE(isTable(End, Size)) << What << ": undecoded tail at " << End;
}

struct MutantTally {
  unsigned Mutants = 0, Rejected = 0;
  unsigned Stops[4] = {}; ///< runs per StopReason
};

/// A fresh machine sized for one mutant run.
Machine mutantMachine() {
  MachineOptions MO;
  MO.CodeCapacity = 1ull << 20;
  MO.DataCapacity = 8ull << 20;
  MO.StackSize = 256ull << 10;
  MO.BaryCapacity = 1u << 14;
  return Machine(MO);
}

constexpr uint64_t MutantFuel = 200'000;

/// Dlopens \p Plugin into a minimal host (\p MinimalMain linked beside
/// \p Rt), checks that its decode is a fresh sweep, and runs the function
/// at code offset \p ProbeOffset on a fuel budget. Returns the stop
/// reason, or nothing if the linker refused the plugin.
std::optional<StopReason> dlopenAndProbe(MCFIObject Plugin,
                                         const MCFIObject &Rt,
                                         const MCFIObject &MinimalMain,
                                         uint64_t ProbeOffset,
                                         const std::string &What) {
  Machine M = mutantMachine();
  Linker L(M);
  std::string Err;
  if (!L.linkProgram({MinimalMain, Rt}, Err))
    return std::nullopt;
  L.registerLibrary(std::move(Plugin));
  int64_t H = L.dlopen(0);
  if (H < 0)
    return std::nullopt;
  const MappedModule &MM = M.modules()[static_cast<size_t>(H)];
  expectDecodeIsFreshSweep(M, MM, What);
  Thread T;
  T.PC = MM.CodeBase + ProbeOffset;
  T.Regs[visa::RegSP] = M.allocStack();
  return M.run(T, MutantFuel).Reason;
}

/// Runs one mutant (or an original) through serialization, the
/// standalone verifier, a fresh link and a fueled run. \p Host links the
/// mutant as the program beside the rt library; otherwise it is dlopened
/// into a minimal host and its probe runs. Returns the stop reason of a
/// run, or nothing for a clean reject.
std::optional<StopReason> runMutant(const MCFIObject &Obj, bool Host,
                                    const MCFIObject &Rt,
                                    const MCFIObject &MinimalMain,
                                    const std::string &Probe,
                                    const std::string &What) {
  MCFIObject Loaded;
  if (!readObject(writeObject(Obj), Loaded))
    return std::nullopt;
  if (!verifyModule(Loaded.Code.data(), Loaded.Code.size(), Loaded).Ok)
    return std::nullopt;
  if (!Host) {
    const FunctionInfo *F = Loaded.findFunction(Probe);
    if (!F)
      return std::nullopt;
    uint64_t ProbeOffset = F->CodeOffset;
    return dlopenAndProbe(std::move(Loaded), Rt, MinimalMain, ProbeOffset,
                          What);
  }

  Machine M = mutantMachine();
  Linker L(M);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Loaded));
  Objs.push_back(Rt);
  std::string Err;
  if (!L.linkProgram(std::move(Objs), Err))
    return std::nullopt; // relocation moved bytes the verifier rejects
  expectDecodeIsFreshSweep(M, M.modules()[1], What); // after the bootstrap
  return runProgram(M, MutantFuel).Reason;
}

TEST(MutantPipeline, SeededMutantsRejectOrRunWhatWasVerified) {
  // Random byte flips, 8-byte splats and truncations of the gcc-profile
  // host and of 8 generated plugins. Every mutant goes through the
  // verifier; each accepted one is linked (the host) or dlopened (a
  // plugin) and run on a fuel budget. The only admissible outcomes are a
  // clean reject, exit, trap, CFI stop or fuel exhaustion, and every
  // sealed mutant executes exactly the decode the verifier checked.
  BenchProfile Gcc;
  for (const BenchProfile &P : specProfiles())
    if (P.Name == "gcc")
      Gcc = P;
  ASSERT_EQ(Gcc.Name, "gcc");
  Gcc.WorkIterations = 2;
  CompileResult Host = compileModule(generateWorkload(Gcc, WorkloadVariant::Fixed),
                                     {.ModuleName = "gcc"});
  ASSERT_TRUE(Host.Ok) << (Host.Errors.empty() ? "?" : Host.Errors.front());
  CompileResult Rt = compileModule(runtimeLibrarySource(), {.ModuleName = "rt"});
  ASSERT_TRUE(Rt.Ok);
  CompileResult Main =
      compileModule("int main() { return 0; }", {.ModuleName = "main"});
  ASSERT_TRUE(Main.Ok);

  struct Subject {
    MCFIObject Obj;
    bool Host;
    std::string Probe;
  };
  std::vector<Subject> Subjects;
  Subjects.push_back({std::move(Host.Obj), true, ""});
  RNG Gen(0x5eed'0017);
  for (unsigned K = 0; K != 8; ++K) {
    CompileOptions CO;
    CO.ModuleName = formatString("mplugin%u", K);
    CompileResult CR = compileModule(mutantPluginSource(K, Gen), CO);
    ASSERT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
    Subjects.push_back({std::move(CR.Obj), false, formatString("m%u_probe", K)});
  }

  constexpr unsigned MutantsPerKind = 64;
  MutantTally Tally;
  for (size_t S = 0; S != Subjects.size(); ++S) {
    const Subject &Sub = Subjects[S];
    std::string Name = Sub.Obj.Name;
    // The originals must verify, load and exit, or the mutants prove
    // nothing.
    std::optional<StopReason> Orig =
        runMutant(Sub.Obj, Sub.Host, Rt.Obj, Main.Obj, Sub.Probe, Name);
    ASSERT_TRUE(Orig.has_value()) << Name << " was rejected unmutated";
    ASSERT_EQ(*Orig, StopReason::Exited) << Name;

    RNG R(0x6d75'7461'6e74ull * (S + 1));
    for (MutationKind Kind : {MutationKind::ByteFlip, MutationKind::WordSplat,
                              MutationKind::Truncate}) {
      for (unsigned N = 0; N != MutantsPerKind; ++N) {
        std::string What = formatString("%s mutant %d/%u", Name.c_str(),
                                        static_cast<int>(Kind), N);
        MCFIObject Mut = mutateCode(Sub.Obj, Kind, R);
        ++Tally.Mutants;
        std::optional<StopReason> Out =
            runMutant(Mut, Sub.Host, Rt.Obj, Main.Obj, Sub.Probe, What);
        if (HasFatalFailure())
          return;
        // Every StopReason is admissible: the property is that the host
        // survives, the run stops within its fuel, and the decode check
        // above held.
        if (Out)
          ++Tally.Stops[static_cast<size_t>(*Out)];
        else
          ++Tally.Rejected;
      }
    }
  }
  unsigned Ran = Tally.Mutants - Tally.Rejected;
  std::printf("%u mutants: %u rejected; %u ran: %u exited, %u trapped, "
              "%u CFI stops, %u out of fuel\n",
              Tally.Mutants, Tally.Rejected, Ran,
              Tally.Stops[size_t(StopReason::Exited)],
              Tally.Stops[size_t(StopReason::Trap)],
              Tally.Stops[size_t(StopReason::CfiViolation)],
              Tally.Stops[size_t(StopReason::OutOfFuel)]);
  EXPECT_EQ(Tally.Mutants, Subjects.size() * 3 * MutantsPerKind);
  EXPECT_GT(Tally.Rejected, 0u) << "no mutant was rejected";
  EXPECT_GT(Ran, 0u) << "no mutant was accepted and run";
}

TEST(MutantPipeline, SeededObjectByteMutantsEndCleanly) {
  // Byte flips and 8-byte splats of a serialized plugin (.mcfo): every
  // mutant goes through readObject, a dlopen into a minimal host and a
  // fueled probe run, and ends in exactly one clean outcome. Each of the
  // three stages sees at least one mutant.
  CompileResult Rt = compileModule(runtimeLibrarySource(), {.ModuleName = "rt"});
  ASSERT_TRUE(Rt.Ok);
  CompileResult Main =
      compileModule("int main() { return 0; }", {.ModuleName = "main"});
  ASSERT_TRUE(Main.Ok);
  RNG Gen(0x5eed'0017);
  CompileResult Plugin =
      compileModule(mutantPluginSource(0, Gen), {.ModuleName = "mplugin0"});
  ASSERT_TRUE(Plugin.Ok) << (Plugin.Errors.empty() ? "?"
                                                   : Plugin.Errors.front());
  const FunctionInfo *Probe = Plugin.Obj.findFunction("m0_probe");
  ASSERT_TRUE(Probe);
  // Mutants that keep the code length keep the probe where it was, so
  // every run starts at the original probe's offset.
  uint64_t ProbeOffset = Probe->CodeOffset;
  const std::vector<uint8_t> Blob = writeObject(Plugin.Obj);
  ASSERT_EQ(dlopenAndProbe(Plugin.Obj, Rt.Obj, Main.Obj, ProbeOffset,
                           "unmutated"),
            StopReason::Exited);

  constexpr unsigned Mutants = 5000;
  unsigned ReadRefused = 0, LinkRefused = 0;
  unsigned Stops[4] = {};
  RNG R(0x6d63'666f);
  for (unsigned N = 0; N != Mutants; ++N) {
    std::vector<uint8_t> Mut = Blob;
    mutateBytes(Mut, N % 2 ? MutationKind::WordSplat : MutationKind::ByteFlip,
                R);
    MCFIObject Obj;
    if (!readObject(Mut, Obj)) {
      ++ReadRefused;
      continue;
    }
    std::optional<StopReason> Out =
        dlopenAndProbe(std::move(Obj), Rt.Obj, Main.Obj, ProbeOffset,
                       formatString("object mutant %u", N));
    if (HasFatalFailure())
      return;
    if (Out)
      ++Stops[static_cast<size_t>(*Out)];
    else
      ++LinkRefused;
  }
  unsigned Ran = Mutants - ReadRefused - LinkRefused;
  std::printf("%u object mutants: %u refused by readObject, %u refused by "
              "the linker; %u ran: %u exited, %u trapped, %u CFI stops, %u "
              "out of fuel\n",
              Mutants, ReadRefused, LinkRefused, Ran,
              Stops[size_t(StopReason::Exited)],
              Stops[size_t(StopReason::Trap)],
              Stops[size_t(StopReason::CfiViolation)],
              Stops[size_t(StopReason::OutOfFuel)]);
  EXPECT_GT(ReadRefused, 0u) << "no mutant was refused by readObject";
  EXPECT_GT(LinkRefused, 0u) << "no mutant was refused by the linker";
  EXPECT_GT(Ran, 0u) << "no mutant was dlopened and run";
}

} // namespace
