//===- tools/mcfi-audit.cpp - Policy-precision linter ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-audit: the whole-program policy-precision linter. It compiles a
/// module set, runs the C1/C2 condition analyzer over every module,
/// sharpens the residual K1/K2 split with the interprocedural
/// function-pointer dataflow engine (witness chains attached), verifies
/// every module, and reports the precision of the type-matching CFG —
/// optionally against the refined CFG (the dataflow engine intersected
/// with the layered type map), which only ever intersects target sets.
///
///   mcfi-audit [options] module.mc...
///   mcfi-audit --extract [options] example.cpp...
///
///   --extract            inputs are C++ files; audit every embedded
///                        R"( ... )" MiniC module (names are recovered
///                        from the surrounding code)
///   --refine             also run the multi-layer type analysis, generate
///                        the refined CFG (both analyses intersected) and
///                        compare, and check the soundness differential:
///                        every refined key's set lies inside the key's
///                        FLTA set (any violation fails the audit)
///   --json               machine-readable report on stdout
///   --fail-on <KIND>     exit 1 if findings of KIND remain:
///                        K1, K2, C1 (any residual), C2, none (default)
///   --tagged <t1,t2,..>  struct tags with a checked type-tag discipline
///                        (the analyzer's DC rule attestation)
///   --expect-refinement  implies --refine; exit 1 unless the refined CFG
///                        strictly improves: no fewer EQCs, largest
///                        class strictly smaller, AIR no worse
///   --fail-on-eqc-regression <N>
///                        exit 1 if the audited policy (refined if
///                        --refine, else type-matched) has fewer than N
///                        equivalence classes — CI pins the current EQC
///                        count against regressions
///
/// Exit code: 0 clean, 1 gate failed, 2 bad invocation or load error.
///
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "dataflow/Dataflow.h"
#include "metrics/Metrics.h"
#include "mlta/Mlta.h"
#include "toolchain/Toolchain.h"
#include "tools/ToolCommon.h"
#include "verifier/Verifier.h"

#include <cctype>
#include <cstring>
#include <sstream>

using namespace mcfi;
using namespace mcfi::tools;

namespace {

struct Options {
  bool Extract = false;
  bool Refine = false;
  bool Json = false;
  bool ExpectRefinement = false;
  long long EqcFloor = -1; ///< --fail-on-eqc-regression; -1 = off
  std::string FailOn = "none";
  std::set<std::string> Tagged;
  std::vector<std::string> Inputs;
};

struct AuditedModule {
  std::string Name;
  CompileResult CR;
  AnalysisReport Report;
  VerifyResult Verify;
};

const char *residualName(ResidualKind K) {
  return K == ResidualKind::K1 ? "K1" : K == ResidualKind::K2 ? "K2" : "-";
}

//===----------------------------------------------------------------------===//
// JSON report (schema shared with mcfi-verify --json; see
// docs/INTERNALS.md)
//===----------------------------------------------------------------------===//

void jsonPrecision(std::ostringstream &O, const PrecisionReport &P,
                   double Air) {
  O << "{\"numIBs\":" << P.NumIBs << ",\"numIBTs\":" << P.NumIBTs
    << ",\"numEQCs\":" << P.NumEQCs << ",\"largestClass\":" << P.LargestClass
    << ",\"avgClass\":" << P.AvgClass << ",\"air\":" << Air << "}";
}

void jsonMlta(std::ostringstream &O, const mlta::MltaResult &MR) {
  size_t Refined = 0;
  for (const mlta::MltaSite &S : MR.Sites)
    Refined += S.Refined;
  O << ",\"mlta\":{\"sites\":" << MR.Sites.size() << ",\"refined\":"
    << Refined << ",\"escapedRecords\":" << MR.EscapedRecords.size()
    << ",\"keepTargets\":" << MR.KeepTargets.size() << ",\"havoc\":"
    << (MR.Havoc ? "true" : "false") << ",\"perSite\":[";
  for (size_t I = 0; I < MR.Sites.size(); ++I) {
    const mlta::MltaSite &S = MR.Sites[I];
    if (I)
      O << ",";
    O << "{\"caller\":\"" << jsonEscape(S.Caller) << "\",\"module\":\""
      << jsonEscape(S.Module) << "\",\"line\":" << S.Loc.Line << ",\"sig\":\""
      << jsonEscape(S.PointerSig) << "\",\"chain\":\""
      << jsonEscape(mlta::chainKey(S.Chain)) << "\",\"refined\":"
      << (S.Refined ? "true" : "false") << ",\"mltaTargets\":"
      << S.Targets.size() << ",\"fltaTargets\":" << S.Flta.size();
    if (!S.Refined)
      O << ",\"fallback\":\"" << jsonEscape(S.FallbackWhy) << "\"";
    O << "}";
  }
  O << "]}";
}

std::string jsonReport(const std::vector<AuditedModule> &Mods,
                       const DataflowResult &Flow, const PrecisionReport &Un,
                       double UnAir, const PrecisionReport *Re, double ReAir,
                       const mlta::MltaResult &MR, size_t SubsetViolations,
                       bool Ok) {
  std::ostringstream O;
  O << "{\"tool\":\"mcfi-audit\",\"modules\":[";
  for (size_t I = 0; I < Mods.size(); ++I) {
    const AuditedModule &M = Mods[I];
    if (I)
      O << ",";
    O << "{\"name\":\"" << jsonEscape(M.Name) << "\",\"codeBytes\":"
      << M.CR.Obj.Code.size() << ",\"branchSites\":"
      << M.CR.Obj.Aux.BranchSites.size() << ",\"verify\":{\"ok\":"
      << (M.Verify.Ok ? "true" : "false") << ",\"findings\":[";
    for (size_t J = 0; J < M.Verify.Errors.size(); ++J)
      O << (J ? "," : "") << "\"" << jsonEscape(M.Verify.Errors[J]) << "\"";
    O << "]},\"analysis\":{\"vbe\":" << M.Report.VBE << ",\"uc\":"
      << M.Report.UC << ",\"dc\":" << M.Report.DC << ",\"mf\":" << M.Report.MF
      << ",\"su\":" << M.Report.SU << ",\"nf\":" << M.Report.NF << ",\"vae\":"
      << M.Report.VAE << ",\"k1\":" << M.Report.K1 << ",\"k2\":"
      << M.Report.K2 << ",\"c2\":" << M.Report.C2Count << ",\"residuals\":[";
    bool First = true;
    for (const C1Violation &V : M.Report.C1) {
      if (V.Residual == ResidualKind::None)
        continue;
      if (!First)
        O << ",";
      First = false;
      O << "{\"line\":" << V.Loc.Line << ",\"col\":" << V.Loc.Col
        << ",\"kind\":\"" << residualName(V.Residual) << "\","
        << "\"description\":\"" << jsonEscape(V.Description)
        << "\",\"witness\":[";
      for (size_t J = 0; J < V.Witness.size(); ++J)
        O << (J ? "," : "") << "\"" << jsonEscape(V.Witness[J]) << "\"";
      O << "]}";
    }
    O << "]}}";
  }
  O << "],\"flow\":{\"sites\":" << Flow.Sites.size() << ",\"complete\":";
  size_t Complete = 0;
  for (const SiteFlow &S : Flow.Sites)
    Complete += S.Complete;
  O << Complete << ",\"incompatible\":" << Flow.Incompatible.size()
    << ",\"havoc\":" << (Flow.Havoc ? "true" : "false") << ",\"escaped\":[";
  bool First = true;
  for (const std::string &E : Flow.EscapedFunctions) {
    O << (First ? "" : ",") << "\"" << jsonEscape(E) << "\"";
    First = false;
  }
  O << "],\"notes\":[";
  for (size_t I = 0; I < Flow.Notes.size(); ++I)
    O << (I ? "," : "") << "\"" << jsonEscape(Flow.Notes[I]) << "\"";
  O << "]},\"cfg\":{\"typeMatched\":";
  jsonPrecision(O, Un, UnAir);
  if (Re) {
    O << ",\"refined\":";
    jsonPrecision(O, *Re, ReAir);
    O << ",\"subsetViolations\":" << SubsetViolations;
  }
  O << "}";
  if (Re)
    jsonMlta(O, MR);
  O << ",\"ok\":" << (Ok ? "true" : "false") << "}";
  return O.str();
}

//===----------------------------------------------------------------------===//
// Human report
//===----------------------------------------------------------------------===//

void printHuman(const std::vector<AuditedModule> &Mods,
                const DataflowResult &Flow, const PrecisionReport &Un,
                double UnAir, const PrecisionReport *Re, double ReAir,
                const mlta::MltaResult &MR) {
  std::printf("== modules ==\n");
  for (const AuditedModule &M : Mods) {
    std::printf("  %-12s %5zu bytes, %3zu branch sites, verify %s\n",
                M.Name.c_str(), M.CR.Obj.Code.size(),
                M.CR.Obj.Aux.BranchSites.size(),
                M.Verify.Ok ? "OK" : "FAILED");
    for (const std::string &E : M.Verify.Errors)
      std::printf("    verifier: %s\n", E.c_str());
  }

  std::printf("\n== condition analysis (paper Sec. 6) ==\n");
  for (const AuditedModule &M : Mods) {
    const AnalysisReport &R = M.Report;
    std::printf("  %-12s VBE %u | UC %u DC %u MF %u SU %u NF %u | "
                "VAE %u (K1 %u, K2 %u) | C2 %u\n",
                M.Name.c_str(), R.VBE, R.UC, R.DC, R.MF, R.SU, R.NF, R.VAE,
                R.K1, R.K2, R.C2Count);
    for (const C1Violation &V : R.C1) {
      if (V.Residual == ResidualKind::None)
        continue;
      std::printf("    %s at %u:%u: %s\n", residualName(V.Residual),
                  V.Loc.Line, V.Loc.Col, V.Description.c_str());
      for (const std::string &W : V.Witness)
        std::printf("        %s\n", W.c_str());
    }
  }

  std::printf("\n== function-pointer flow ==\n");
  size_t Complete = 0;
  for (const SiteFlow &S : Flow.Sites)
    Complete += S.Complete;
  std::printf("  %zu indirect call sites (%zu complete), %zu incompatible "
              "flows, %zu escaped functions, havoc: %s\n",
              Flow.Sites.size(), Complete, Flow.Incompatible.size(),
              Flow.EscapedFunctions.size(), Flow.Havoc ? "YES" : "no");
  for (const std::string &N : Flow.Notes)
    std::printf("  note: %s\n", N.c_str());

  std::printf("\n== CFG precision ==\n");
  std::printf("  %-12s %6s %6s %6s %8s %7s %8s\n", "", "IBs", "IBTs", "EQCs",
              "largest", "avg", "AIR");
  std::printf("  %-12s %6llu %6llu %6llu %8llu %7.2f %8.5f\n", "type-match",
              (unsigned long long)Un.NumIBs, (unsigned long long)Un.NumIBTs,
              (unsigned long long)Un.NumEQCs,
              (unsigned long long)Un.LargestClass, Un.AvgClass, UnAir);
  if (Re) {
    std::printf("  %-12s %6llu %6llu %6llu %8llu %7.2f %8.5f\n", "refined",
                (unsigned long long)Re->NumIBs,
                (unsigned long long)Re->NumIBTs,
                (unsigned long long)Re->NumEQCs,
                (unsigned long long)Re->LargestClass, Re->AvgClass, ReAir);

    std::printf("\n== layered type map ==\n");
    std::printf("  %u records, %u chains, %u stores, %u copy edges, "
                "%u fixpoint rounds; %zu escaped records, %zu kept targets, "
                "havoc: %s\n",
                MR.Stats.Records, MR.Stats.Chains, MR.Stats.Stores,
                MR.Stats.CopyEdges, MR.Stats.Iterations,
                MR.EscapedRecords.size(), MR.KeepTargets.size(),
                MR.Havoc ? "YES" : "no");
    for (const mlta::MltaSite &S : MR.Sites) {
      if (S.Refined)
        std::printf("  %s:%u (%s) chain %s: %zu of %zu FLTA targets\n",
                    S.Caller.c_str(), S.Loc.Line, S.Module.c_str(),
                    mlta::chainKey(S.Chain).c_str(), S.Targets.size(),
                    S.Flta.size());
      else
        std::printf("  %s:%u (%s): FLTA fallback (%s), %zu targets\n",
                    S.Caller.c_str(), S.Loc.Line, S.Module.c_str(),
                    S.FallbackWhy.c_str(), S.Flta.size());
    }
    for (const std::string &N : MR.Notes)
      std::printf("  note: %s\n", N.c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--extract") {
      O.Extract = true;
    } else if (A == "--refine") {
      O.Refine = true;
    } else if (A == "--json") {
      O.Json = true;
    } else if (A == "--expect-refinement") {
      O.ExpectRefinement = O.Refine = true;
    } else if (A == "--fail-on-eqc-regression" && I + 1 < argc) {
      O.EqcFloor = std::atoll(argv[++I]);
      if (O.EqcFloor < 0)
        usage("mcfi-audit: --fail-on-eqc-regression expects a count >= 0");
    } else if (A == "--fail-on" && I + 1 < argc) {
      O.FailOn = argv[++I];
    } else if (A == "--tagged" && I + 1 < argc) {
      std::istringstream In(argv[++I]);
      std::string Tag;
      while (std::getline(In, Tag, ','))
        if (!Tag.empty())
          O.Tagged.insert(Tag);
    } else if (!A.empty() && A[0] == '-') {
      usage("mcfi-audit: unknown option (see header for usage)");
    } else {
      O.Inputs.push_back(A);
    }
  }
  if (O.Inputs.empty())
    usage("usage: mcfi-audit [--extract] [--refine] [--json] "
          "[--fail-on K1|K2|C1|C2|none] [--tagged t1,t2] "
          "[--expect-refinement] [--fail-on-eqc-regression N] input...");
  if (O.FailOn != "none" && O.FailOn != "K1" && O.FailOn != "K2" &&
      O.FailOn != "C1" && O.FailOn != "C2")
    usage("mcfi-audit: --fail-on expects K1, K2, C1, C2, or none");

  // Gather module sources.
  std::vector<ModuleSource> Sources;
  for (const std::string &Path : O.Inputs) {
    std::string Text;
    if (!readFileText(Path, Text)) {
      std::fprintf(stderr, "mcfi-audit: cannot read %s\n", Path.c_str());
      return 2;
    }
    if (O.Extract) {
      std::vector<ModuleSource> Ex = extractModules(Text);
      if (Ex.empty())
        std::fprintf(stderr, "mcfi-audit: no embedded modules in %s\n",
                     Path.c_str());
      Sources.insert(Sources.end(), Ex.begin(), Ex.end());
    } else {
      Sources.push_back({baseName(Path), Text});
    }
  }
  if (Sources.empty())
    return 2;

  // Compile, analyze, verify each module; skip non-MiniC snippets in
  // extract mode (an example may embed other text).
  std::vector<AuditedModule> Mods;
  AnalyzerConfig AC;
  AC.TaggedAbstractStructs = O.Tagged;
  for (ModuleSource &S : Sources) {
    AuditedModule M;
    M.Name = S.Name;
    M.CR = compileModule(S.Source, {.ModuleName = S.Name});
    if (!M.CR.Ok) {
      if (O.Extract) {
        std::fprintf(stderr,
                     "mcfi-audit: skipping '%s' (not a MiniC module: %s)\n",
                     S.Name.c_str(),
                     M.CR.Errors.empty() ? "?" : M.CR.Errors.front().c_str());
        continue;
      }
      std::fprintf(stderr, "mcfi-audit: %s: %s\n", S.Name.c_str(),
                   M.CR.Errors.empty() ? "compile error"
                                       : M.CR.Errors.front().c_str());
      return 2;
    }
    M.Report = analyzeConditions(*M.CR.Prog, AC);
    M.Verify = verifyModule(M.CR.Obj.Code.data(), M.CR.Obj.Code.size(),
                            M.CR.Obj);
    Mods.push_back(std::move(M));
  }
  if (Mods.empty()) {
    std::fprintf(stderr, "mcfi-audit: nothing to audit\n");
    return 2;
  }

  // Whole-program flow analysis; sharpen each module's residual split.
  std::vector<FlowModule> FlowMods;
  for (AuditedModule &M : Mods)
    FlowMods.push_back({M.CR.Prog.get(), M.Name});
  DataflowResult Flow = analyzeFunctionPointerFlow(FlowMods);
  for (AuditedModule &M : Mods)
    refineResidualsWithFlow(M.Report, M.Name, Flow);

  // CFG precision, type-matched and (optionally) refined. Modules are
  // laid out at page-aligned synthetic bases; precision and AIR only
  // depend on relative layout.
  std::vector<LoadedModuleView> Views;
  uint64_t Base = 0x400000, CodeSize = 0;
  for (const AuditedModule &M : Mods) {
    Views.push_back({&M.CR.Obj, Base});
    Base += (M.CR.Obj.Code.size() + 0xFFF) & ~0xFFFull;
    CodeSize += M.CR.Obj.Code.size();
  }
  CFGPolicy Unrefined = generateCFG(Views);
  PrecisionReport Un = computePrecision(Unrefined);
  double UnAir = computeAIR(Unrefined, Views, CodeSize).MCFI;

  // The refinement (flow and layered map intersected) plus the per-key
  // soundness differential: every refined set must sit inside the FLTA
  // set the type-matched CFG would enforce. A target the flow engine
  // proved type-incompatible is a K1 flow, reported above and cut by
  // type matching, not a violation.
  mlta::MltaResult MR;
  PrecisionReport Re;
  double ReAir = 0;
  size_t SubsetViolations = 0;
  if (O.Refine) {
    MR = mlta::analyzeLayeredTypes(FlowMods);
    CFGRefinement Refinement = computeRefinement(Flow, MR);
    CFGPolicy Refined = generateCFG(Views, &Refinement);
    Re = computePrecision(Refined);
    ReAir = computeAIR(Refined, Views, CodeSize).MCFI;
    std::map<std::pair<std::string, std::string>, std::set<std::string>> Flta;
    for (const mlta::MltaSite &S : MR.Sites)
      Flta[{S.Caller, S.PointerSig}].insert(S.Flta.begin(), S.Flta.end());
    std::set<std::vector<std::string>> K1Flows;
    for (const FlowFinding &F : Flow.Incompatible)
      K1Flows.insert({F.Caller, F.PointerSig, F.Target});
    for (const auto &[Key, Targets] : Refinement.Allowed)
      for (const std::string &T : Targets)
        if (!Flta[Key].count(T) && !K1Flows.count({Key.first, Key.second, T})) {
          std::fprintf(stderr,
                       "mcfi-audit: refinement soundness violation at %s "
                       "(%s): target %s outside the FLTA set\n",
                       Key.first.c_str(), Key.second.c_str(), T.c_str());
          ++SubsetViolations;
        }
  }

  // Gates.
  bool Ok = SubsetViolations == 0;
  for (const AuditedModule &M : Mods) {
    if (!M.Verify.Ok)
      Ok = false;
    if (O.FailOn == "K1" && M.Report.K1)
      Ok = false;
    if (O.FailOn == "K2" && M.Report.K2)
      Ok = false;
    if (O.FailOn == "C1" && M.Report.VAE)
      Ok = false;
    if (O.FailOn == "C2" && M.Report.C2Count)
      Ok = false;
  }
  if (O.ExpectRefinement &&
      !(Re.NumEQCs >= Un.NumEQCs && Re.LargestClass < Un.LargestClass &&
        ReAir >= UnAir))
    Ok = false;
  if (O.EqcFloor >= 0) {
    const PrecisionReport &Gate = O.Refine ? Re : Un;
    if ((long long)Gate.NumEQCs < O.EqcFloor) {
      std::fprintf(stderr,
                   "mcfi-audit: EQC regression: %llu classes, floor %lld\n",
                   (unsigned long long)Gate.NumEQCs, O.EqcFloor);
      Ok = false;
    }
  }

  if (O.Json) {
    std::printf("%s\n",
                jsonReport(Mods, Flow, Un, UnAir, O.Refine ? &Re : nullptr,
                           ReAir, MR, SubsetViolations, Ok)
                    .c_str());
  } else {
    printHuman(Mods, Flow, Un, UnAir, O.Refine ? &Re : nullptr, ReAir, MR);
    std::printf("\nstatus: %s\n", Ok ? "OK" : "FAILED");
  }
  return Ok ? 0 : 1;
}
