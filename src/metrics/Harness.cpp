//===- metrics/Harness.cpp - Build-and-run experiment harness -------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"

#include <chrono>

using namespace mcfi;

BuiltProgram mcfi::buildProgram(const std::vector<std::string> &Sources,
                                const BuildSpec &Spec) {
  BuiltProgram BP;

  std::vector<MCFIObject> Objs;
  std::vector<std::unique_ptr<minic::Program>> Progs; // kept for MLTA
  std::vector<FlowModule> FlowMods;
  auto keepForAnalysis = [&](CompileResult &CR, const std::string &Name) {
    if (!Spec.Mlta || !CR.Prog)
      return;
    FlowMods.push_back({CR.Prog.get(), Name});
    Progs.push_back(std::move(CR.Prog));
  };
  for (size_t I = 0; I != Sources.size(); ++I) {
    CompileOptions CO;
    CO.ModuleName = "tu" + std::to_string(I);
    CO.Instrument = Spec.Instrument;
    CO.TailCalls = Spec.TailCalls;
    CompileResult CR = compileModule(Sources[I], CO);
    if (!CR.Ok) {
      BP.Error = CR.Errors.empty() ? "compile failed" : CR.Errors.front();
      return BP;
    }
    keepForAnalysis(CR, CO.ModuleName);
    Objs.push_back(std::move(CR.Obj));
  }
  if (Spec.LinkRtLibrary) {
    CompileOptions CO;
    CO.ModuleName = "rt";
    CO.Instrument = Spec.Instrument;
    CO.TailCalls = Spec.TailCalls;
    CompileResult CR = compileModule(runtimeLibrarySource(), CO);
    if (!CR.Ok) {
      BP.Error = "rt library: " +
                 (CR.Errors.empty() ? "compile failed" : CR.Errors.front());
      return BP;
    }
    keepForAnalysis(CR, CO.ModuleName);
    Objs.push_back(std::move(CR.Obj));
  }
  if (Spec.Mlta)
    for (size_t I = 0; I != Spec.ExtraAnalysisSources.size(); ++I) {
      CompileOptions CO;
      CO.ModuleName = "dyn" + std::to_string(I);
      CO.Instrument = Spec.Instrument;
      CO.TailCalls = Spec.TailCalls;
        CompileResult CR = compileModule(Spec.ExtraAnalysisSources[I], CO);
      if (!CR.Ok) {
        BP.Error = "analysis source: " +
                   (CR.Errors.empty() ? "compile failed" : CR.Errors.front());
        return BP;
      }
      keepForAnalysis(CR, CO.ModuleName); // Obj discarded: analysis only
    }

  if (Spec.Mlta) {
    BP.Mlta = std::make_unique<mlta::MltaResult>(
        mlta::analyzeLayeredTypes(FlowMods));
    BP.Refinement = std::make_unique<CFGRefinement>(
        mlta::computeMltaRefinement(*BP.Mlta));
    Progs.clear(); // refinement holds names only; the ASTs can go
    FlowMods.clear();
  }

  MachineOptions MO;
  MO.Tier = Spec.Tier;
  BP.M = std::make_unique<Machine>(MO);
  LinkOptions LO;
  LO.Verify = Spec.Instrument;
  LO.InstallPolicy = Spec.Instrument;
  LO.InstrumentBootstrap = Spec.Instrument;
  LO.Refinement = BP.Refinement.get(); // null unless Spec.Mlta
  BP.L = std::make_unique<Linker>(*BP.M, LO);
  if (!BP.L->linkProgram(std::move(Objs), BP.Error))
    return BP;

  for (const MappedModule &Mod : BP.M->modules())
    BP.CodeBytes += Mod.Obj->Code.size();
  BP.Ok = true;
  return BP;
}

Measured mcfi::measureRun(BuiltProgram &BP, uint64_t Fuel) {
  Measured M;
  auto T0 = std::chrono::steady_clock::now();
  M.Result = runProgram(*BP.M, Fuel);
  auto T1 = std::chrono::steady_clock::now();
  M.Seconds = std::chrono::duration<double>(T1 - T0).count();
  M.Output = BP.M->takeOutput();
  return M;
}

Measured mcfi::runProfile(const BenchProfile &Profile, bool Instrument,
                          std::string *OutputCheck, ExecTier Tier) {
  std::string Source =
      generateWorkload(Profile, WorkloadVariant::Fixed);
  BuildSpec Spec;
  Spec.Instrument = Instrument;
  Spec.Tier = Tier;
  BuiltProgram BP = buildProgram({Source}, Spec);
  Measured M;
  if (!BP.Ok) {
    M.Result.Reason = StopReason::Trap;
    M.Result.Message = BP.Error;
    return M;
  }
  M = measureRun(BP);
  if (OutputCheck)
    *OutputCheck = M.Output;
  return M;
}
