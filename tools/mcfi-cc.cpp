//===- tools/mcfi-cc.cpp - The MCFI compiler driver ------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-cc: compiles one MiniC translation unit into a separately
/// instrumented .mcfo module (the paper's modified-LLVM + rewriter step).
///
///   mcfi-cc [options] input.minic
///     -o <file>        output path (default: input basename + .mcfo)
///     --name <name>    module name recorded in the object
///     --no-instrument  emit the unprotected baseline
///     --no-tailcalls   disable tail-call optimization ("x86-32 mode")
///     --plt            synthesize instrumented PLT entries for imports
///     --analyze        also run the C1/C2 analyzer and print a report
///
//===----------------------------------------------------------------------===//

#include "analyzer/Analyzer.h"
#include "toolchain/Toolchain.h"
#include "tools/ToolCommon.h"

using namespace mcfi;
using namespace mcfi::tools;

int main(int argc, char **argv) {
  CompileOptions CO;
  std::string Input, Output;
  bool Analyze = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-o" && I + 1 < argc) {
      Output = argv[++I];
    } else if (Arg == "--name" && I + 1 < argc) {
      CO.ModuleName = argv[++I];
    } else if (Arg == "--no-instrument") {
      CO.Instrument = false;
    } else if (Arg == "--no-tailcalls") {
      CO.TailCalls = false;
    } else if (Arg == "--plt") {
      CO.EmitPlt = true;
    } else if (Arg == "--analyze") {
      Analyze = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      usage("mcfi-cc: unknown option; see the file header for usage");
    } else if (Input.empty()) {
      Input = Arg;
    } else {
      usage("mcfi-cc: exactly one input file expected");
    }
  }
  if (Input.empty())
    usage("usage: mcfi-cc [options] input.minic");
  if (Output.empty()) {
    Output = Input;
    size_t Dot = Output.rfind('.');
    if (Dot != std::string::npos)
      Output.resize(Dot);
    Output += ".mcfo";
  }
  if (CO.ModuleName == "module") {
    CO.ModuleName = Input;
    size_t Slash = CO.ModuleName.rfind('/');
    if (Slash != std::string::npos)
      CO.ModuleName = CO.ModuleName.substr(Slash + 1);
  }

  std::string Source;
  if (!readFileText(Input, Source)) {
    std::fprintf(stderr, "mcfi-cc: cannot read %s\n", Input.c_str());
    return 1;
  }

  CompileResult CR = compileModule(Source, CO);
  if (!CR.Ok) {
    for (const std::string &E : CR.Errors)
      std::fprintf(stderr, "%s: %s\n", Input.c_str(), E.c_str());
    return 1;
  }

  if (Analyze) {
    AnalysisReport R = analyzeConditions(*CR.Prog);
    std::printf("C1: %u violation(s) before elimination; UC=%u DC=%u MF=%u "
                "SU=%u NF=%u; %u residual (K1=%u K2=%u)\n",
                R.VBE, R.UC, R.DC, R.MF, R.SU, R.NF, R.VAE, R.K1, R.K2);
    std::printf("C2: %u unannotated inline assembly block(s)\n", R.C2Count);
    for (const C1Violation &V : R.C1)
      if (V.Eliminated == FPRule::None)
        std::printf("  line %u: %s (%s)\n", V.Loc.Line,
                    V.Description.c_str(),
                    V.Residual == ResidualKind::K1 ? "K1: needs a fix"
                                                   : "K2: benign");
  }

  if (!writeFileBytes(Output, writeObject(CR.Obj))) {
    std::fprintf(stderr, "mcfi-cc: cannot write %s\n", Output.c_str());
    return 1;
  }
  std::printf("%s: %zu bytes code, %zu branch sites, %zu functions -> %s\n",
              CO.ModuleName.c_str(), CR.Obj.Code.size(),
              CR.Obj.Aux.BranchSites.size(), CR.Obj.Aux.Functions.size(),
              Output.c_str());
  return 0;
}
