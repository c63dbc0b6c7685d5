//===- tools/mcfi-verify.cpp - Standalone module verification --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-verify: runs the independent modular verifier over a .mcfo file,
/// printing every finding. A module produced by *any* compiler is safe
/// to load iff it verifies — the rewriter stays outside the TCB.
///
///   mcfi-verify [--json] module.mcfo [more.mcfo ...]
///
/// Runs the structural checks and the Fig. 4 template walk.
///
/// With --json, emits one machine-readable report on stdout (the same
/// per-module shape mcfi-audit uses; see docs/INTERNALS.md).
///
/// Exit code 0 iff every module verifies.
///
//===----------------------------------------------------------------------===//

#include "tools/ToolCommon.h"
#include "verifier/Verifier.h"

#include <sstream>

using namespace mcfi;
using namespace mcfi::tools;

int main(int argc, char **argv) {
  bool Json = false;
  std::vector<std::string> Inputs;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json")
      Json = true;
    else
      Inputs.push_back(std::move(Arg));
  }
  if (Inputs.empty())
    usage("usage: mcfi-verify [--json] module.mcfo [more.mcfo ...]");

  bool AllOk = true;
  std::ostringstream J;
  J << "{\"tool\":\"mcfi-verify\",\"modules\":[";
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const std::string &Path = Inputs[I];
    std::vector<uint8_t> Bytes;
    MCFIObject Obj;
    bool Loaded = readFileBytes(Path, Bytes) && readObject(Bytes, Obj);
    VerifyResult R;
    if (Loaded) {
      R = verifyModule(Obj.Code.data(), Obj.Code.size(), Obj);
    } else {
      R.Ok = false;
      R.Errors.push_back("cannot load module");
      if (!Json)
        std::fprintf(stderr, "mcfi-verify: cannot load %s\n", Path.c_str());
    }
    AllOk = AllOk && R.Ok;

    if (Json) {
      if (I)
        J << ",";
      J << "{\"name\":\"" << jsonEscape(Path) << "\",\"codeBytes\":"
        << Obj.Code.size() << ",\"branchSites\":"
        << Obj.Aux.BranchSites.size() << ",\"verify\":{\"ok\":"
        << (R.Ok ? "true" : "false") << ",\"findings\":[";
      for (size_t E = 0; E < R.Errors.size(); ++E)
        J << (E ? "," : "") << "\"" << jsonEscape(R.Errors[E]) << "\"";
      J << "]}}";
      continue;
    }
    if (R.Ok) {
      std::printf("%s: OK (%zu branch sites, %zu bytes)\n", Path.c_str(),
                  Obj.Aux.BranchSites.size(), Obj.Code.size());
    } else if (Loaded) {
      std::printf("%s: FAILED, %zu finding(s)\n", Path.c_str(),
                  R.Errors.size());
      for (const std::string &E : R.Errors)
        std::printf("  %s\n", E.c_str());
    }
  }
  if (Json) {
    J << "],\"ok\":" << (AllOk ? "true" : "false") << "}";
    std::printf("%s\n", J.str().c_str());
  }
  return AllOk ? 0 : 1;
}
