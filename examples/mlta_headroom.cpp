//===- examples/mlta_headroom.cpp - layered-type refinement demo ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// MLTA headroom: two structurally distinct registry structs carry
/// function pointers of the *same* signature, so first-layer type
/// analysis (FLTA) merges every handler into one equivalence class. The
/// multi-layer type analysis keys each dispatch by its enclosing record
/// chain instead: the UI dispatcher may only reach handlers stored
/// through UiHooks, the net dispatcher only handlers stored through
/// NetHooks — including, after dlopen, the plugin's handler, because
/// chains unify across modules by canonical record signature.
///
/// The demo builds the program twice — type-matched and refined (the
/// layered map intersected with the dataflow engine) — runs both through
/// dlopen, and prints the per-site FLTA-vs-MLTA sets and the policy
/// precision. The refined run must behave identically
/// and the largest class must strictly shrink, or the demo fails.
///
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "mlta/Mlta.h"
#include "toolchain/Toolchain.h"

#include <cstdio>

using namespace mcfi;

int main() {
  const char *HostSource = R"(
    long plug_poke(long x);                /* provided by the plugin */
    struct UiHooks { long tag; long (*on_event)(long); };
    struct NetHooks { long t0; long t1; long (*on_event)(long); };
    long ui_click(long x) { return x + 1; }
    long ui_key(long x) { return x + 2; }
    long net_rx(long x) { return x * 2; }
    long net_tx(long x) { return x * 3; }
    struct UiHooks ui;
    struct NetHooks net;
    long run_ui(long x) { return ui.on_event(x); }
    long run_net(long x) { return net.on_event(x); }
    int main() {
      ui.tag = 1; ui.on_event = ui_click;
      net.t0 = 2; net.on_event = net_rx;
      print_int(run_ui(10));
      ui.on_event = ui_key;
      net.on_event = net_tx;
      print_int(run_ui(10) + run_net(10));
      long h = dlopen(0);
      if (h < 0) {
        print_str("dlopen failed\n");
        return 1;
      }
      print_int(plug_poke(10));
      return 0;
    }
  )";

  // The plugin stores its handler through the same canonical NetHooks
  // record type, so its dispatch chain unifies with the host's: MLTA
  // admits plug_rx at net-chain sites and keeps it out of UI sites.
  const char *PluginSource = R"(
    struct NetHooks { long t0; long t1; long (*on_event)(long); };
    long plug_rx(long x) { return x * 5; }
    struct NetHooks pnet;
    long plug_poke(long x) {
      pnet.on_event = plug_rx;
      return pnet.on_event(x);
    }
  )";

  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.EmitPlt = true;
  CompileResult Host = compileModule(HostSource, HostCO);
  CompileResult Plugin = compileModule(PluginSource, {.ModuleName = "plugin"});
  if (!Host.Ok || !Plugin.Ok) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }

  // The layered map sees every module that will ever be in the address
  // space, the dlopen'd plugin included.
  std::vector<FlowModule> Mods = {{Host.Prog.get(), "host"},
                                  {Plugin.Prog.get(), "plugin"}};
  mlta::MltaResult MR = mlta::analyzeLayeredTypes(Mods);
  for (const mlta::MltaSite &S : MR.Sites)
    std::printf("%s:%u [%s]: FLTA %zu -> MLTA %zu targets%s%s\n",
                S.Caller.c_str(), S.Loc.Line, S.Module.c_str(),
                S.Flta.size(), S.Refined ? S.Targets.size() : S.Flta.size(),
                S.Refined ? "" : " (fallback: ",
                S.Refined ? "" : (S.FallbackWhy + ")").c_str());
  CFGRefinement Refinement =
      computeRefinement(analyzeFunctionPointerFlow(Mods), MR);

  // Build and run twice: type-matched, then refined.
  std::string Outputs[2];
  PrecisionReport Reports[2];
  for (int Pass = 0; Pass != 2; ++Pass) {
    CompileResult H = compileModule(HostSource, HostCO);
    CompileResult P = compileModule(PluginSource, {.ModuleName = "plugin"});
    Machine M;
    LinkOptions LO;
    if (Pass)
      LO.Refinement = &Refinement;
    Linker L(M, LO);
    std::string Error;
    std::vector<MCFIObject> Objs;
    Objs.push_back(std::move(H.Obj));
    if (!L.linkProgram(std::move(Objs), Error)) {
      std::fprintf(stderr, "link error: %s\n", Error.c_str());
      return 1;
    }
    L.registerLibrary(std::move(P.Obj));
    RunResult R = runProgram(M);
    Outputs[Pass] = M.takeOutput();
    if (R.Reason != StopReason::Exited) {
      std::fprintf(stderr, "pass %d did not exit cleanly: %s\n", Pass,
                   R.Message.c_str());
      return 1;
    }
    Reports[Pass] = computePrecision(L.policy());
    std::printf("%s policy after dlopen: %llu EQCs, largest class %llu\n",
                Pass ? "refined" : "type-matched",
                static_cast<unsigned long long>(Reports[Pass].NumEQCs),
                static_cast<unsigned long long>(Reports[Pass].LargestClass));
  }

  if (Outputs[0] != Outputs[1]) {
    std::fprintf(stderr, "refined run diverged\n");
    return 1;
  }
  if (Reports[1].LargestClass >= Reports[0].LargestClass ||
      Reports[1].NumEQCs < Reports[0].NumEQCs) {
    std::fprintf(stderr, "no refinement headroom realized\n");
    return 1;
  }
  std::printf("refined run identical; largest class %llu -> %llu\n",
              static_cast<unsigned long long>(Reports[0].LargestClass),
              static_cast<unsigned long long>(Reports[1].LargestClass));
  return 0;
}
