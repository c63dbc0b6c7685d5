//===- bench/bench_cfggen_speed.cpp - CFG generation speed ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// CFG-generation speed (Sec. 7): the type-matching approach is fast
/// enough for *dynamic* linking — the paper reports ~150 ms for gcc
/// (2.7 MB of code). We time generateCFG over each linked benchmark, over
/// all of them merged into one world, and over a synthetic merge-stress
/// world, next to the per-site reference generator it must match byte for
/// byte. The shape to reproduce is sub-second generation that scales
/// linearly with the loaded world. A last table times the persistent
/// merge the linker keeps over a gcc host with 64 plugins: one dlopen's
/// append, one dlclose's rewind and re-fold, and a from-scratch merge.
/// The run fails only if a policy differs from the reference; times are
/// reported, not gated.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "cfg/CFGReference.h"
#include "metrics/Harness.h"

#include "toolchain/Toolchain.h"

#include <chrono>
#include <cstdio>
#include <tuple>

using namespace mcfi;

namespace {

/// Best-of-5 wall time of \p Step, run after a fresh \p Setup each time.
template <typename SetupFn, typename StepFn>
double bestMsOf(SetupFn Setup, StepFn Step) {
  double BestMs = 1e99;
  for (int I = 0; I != 5; ++I) {
    Setup();
    auto T0 = std::chrono::steady_clock::now();
    Step();
    auto T1 = std::chrono::steady_clock::now();
    BestMs = std::min(
        BestMs, std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  return BestMs;
}

/// Best-of-5 wall time of \p Gen over \p Views, with the policy of the
/// last run stored to \p Out.
template <typename GenFn>
double bestMs(const std::vector<LoadedModuleView> &Views, GenFn Gen,
              CFGPolicy &Out) {
  return bestMsOf([] {}, [&] { Out = Gen(Views, nullptr); });
}

/// Synthetic dlopen-heavy world: 32 modules, each with 150 address-taken
/// functions and 60 variadic-pointer sites. Every distinct variadic key's
/// fixed-prefix scan walks all 4800 address-taken functions; the
/// per-site reference repeats that scan for each of the 1920 sites.
/// generateCFG only reads Aux and CodeBase, so no code is needed.
std::vector<MCFIObject> makeMergeStressModules() {
  std::vector<MCFIObject> Out;
  for (int Mi = 0; Mi != 32; ++Mi) {
    MCFIObject O;
    O.Name = "stress" + std::to_string(Mi);
    for (int F = 0; F != 150; ++F) {
      FunctionInfo FI;
      FI.Name = O.Name + "_f" + std::to_string(F);
      // 1-in-50 functions match the sites' (i64, ...) prefix; the rest
      // are scanned and rejected.
      FI.TypeSig = F % 50 == 0 ? "(i64,i64)->i64" : "(f64,i64)->i64";
      FI.CodeOffset = static_cast<uint64_t>(F) * 16;
      FI.AddressTaken = true;
      O.Aux.Functions.push_back(std::move(FI));
    }
    for (int S = 0; S != 60; ++S) {
      BranchSite BS;
      BS.Kind = BranchKind::IndirectCall;
      BS.BranchOffset = 150 * 16 + static_cast<uint64_t>(S) * 8;
      BS.Function = O.Name + "_f0";
      BS.TypeSig = "(i64,)->i64";
      BS.VariadicPointer = true;
      O.Aux.BranchSites.push_back(std::move(BS));
    }
    Out.push_back(std::move(O));
  }
  return Out;
}

/// A dlopen plugin: four address-taken (long)->long functions called
/// through a table, two (long,long)->long ones, and a driver. The host
/// has keys of both signatures, so every plugin joins host classes.
std::string pluginSource(unsigned N) {
  std::string P = formatString("p%u_", N);
  std::string S;
  for (int I = 0; I != 4; ++I)
    S += formatString("long %sf%d(long x) { return x * %u + %d; }\n",
                      P.c_str(), I, N + 3, I);
  for (int I = 0; I != 2; ++I)
    S += formatString("long %sg%d(long x, long y) { return (x ^ y) + %d; }\n",
                      P.c_str(), I, I);
  S += formatString("long (*%stab[4])(long);\n"
                    "long (*%stab2[2])(long, long);\n",
                    P.c_str(), P.c_str());
  S += formatString("long %sdrive(long acc) {\n", P.c_str());
  for (int I = 0; I != 4; ++I)
    S += formatString("  %stab[%d] = %sf%d;\n", P.c_str(), I, P.c_str(), I);
  for (int I = 0; I != 2; ++I)
    S += formatString("  %stab2[%d] = %sg%d;\n", P.c_str(), I, P.c_str(), I);
  S += formatString("  return %stab2[acc & 1](%stab[acc & 3](acc), acc);\n}\n",
                    P.c_str(), P.c_str());
  return S;
}

struct Row {
  double MergeMs = 0, RefMs = 0;
  CFGPolicy Policy;
  bool Identical = false;
};

Row timeBoth(const std::vector<LoadedModuleView> &Views) {
  Row R;
  CFGPolicy Ref;
  R.MergeMs = bestMs(Views, generateCFG, R.Policy);
  R.RefMs = bestMs(Views, generateCFGReference, Ref);
  R.Identical = policiesIdentical(R.Policy, Ref);
  return R;
}

} // namespace

int main() {
  benchHeader("Type-matching CFG generation speed, class-level merge vs "
              "per-site reference",
              "Sec. 7's 150ms-for-gcc");

  TablePrinter Table;
  Table.addRow({"benchmark", "code bytes", "IBs", "IBTs", "generateCFG",
                "reference", "ref/merge"});
  auto addRow = [&](const std::string &Name, uint64_t CodeBytes,
                    const Row &R) {
    Table.addRow({Name, std::to_string(CodeBytes),
                  std::to_string(R.Policy.NumIBs),
                  std::to_string(R.Policy.NumIBTs),
                  formatString("%.3f ms", R.MergeMs),
                  formatString("%.3f ms", R.RefMs),
                  formatString("%.2fx", R.RefMs / R.MergeMs)});
  };

  bool AllIdentical = true;
  auto check = [&](const std::string &Name, const Row &R) {
    if (!R.Identical) {
      std::fprintf(stderr, "FAIL: %s: generateCFG differs from the reference\n",
                   Name.c_str());
      AllIdentical = false;
    }
  };

  // Programs stay alive for the all-profiles world below.
  std::vector<BuiltProgram> Programs;
  double SumMerge = 0, SumRef = 0;
  for (const BenchProfile &P : specProfiles()) {
    std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
    BuiltProgram BP = buildProgram({Source});
    if (!BP.Ok) {
      std::fprintf(stderr, "%s failed: %s\n", P.Name.c_str(),
                   BP.Error.c_str());
      return 1;
    }
    std::vector<LoadedModuleView> Views;
    for (const MappedModule &Mod : BP.M->modules())
      Views.push_back({Mod.Obj.get(), Mod.CodeBase});
    Row R = timeBoth(Views);
    check(P.Name, R);
    SumMerge += R.MergeMs;
    SumRef += R.RefMs;
    addRow(P.Name, BP.CodeBytes, R);
    Programs.push_back(std::move(BP));
  }
  Table.addRow({"total", "", "", "", formatString("%.3f ms", SumMerge),
                formatString("%.3f ms", SumRef),
                formatString("%.2fx", SumRef / SumMerge)});

  // Every profile's modules merged into one world, laid out end to end.
  std::vector<LoadedModuleView> World;
  uint64_t WorldBytes = 0, Base = 0x400000;
  for (const BuiltProgram &BP : Programs)
    for (const MappedModule &Mod : BP.M->modules()) {
      World.push_back({Mod.Obj.get(), Base});
      Base += (Mod.Obj->Code.size() + 0xFFF) & ~0xFFFull;
      WorldBytes += Mod.Obj->Code.size();
    }
  Row WorldRow = timeBoth(World);
  check("all-profiles", WorldRow);
  addRow("all-profiles", WorldBytes, WorldRow);

  std::vector<MCFIObject> Stress = makeMergeStressModules();
  std::vector<LoadedModuleView> StressViews;
  for (size_t Mi = 0; Mi != Stress.size(); ++Mi)
    StressViews.push_back({&Stress[Mi], 0x10000 + Mi * 0x10000});
  Row StressRow = timeBoth(StressViews);
  check("merge-stress", StressRow);
  addRow("merge-stress", Stress.size() * (150 * 16 + 60 * 8), StressRow);
  Table.print();

  // The persistent merge over the gcc host plus 64 plugins. A dlopen
  // appends one plugin to a state holding the other 63; a dlclose of the
  // middle plugin truncates the state holding all 64 to that plugin and
  // folds its tombstone and the 32 plugins after it in again. Each time
  // includes the emit.
  const BuiltProgram *Gcc = nullptr;
  for (size_t I = 0; I != specProfiles().size(); ++I)
    if (specProfiles()[I].Name == "gcc")
      Gcc = &Programs[I];
  std::vector<LoadedModuleView> PluginWorld;
  uint64_t PluginBytes = 0, PluginBase = Gcc->M->codeTop();
  for (const MappedModule &Mod : Gcc->M->modules())
    PluginWorld.push_back({Mod.Obj.get(), Mod.CodeBase});
  const size_t HostViews = PluginWorld.size();
  std::vector<MCFIObject> Plugins;
  for (unsigned K = 0; K != 64; ++K) {
    CompileResult CR = compileModule(pluginSource(K),
                                     {.ModuleName = formatString("plug%u", K)});
    if (!CR.Ok) {
      std::fprintf(stderr, "plugin %u failed to compile\n", K);
      return 1;
    }
    Plugins.push_back(std::move(CR.Obj));
  }
  for (const MCFIObject &Obj : Plugins) {
    PluginWorld.push_back({&Obj, PluginBase});
    PluginBase += (Obj.Code.size() + 7) & ~7ull;
    PluginBytes += Obj.Code.size();
  }

  const size_t Dying = HostViews + 32;
  std::vector<LoadedModuleView> ClosedWorld = PluginWorld;
  ClosedWorld[Dying] = {
      nullptr, PluginWorld[Dying].CodeBase,
      static_cast<uint32_t>(PluginWorld[Dying].Obj->Aux.BranchSites.size())};
  CFGMerge Before63, All, State;
  for (size_t I = 0; I != PluginWorld.size(); ++I) {
    if (I + 1 != PluginWorld.size())
      Before63.append(PluginWorld[I]);
    All.append(PluginWorld[I]);
  }
  CFGPolicy Appended, Refolded, Scratch;
  double AppendMs = bestMsOf([&] { State = Before63; },
                             [&] {
                               State.append(PluginWorld.back());
                               Appended = State.emit();
                             });
  double RefoldMs = bestMsOf([&] { State = All; },
                             [&] {
                               State.truncate(Dying);
                               for (size_t I = Dying; I != ClosedWorld.size();
                                    ++I)
                                 State.append(ClosedWorld[I]);
                               Refolded = State.emit();
                             });
  double ScratchMs = bestMsOf([] {}, [&] {
    Scratch = generateCFG(PluginWorld);
  });
  CFGPolicy Ref = generateCFGReference(PluginWorld);
  CFGPolicy ClosedRef = generateCFGReference(ClosedWorld);
  for (const auto &[Name, P, Want] :
       {std::tuple<const char *, const CFGPolicy *, const CFGPolicy *>{
            "append", &Appended, &Ref},
        {"rewind and re-fold", &Refolded, &ClosedRef},
        {"from scratch", &Scratch, &Ref}})
    if (!policiesIdentical(*P, *Want)) {
      std::fprintf(stderr,
                   "FAIL: gcc+64 plugins: %s differs from the reference\n",
                   Name);
      AllIdentical = false;
    }

  TablePrinter Persist;
  Persist.addRow({"world", "code bytes", "IBs", "IBTs", "append 64th",
                  "close 32nd: rewind + re-fold", "generateCFG"});
  Persist.addRow({"gcc+64 plugins",
                  std::to_string(Gcc->CodeBytes + PluginBytes),
                  std::to_string(Ref.NumIBs), std::to_string(Ref.NumIBTs),
                  formatString("%.3f ms", AppendMs),
                  formatString("%.3f ms", RefoldMs),
                  formatString("%.3f ms", ScratchMs)});
  std::printf("\n");
  Persist.print();

  std::printf("\npaper: ~150 ms for gcc's 2.7 MB; at our ~10x smaller scale\n"
              "generation must stay well under that, fast enough to run\n"
              "inside dlopen. generateCFG unions once per target-set key and\n"
              "per return class; the reference materialises every site's\n"
              "target list. The persistent merge pays for the module a\n"
              "dlopen adds, and a dlclose for the modules loaded after the\n"
              "dying one, not for the host. All columns are best of 5.\n");
  if (!AllIdentical)
    return 1;
  std::printf("all policies byte-identical to the reference\n");
  return 0;
}
