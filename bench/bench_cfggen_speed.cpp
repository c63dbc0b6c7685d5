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
/// linearly with the loaded world. The run fails only if a policy differs
/// from the reference; times are reported, not gated.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "cfg/CFGReference.h"
#include "metrics/Harness.h"

#include <chrono>
#include <cstdio>

using namespace mcfi;

namespace {

/// Best-of-5 wall time of \p Gen over \p Views, with the policy of the
/// last run stored to \p Out.
template <typename GenFn>
double bestMs(const std::vector<LoadedModuleView> &Views, GenFn Gen,
              CFGPolicy &Out) {
  double BestMs = 1e99;
  for (int I = 0; I != 5; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Out = Gen(Views, nullptr);
    auto T1 = std::chrono::steady_clock::now();
    BestMs = std::min(
        BestMs, std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  return BestMs;
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

  std::printf("\npaper: ~150 ms for gcc's 2.7 MB; at our ~10x smaller scale\n"
              "generation must stay well under that, fast enough to run\n"
              "inside dlopen. generateCFG unions once per target-set key and\n"
              "per return class; the reference materialises every site's\n"
              "target list. Both columns are best of 5 runs.\n");
  if (!AllIdentical)
    return 1;
  std::printf("all policies byte-identical to the reference\n");
  return 0;
}
