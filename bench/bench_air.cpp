//===- bench/bench_air.cpp - AIR metric reproduction ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The AIR (Average Indirect-target Reduction) comparison of Sec. 8.3:
/// how much each CFI policy shrinks indirect-branch target sets relative
/// to "any code byte". Computed on each benchmark for MCFI's
/// fine-grained policy, the same refined (BuildSpec::Refine), a
/// binCFI-style two-class policy, and a NaCl-style chunk policy. Paper: MCFI has the best AIR (~0.99+),
/// above binCFI (~0.986) and NaCl-style chunking.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "metrics/Harness.h"
#include "metrics/Metrics.h"

#include <cstdio>

using namespace mcfi;

int main() {
  benchHeader("AIR: average indirect-target reduction per policy",
              "the AIR table of Sec. 8.3");

  TablePrinter Table;
  Table.addRow(
      {"benchmark", "MCFI", "MCFI+refined", "binCFI-style", "NaCl-style"});

  double SumM = 0, SumL = 0, SumB = 0, SumN = 0;
  unsigned Count = 0;
  bool Ok = true;
  for (const BenchProfile &P : specProfiles()) {
    std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
    auto airFor = [&](bool Refine, double &Out) {
      BuildSpec Spec;
      Spec.Refine = Refine;
      BuiltProgram BP = buildProgram({Source}, Spec);
      if (!BP.Ok) {
        std::fprintf(stderr, "%s failed: %s\n", P.Name.c_str(),
                     BP.Error.c_str());
        std::exit(1);
      }
      std::vector<LoadedModuleView> Views;
      for (const MappedModule &Mod : BP.M->modules())
        Views.push_back({Mod.Obj.get(), Mod.CodeBase});
      AIRReport R = computeAIR(BP.L->policy(), Views, BP.CodeBytes);
      Out = R.MCFI;
      return R;
    };
    double M, L;
    AIRReport R = airFor(/*Refine=*/false, M);
    airFor(/*Refine=*/true, L);
    SumM += M;
    SumL += L;
    SumB += R.BinCFI;
    SumN += R.NaCl;
    ++Count;
    // Refinement removes targets, so its AIR may never dip below the
    // signature-only policy's.
    if (L < M) {
      std::fprintf(stderr, "%s: refined AIR %.6f below FLTA %.6f\n",
                   P.Name.c_str(), L, M);
      Ok = false;
    }
    Table.addRow({P.Name, formatString("%.6f", M), formatString("%.6f", L),
                  formatString("%.4f", R.BinCFI),
                  formatString("%.4f", R.NaCl)});
  }
  Table.addRow({"average", formatString("%.6f", SumM / Count),
                formatString("%.6f", SumL / Count),
                formatString("%.4f", SumB / Count),
                formatString("%.4f", SumN / Count)});
  Table.print();
  std::printf("\npaper: MCFI 0.9930(x86-32)/0.9910(x86-64) > binCFI 0.9861 >\n"
              "NaCl-style chunking; MCFI must rank strictly best, and the\n"
              "refined policy must be at least as strong as FLTA MCFI\n");
  return Ok ? 0 : 1;
}
