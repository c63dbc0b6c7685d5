//===- bench/bench_space.cpp - Space overhead accounting ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Space overhead (Sec. 8.1): MCFI increases static code size (checks +
/// alignment no-ops; paper: ~17% average) and reserves table memory as
/// large as the code region for the Tary table (one 4-byte ID per
/// 4-byte-aligned code address) plus the Bary table.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "metrics/Harness.h"

#include <cstdio>

using namespace mcfi;

int main() {
  benchHeader("Static code-size increase and table-region sizing",
              "the space-overhead discussion of Sec. 8.1");

  TablePrinter Table;
  Table.addRow({"benchmark", "base code", "mcfi code", "increase",
                "tary bytes"});

  double Sum = 0;
  unsigned Count = 0;
  for (const BenchProfile &P : specProfiles()) {
    std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
    BuildSpec Plain;
    Plain.Instrument = false;
    BuiltProgram Base = buildProgram({Source}, Plain);
    BuiltProgram Inst = buildProgram({Source});
    if (!Base.Ok || !Inst.Ok) {
      std::fprintf(stderr, "%s failed\n", P.Name.c_str());
      return 1;
    }
    double Increase = 100.0 * (static_cast<double>(Inst.CodeBytes) /
                                   static_cast<double>(Base.CodeBytes) -
                               1.0);
    Sum += Increase;
    ++Count;
    // The Tary table mirrors the code region: one 4-byte entry per
    // 4-byte-aligned address = table size == code size.
    uint64_t Tary = Inst.M->codeTop() - Machine::CodeBase;
    Table.addRow({P.Name, std::to_string(Base.CodeBytes),
                  std::to_string(Inst.CodeBytes), pct(Increase),
                  std::to_string(Tary)});
  }
  Table.addRow({"average", "", "", pct(Sum / Count), ""});
  Table.print();
  std::printf("\npaper: ~17%% average static code-size increase; the Tary\n"
              "table reserves as many bytes as the code region, but it is\n"
              "demand-zero: resident table memory tracks the code loaded\n");
  return 0;
}
