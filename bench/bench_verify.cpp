//===- bench/bench_verify.cpp - Verification throughput -------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Verification throughput (Sec. 6's "a few milliseconds per module"):
/// MB/s of the structural checks plus the Fig. 4 template walk over the
/// instrumented workload modules.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "toolchain/Toolchain.h"
#include "verifier/Verifier.h"
#include "workload/Workload.h"

#include <chrono>
#include <cstdio>
#include <vector>

using namespace mcfi;

namespace {

/// Best-of-5 wall time of verifyModule.
double bestVerifyMs(const MCFIObject &Obj, bool &Ok) {
  double BestMs = 1e99;
  for (int I = 0; I != 5; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    VerifyResult R = verifyModule(Obj.Code.data(), Obj.Code.size(), Obj);
    auto T1 = std::chrono::steady_clock::now();
    Ok = R.Ok;
    BestMs = std::min(
        BestMs, std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
  return BestMs;
}

std::string mbps(uint64_t Bytes, double Ms) {
  return formatString("%.1f MB/s", Bytes / (Ms * 1e-3) / (1024.0 * 1024.0));
}

} // namespace

int main() {
  benchHeader("Verification throughput",
              "Sec. 6's per-module verification cost");

  TablePrinter Table;
  Table.addRow({"module", "code bytes", "sites", "verify"});

  uint64_t SumBytes = 0;
  double SumMs = 0;
  for (const BenchProfile &P : specProfiles()) {
    CompileOptions CO;
    CO.ModuleName = P.Name;
    CompileResult CR =
        compileModule(generateWorkload(P, WorkloadVariant::Fixed), CO);
    if (!CR.Ok) {
      std::fprintf(stderr, "%s failed: %s\n", CO.ModuleName.c_str(),
                   CR.Errors.empty() ? "?" : CR.Errors.front().c_str());
      return 1;
    }
    const MCFIObject &Obj = CR.Obj;
    bool Ok = false;
    double Ms = bestVerifyMs(Obj, Ok);
    if (!Ok) {
      std::fprintf(stderr, "FAIL: %s does not verify\n",
                   CO.ModuleName.c_str());
      return 1;
    }
    SumBytes += Obj.Code.size();
    SumMs += Ms;
    Table.addRow({CO.ModuleName, std::to_string(Obj.Code.size()),
                  std::to_string(Obj.Aux.BranchSites.size()),
                  mbps(Obj.Code.size(), Ms)});
  }
  Table.addRow({"total", std::to_string(SumBytes), "", mbps(SumBytes, SumMs)});
  Table.print();

  std::printf("\nShape to reproduce: the verifier checks tens of MB/s or "
              "more, well\nwithin dynamic-linking budgets.\n");
  return 0;
}
