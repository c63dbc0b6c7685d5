//===- metrics/Harness.h - Build-and-run experiment harness -----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared experiment harness: compiles a workload (plus the rt
/// library) in instrumented or baseline mode, links it into a fresh
/// Machine, runs it, and reports retired instructions, wall time, and
/// code-size accounting. Every bench binary (Figs. 5/6, Tables 1-3, the
/// AIR and gadget tables) builds on this.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_METRICS_HARNESS_H
#define MCFI_METRICS_HARNESS_H

#include "linker/Linker.h"
#include "mlta/Mlta.h"
#include "runtime/Machine.h"
#include "toolchain/Toolchain.h"
#include "workload/Workload.h"

#include <memory>
#include <string>

namespace mcfi {

/// A fully linked program ready to run.
struct BuiltProgram {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
  /// The MLTA refinement applied at link time (BuildSpec::Mlta). Owned
  /// here because LinkOptions::Refinement borrows it for the linker's
  /// whole lifetime — every later dlopen/dlclose regeneration reads it.
  std::unique_ptr<CFGRefinement> Refinement;
  /// The layered-map analysis behind Refinement (BuildSpec::Mlta);
  /// exposed for the audit/bench consumers' per-site FLTA-vs-MLTA view.
  std::unique_ptr<mlta::MltaResult> Mlta;
  uint64_t CodeBytes = 0; ///< total mapped code size
  std::string Error;
  bool Ok = false;
};

struct BuildSpec {
  bool Instrument = true;
  bool TailCalls = true;
  bool LinkRtLibrary = true;
  /// Run the multi-layer type analysis over all translation units (rt
  /// library and ExtraAnalysisSources included) and link under the
  /// resulting refinement. The refined policy applies to every policy
  /// the linker generates, dlopen/dlclose regenerations included.
  bool Mlta = false;
  /// Sources that will be dlopen'd into this program later: analyzed
  /// with the static modules (so the layered map sees their stores and
  /// call sites) but NOT linked here. The caller still compiles and
  /// registerLibrary()s them separately.
  std::vector<std::string> ExtraAnalysisSources;
  uint64_t Seed = 0;
  /// Execution tier of the built Machine (both tiers RunResult-identical;
  /// the differential tier harness pins each one explicitly).
  ExecTier Tier = ExecTier::Threaded;
};

/// Compiles \p Sources (each a translation unit) and links them.
BuiltProgram buildProgram(const std::vector<std::string> &Sources,
                          const BuildSpec &Spec = {});

/// One measured execution.
struct Measured {
  RunResult Result;
  double Seconds = 0;
  std::string Output;
};

/// Runs the program's _start to completion, timing it.
Measured measureRun(BuiltProgram &BP, uint64_t Fuel = ~0ull);

/// Runs a profile end-to-end in the given mode; convenience for the
/// overhead benches. Checks that the run exits cleanly.
Measured runProfile(const BenchProfile &Profile, bool Instrument,
                    std::string *OutputCheck = nullptr,
                    ExecTier Tier = ExecTier::Threaded);

} // namespace mcfi

#endif // MCFI_METRICS_HARNESS_H
