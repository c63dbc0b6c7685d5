//===- perfbench/src/Layers.h - Calls into the MCFI layers ------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every call the workloads make into a layer of the program goes
/// through here, so the traced run can put a span around it. The traced
/// run also replays what the linker does internally (the frontend stages,
/// generateCFG, verifyModule, the installed ID tables) from the public
/// entry points, and checks each replay against the program's own result.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_PERFBENCH_LAYERS_H
#define MCFI_PERFBENCH_LAYERS_H

#include "Bench.h"

#include "linker/Linker.h"
#include "toolchain/Toolchain.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// compileModule. In the traced run the six frontend stages are also run
/// one by one under spans, and their object must be byte-identical to
/// compileModule's.
mcfi::CompileResult compile(const std::string &Source,
                            const mcfi::CompileOptions &Opts, Tally &Checks,
                            LayerCounters &LC);

/// A Machine with default options (span runtime.machine_init).
std::unique_ptr<mcfi::Machine> newMachine();

/// LinkOptions of an uninstrumented baseline program.
mcfi::LinkOptions baselineLinkOptions();

/// Linker::linkProgram (span linker.link).
bool link(mcfi::Linker &L, std::vector<mcfi::MCFIObject> Objects,
          std::string &Error);

/// Runs \p Entry to exit on a fresh Thread whose stack is \p Stack. Probe
/// threads reuse one preallocated stack: Machine::makeThread allocates a
/// new one per call and never frees it.
mcfi::RunResult runProbe(mcfi::Machine &M, uint64_t Entry, uint64_t Stack,
                         uint64_t Fuel);

/// Traced run only: regenerates the CFG from the live module views and
/// requires it to equal Linker::policy(), then reads the installed ID
/// tables back and requires them to encode that policy.
void auditPolicy(mcfi::Linker &L, mcfi::Machine &M, Tally &Checks,
                 LayerCounters &LC);

/// Traced run only: verifies modules [First, Last) of \p M again.
void replayVerify(mcfi::Machine &M, size_t First, size_t Last, Tally &Checks,
                  LayerCounters &LC);

/// Linker and table counters at one moment, to report a phase's share.
struct LinkerMark {
  size_t Updates = 0, Batches = 0, Unloads = 0;
  uint64_t Versioned = 0, SlowRetries = 0;
  mcfi::VMTierStats Vm;
};
LinkerMark markLinker(const mcfi::Linker &L, const mcfi::Machine &M);
/// Adds what \p L and \p M did since \p Since to \p LC.
void collectLinker(const mcfi::Linker &L, const mcfi::Machine &M,
                   const LinkerMark &Since, LayerCounters &LC);

/// Traced run: the dlopen/dlclose breakdown (span medians plus the
/// linker's own merge and retire timings).
void reportDynamicLinking(const LayerCounters &LC, Report &R);

/// Fills the per-layer report from the spans and \p LC.
void reportLayers(const LayerCounters &LC, double TraceOverheadPct,
                  Report &R);

/// Geometric mean of positive values (0 for an empty input).
double geomean(const std::vector<double> &V);

} // namespace perfbench

#endif // MCFI_PERFBENCH_LAYERS_H
