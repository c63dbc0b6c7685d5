//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each is a closed loop in one process with at most
/// two threads: the next operation starts when the previous one returns.
/// Untraced, a workload fills RunOutput::EndToEnd; traced, it runs half
/// its time untraced and half traced and fills RunOutput::PerLayer.
///
/// Every workload reports the same end-to-end metrics; "op" and "unload"
/// name the operation the workload is built around:
///
///   workload        op (op_p50_us)                     unload
///   spec-run        a 500k-instruction dispatch slice  program teardown
///   plugin-churn    dlopen + first probe call          dlclose
///   jit-concurrent  dlopen + first probe call          dlclose
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_PERFBENCH_WORKLOADS_H
#define MCFI_PERFBENCH_WORKLOADS_H

#include "Bench.h"

namespace perfbench {

RunOutput runSpecRun(const Options &O);
RunOutput runPluginChurn(const Options &O);
RunOutput runJitConcurrent(const Options &O);

/// The timing metrics of one untraced run, raw, each with the calibration
/// factor of the phase (and thread) it was measured in.
struct Timings {
  Samples Setups, Compiles, Ops, Unloads;
  double GuestMips = 0;
  double SetupFactor = 1, CompileFactor = 1, RunFactor = 1, MipsFactor = 1;
};

/// Reports the timing end-to-end metrics every workload shares, scaled to
/// the nominal machine; prints the raw values.
void reportTimings(Report &R, const Timings &T);

} // namespace perfbench

#endif // MCFI_PERFBENCH_WORKLOADS_H
