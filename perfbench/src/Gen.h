//===- perfbench/src/Gen.h - Seeded module generators -----------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniC sources for the dynamically loaded modules of the plugin-churn
/// and jit-concurrent workloads. Each module has a probe function that
/// ends in exit(v); the generator computes v in host C++ from the same
/// seed, so every probe is checked against a reference that does not go
/// through the compiler or the VM.
///
/// Module shapes are fixed and only constants depend on the seed, so
/// instruction counts (and with them instr_overhead_pct) do not move
/// between seeds while the values computed do.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_PERFBENCH_GEN_H
#define MCFI_PERFBENCH_GEN_H

#include <cstdint>
#include <string>

namespace perfbench {

struct GenModule {
  std::string Name;   ///< module name
  std::string Source; ///< MiniC translation unit
  std::string Probe;  ///< function to start a probe thread at
  std::string Export; ///< address-taken op a host may swap in ("" if none)
  int64_t Expected = 0; ///< the probe's exit code, computed in C++
};

/// Plugin \p Index of the plugin-churn set: four long(long) and two
/// long(long,long) functions reached through function-pointer tables.
GenModule makePlugin(uint64_t Seed, unsigned Index);

/// JIT op number \p Gen of the jit-concurrent workload: one long(long)
/// op exported through a pointer, and a probe calling it indirectly.
GenModule makeJitOp(uint64_t Seed, uint64_t Gen);

/// The jit-concurrent host: a spinner calling through current_op, which
/// bumps spin_count every iteration and enters a syscall every 1024.
std::string jitHostSource();

} // namespace perfbench

#endif // MCFI_PERFBENCH_GEN_H
