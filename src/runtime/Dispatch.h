//===- runtime/Dispatch.h - Predecoded threaded dispatch --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded execution tier. A DecodedModule is a decode-once image
/// of one sealed module's code range: each instruction is decoded exactly
/// once into a DInstr stream with precomputed fallthrough links and
/// recognized TxCheck superinstruction groups, then executed through a
/// function-pointer handler table (threaded dispatch) instead of the
/// decode-per-step switch. A DecodedSegment is a snapshot of the decodes
/// of every sealed, unreclaimed module for one code epoch. A module's
/// decode is keyed by its never-reused Serial and stays valid while that
/// serial is sealed and unreclaimed, so a new segment reuses the previous
/// segment's decodes and decodes only the modules sealed since: a dlopen
/// costs a decode of the new module, not of the world. PCs a segment does
/// not cover — a module retired before it was ever decoded, or a jump
/// into the middle of an instruction (overlapping-gadget targets) — fall
/// back to Machine::interpretStep, which performs the identical
/// fully-checked fetch/decode/execute step.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_RUNTIME_DISPATCH_H
#define MCFI_RUNTIME_DISPATCH_H

#include "runtime/Machine.h"
#include "visa/ISA.h"

#include <memory>
#include <vector>

namespace mcfi {

/// Superinstruction kinds recognized at predecode time.
enum class FusedKind : uint8_t {
  None = 0,
  /// The hot head of the Fig. 4 check transaction: the two ID-table
  /// reads (Bary/Tary in either scheduling order), the xor compare and
  /// the jz, executed by one fused handler. The table reads remain
  /// individually atomic and in program order, so a concurrent TxUpdate
  /// interleaves exactly as it would between discrete instructions.
  TxCheck,
};

/// One predecoded instruction.
struct DInstr {
  visa::Instr I;
  uint64_t PC = 0;   ///< absolute address of the instruction
  int32_t Fall = -1; ///< stream index of the fallthrough successor
  FusedKind Fused = FusedKind::None; ///< set on group heads only
};

/// An immutable predecoding of one sealed module's [Base, Base + Size).
struct DecodedModule {
  uint64_t Serial = 0; ///< MappedModule::Serial of the decoded module
  uint64_t Base = 0;   ///< absolute MappedModule::CodeBase
  uint64_t Size = 0;   ///< decoded byte extent (MappedModule::CodeSize)
  std::vector<DInstr> Stream;
  std::vector<int32_t> IndexByOff; ///< per byte: stream index or -1

  bool contains(uint64_t PC) const { return PC - Base < Size; }

  /// Stream index executing at \p PC, or -1 when no decoded instruction
  /// starts there (fallback to interpretStep).
  int32_t indexAt(uint64_t PC) const {
    return contains(PC) ? IndexByOff[PC - Base] : -1;
  }
};

/// The decodes of every sealed, unreclaimed module for one code epoch.
struct DecodedSegment {
  uint64_t Epoch = 0; ///< Machine::codeEpoch read before the snapshot
  /// Sorted by Base; ranges are disjoint.
  std::vector<std::shared_ptr<const DecodedModule>> Modules;

  /// The decoded module whose range holds \p PC, or null.
  const DecodedModule *moduleAt(uint64_t PC) const;
};

/// Runs \p T on the threaded tier: handler dispatch over the segment's
/// modules, interpretStep fallback outside them.
RunResult runThreaded(Machine &M, Thread &T, uint64_t Fuel);

} // namespace mcfi

#endif // MCFI_RUNTIME_DISPATCH_H
