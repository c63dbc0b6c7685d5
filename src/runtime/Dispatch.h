//===- runtime/Dispatch.h - Predecoded threaded dispatch --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded execution tier. A DecodedSegment is a decode-once image
/// of the machine's contiguously sealed code prefix: each instruction is
/// decoded exactly once into a DInstr stream with precomputed fallthrough
/// links and recognized TxCheck superinstruction groups, then executed
/// through a function-pointer handler table (threaded dispatch) instead
/// of the decode-per-step switch. A segment describes the bytes of one
/// code epoch: reclaiming a dlclosed module and mapping a new one into
/// its range changes the bytes under a covered address, so a segment is
/// only cached and served while its epoch is current. PCs a segment does
/// not cover — code sealed out of prefix order, or a jump into the middle
/// of an instruction (overlapping-gadget targets) — fall back to
/// Machine::interpretStep, which performs the identical fully-checked
/// fetch/decode/execute step.
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

/// An immutable predecoding of [CodeBase, CodeBase + Limit).
struct DecodedSegment {
  uint64_t Limit = 0; ///< decoded byte extent (the sealed prefix)
  uint64_t Epoch = 0; ///< Machine::codeEpoch read before the decode
  std::vector<DInstr> Stream;
  std::vector<int32_t> IndexByOff; ///< per byte: stream index or -1

  /// Stream index executing at \p PC, or -1 when the segment does not
  /// cover that address (fallback to interpretStep).
  int32_t indexAt(uint64_t PC) const {
    uint64_t Off = PC - Machine::CodeBase;
    return PC >= Machine::CodeBase && Off < Limit ? IndexByOff[Off] : -1;
  }
};

/// Builds a fresh segment over the machine's current sealed prefix,
/// stamped with the code epoch read before the prefix and the bytes;
/// null when nothing is sealed yet. Machine::segment() builds and
/// installs in one call.
std::shared_ptr<const DecodedSegment> buildSegment(const Machine &M);

/// Runs \p T on the threaded tier: handler dispatch over the segment,
/// interpretStep fallback outside it.
RunResult runThreaded(Machine &M, Thread &T, uint64_t Fuel);

} // namespace mcfi

#endif // MCFI_RUNTIME_DISPATCH_H
