//===- runtime/Dispatch.h - Predecoded threaded dispatch --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded execution tier. A DecodedModule is the executable form of
/// one sealed module's code range, and it is the module's one
/// disassembly: the linker's visa::Disassembly of its final bytes (the
/// one its verifier checked, at the object's first mapping; for an
/// unverified link, the same disassembler's output at seal) is the VM's
/// stream. The disassembler already writes
/// the record this tier runs — the instruction, its absolute PC, its
/// fallthrough link and the TxCheck superinstruction mark — so sealing
/// moves the stream in and decodes nothing. The stream runs through a
/// function-pointer handler table (threaded dispatch) instead of the
/// decode-per-step switch. Machine::sealModule attaches the decode to the
/// module and the reclaimer drops it, so every sealed, unreclaimed module
/// has exactly one decode, made once at seal. A DecodedSegment is a
/// snapshot of those decodes for one code epoch; building it decodes
/// nothing. PCs a segment does not cover — a jump
/// into the middle of an instruction (overlapping-gadget targets) or into
/// jump-table data — fall back to Machine::interpretStep, which performs
/// the identical fully-checked fetch/decode/execute step.
///
/// The handlers are Step.h's opExec instantiations, shared with the
/// interpreter. Their guest loads and stores are Machine::load<Size> and
/// store<Size>, inline and sized at compile time, and every stop they
/// can make goes through a cold, out-of-line helper (vmstep::trapAt,
/// memFaultAt, cfiHaltAt): a load or store handler makes no call unless
/// it faults, and no handler holds string code.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_RUNTIME_DISPATCH_H
#define MCFI_RUNTIME_DISPATCH_H

#include "runtime/Machine.h"
#include "visa/ISA.h"

#include <memory>
#include <vector>

namespace mcfi {

using visa::DInstr;
using visa::FusedKind;

/// The immutable decode of one sealed module's [Base, Base + Size).
struct DecodedModule {
  uint64_t Serial = 0; ///< MappedModule::Serial of the decoded module
  uint64_t Base = 0;   ///< absolute MappedModule::CodeBase
  uint64_t Size = 0;   ///< mapped byte extent (MappedModule::CodeSize)
  std::vector<DInstr> Stream;
  std::vector<int32_t> IndexByOff; ///< per byte: stream index or -1

  bool contains(uint64_t PC) const { return PC - Base < Size; }

  /// Stream index executing at \p PC, or -1 when no decoded instruction
  /// starts there (fallback to interpretStep).
  int32_t indexAt(uint64_t PC) const {
    return contains(PC) ? IndexByOff[PC - Base] : -1;
  }
};

/// Builds the decode of the module \p Serial mapped at [Base, Base +
/// Size) from its disassembly \p Dis, made at \p Base, which covers the
/// module's code bytes (at most Size; the alignment padding past them
/// stays uncovered). Its stream and index map are moved in, not copied,
/// and no byte is decoded again.
std::shared_ptr<const DecodedModule>
makeDecodedModule(visa::Disassembly Dis, uint64_t Serial, uint64_t Base,
                  uint64_t Size);

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
