//===- module/Finalize.cpp - Assemble a PendingModule ---------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "module/Pending.h"

#include "support/Assert.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::visa;

void mcfi::computeIBTOffsets(AuxInfo &Aux) {
  // The universe of offsets the CFG generator can ever turn into Tary
  // entries for this module: function entries (address-taken or not —
  // another module loaded later may take the address) and non-setjmp
  // return sites. Setjmp return sites go through the runtime's longjmp
  // validation instead of the tables.
  Aux.IBTOffsets.clear();
  for (const FunctionInfo &F : Aux.Functions)
    Aux.IBTOffsets.push_back(F.CodeOffset);
  for (const CallSiteInfo &CS : Aux.CallSites)
    if (!CS.IsSetjmp)
      Aux.IBTOffsets.push_back(CS.RetSiteOffset);
  std::sort(Aux.IBTOffsets.begin(), Aux.IBTOffsets.end());
  Aux.IBTOffsets.erase(
      std::unique(Aux.IBTOffsets.begin(), Aux.IBTOffsets.end()),
      Aux.IBTOffsets.end());
}

std::vector<std::pair<uint64_t, uint64_t>>
mcfi::jumpTableRanges(const MCFIObject &Obj) {
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  Ranges.reserve(Obj.Aux.JumpTables.size());
  for (const JumpTableInfo &JT : Obj.Aux.JumpTables)
    Ranges.emplace_back(JT.TableOffset,
                        JT.TableOffset + 8 * JT.Targets.size());
  std::sort(Ranges.begin(), Ranges.end());
  return Ranges;
}

Disassembly mcfi::disassembleModule(const uint8_t *Code, size_t Size,
                                   const MCFIObject &Obj, uint64_t Base,
                                   size_t Instrs) {
  return disassemble(Code, Size, jumpTableRanges(Obj), Base, Instrs);
}

namespace {

uint64_t labelOffset(const AssembledCode &AC, uint32_t FuncIndex, int Label) {
  assert(FuncIndex < AC.LabelOffsets.size() && "function index out of range");
  const std::vector<uint64_t> &Labels = AC.LabelOffsets[FuncIndex];
  assert(Label >= 0 && static_cast<size_t>(Label) < Labels.size() &&
         Labels[Label] != AssembledCode::NoOffset &&
         "unresolved pending label");
  return Labels[Label];
}

} // namespace

MCFIObject mcfi::finalizeObject(PendingModule &&PM) {
  AssembledCode AC = assemble(PM.Functions);

  MCFIObject Obj;
  Obj.Name = std::move(PM.Name);
  Obj.Code = std::move(AC.Bytes);
  Obj.DataSize = PM.DataSize;
  Obj.DataInit = std::move(PM.DataInit);
  Obj.DataSymbols = std::move(PM.DataSymbols);
  Obj.Imports = std::move(PM.Imports);
  Obj.Aux.AddressTakenImports = std::move(PM.AddressTakenImports);
  Obj.EntryFunction = std::move(PM.EntryFunction);

  Obj.Relocs = std::move(AC.Relocs);
  for (RelocEntry &R : PM.DataRelocs)
    Obj.Relocs.push_back(std::move(R));

  for (FunctionInfo &FI : PM.FunctionInfos) {
    auto It = AC.FunctionOffsets.find(FI.Name);
    assert(It != AC.FunctionOffsets.end() && "function info without code");
    FI.CodeOffset = It->second;
    Obj.Aux.Functions.push_back(std::move(FI));
  }

  for (const PendingBranchSite &PBS : PM.BranchSites) {
    BranchSite BS;
    BS.Kind = PBS.Kind;
    BS.SeqStart = labelOffset(AC, PBS.FuncIndex, PBS.SeqStartLabel);
    BS.BranchOffset = labelOffset(AC, PBS.FuncIndex, PBS.BranchLabel);
    BS.Function = PM.Functions[PBS.FuncIndex].Name;
    BS.TypeSig = PBS.TypeSig;
    BS.VariadicPointer = PBS.VariadicPointer;
    BS.PltSymbol = PBS.PltSymbol;
    Obj.Aux.BranchSites.push_back(std::move(BS));
  }

  for (const PendingCallSite &PCS : PM.CallSites) {
    CallSiteInfo CS;
    CS.Caller = PM.Functions[PCS.FuncIndex].Name;
    CS.RetSiteOffset = labelOffset(AC, PCS.FuncIndex, PCS.RetSiteLabel);
    CS.Direct = PCS.Direct;
    CS.Callee = PCS.Callee;
    CS.TypeSig = PCS.TypeSig;
    CS.VariadicPointer = PCS.VariadicPointer;
    CS.IsSetjmp = PCS.IsSetjmp;
    Obj.Aux.CallSites.push_back(std::move(CS));
  }

  Obj.Aux.TailCalls = std::move(PM.TailCalls);

  computeIBTOffsets(Obj.Aux);

  for (const PendingJumpTable &PJT : PM.JumpTables) {
    JumpTableInfo JT;
    JT.Function = PM.Functions[PJT.FuncIndex].Name;
    JT.JmpOffset = labelOffset(AC, PJT.FuncIndex, PJT.JmpLabel);
    JT.TableOffset = labelOffset(AC, PJT.FuncIndex, PJT.TableLabel);
    for (int Target : PJT.TargetLabels)
      JT.Targets.push_back(labelOffset(AC, PJT.FuncIndex, Target));
    Obj.Aux.JumpTables.push_back(std::move(JT));
  }

  return Obj;
}
