//===- metrics/Metrics.cpp - AIR, gadgets, size accounting ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "analyzer/GadgetScan.h"
#include "support/StringUtils.h"
#include "visa/ISA.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

using namespace mcfi;

AIRReport mcfi::computeAIR(const CFGPolicy &Policy,
                           const std::vector<LoadedModuleView> &Modules,
                           uint64_t CodeSize) {
  AIRReport R;
  if (CodeSize == 0 || Policy.BranchClassSize.empty())
    return R;
  double S = static_cast<double>(CodeSize);

  // MCFI: each branch is confined to its equivalence class.
  double Sum = 0;
  for (uint64_t ClassSize : Policy.BranchClassSize)
    Sum += 1.0 - static_cast<double>(ClassSize) / S;
  R.MCFI = Sum / static_cast<double>(Policy.BranchClassSize.size());

  // binCFI-style: indirect calls/jumps may target any address-taken
  // function; returns may target any return site.
  uint64_t ATFuncs = 0, RetSites = 0, Returns = 0, Calls = 0;
  for (const LoadedModuleView &M : Modules) {
    for (const FunctionInfo &F : M.Obj->Aux.Functions)
      if (F.AddressTaken)
        ++ATFuncs;
    for (const CallSiteInfo &CS : M.Obj->Aux.CallSites)
      if (!CS.IsSetjmp)
        ++RetSites;
    for (const BranchSite &BS : M.Obj->Aux.BranchSites) {
      if (BS.Kind == BranchKind::Return)
        ++Returns;
      else
        ++Calls;
    }
  }
  uint64_t Branches = Returns + Calls;
  if (Branches) {
    double CallRed = 1.0 - static_cast<double>(ATFuncs) / S;
    double RetRed = 1.0 - static_cast<double>(RetSites) / S;
    R.BinCFI = (CallRed * static_cast<double>(Calls) +
                RetRed * static_cast<double>(Returns)) /
               static_cast<double>(Branches);
  }

  // NaCl-style 32-byte chunks: any chunk beginning is a legal target.
  R.NaCl = 1.0 - 1.0 / 32.0;
  return R;
}

PrecisionReport mcfi::computePrecision(const CFGPolicy &Policy) {
  PrecisionReport R;
  R.NumIBs = Policy.NumIBs;
  R.NumIBTs = Policy.NumIBTs;
  R.NumEQCs = Policy.NumEQCs;
  std::unordered_map<uint32_t, uint64_t> ClassSize;
  for (const auto &[Addr, ECN] : Policy.TargetECN) {
    (void)Addr;
    ++ClassSize[ECN];
  }
  for (const auto &[ECN, Size] : ClassSize) {
    (void)ECN;
    R.LargestClass = std::max(R.LargestClass, Size);
  }
  if (!ClassSize.empty())
    R.AvgClass = static_cast<double>(Policy.NumIBTs) /
                 static_cast<double>(ClassSize.size());
  return R;
}

GadgetReport mcfi::countGadgets(const uint8_t *PlainCode, size_t PlainSize,
                                const uint8_t *HardCode, size_t HardSize,
                                const CFGPolicy &Policy, uint64_t HardBase) {
  // Candidate enumeration is shared with the attack-synthesis harness
  // (analyzer/GadgetScan.h) and cached per code blob by content hash;
  // only the reachability predicate differs per report side.
  GadgetReport R;
  // Unprotected binary: an attacker can redirect an indirect branch to
  // any byte, including instruction middles.
  R.OriginalGadgets =
      countUniqueGadgets(PlainCode, PlainSize, *mineGadgets(PlainCode,
                                                            PlainSize),
                         [](uint64_t) { return true; });
  // MCFI-hardened: only addresses carrying a valid Tary ID are reachable
  // by any indirect branch.
  R.HardenedGadgets = countUniqueGadgets(
      HardCode, HardSize, *mineGadgets(HardCode, HardSize),
      [&](uint64_t Off) { return Policy.TargetECN.count(HardBase + Off) != 0; });
  if (R.OriginalGadgets)
    R.ReductionPct = 100.0 * (1.0 - static_cast<double>(R.HardenedGadgets) /
                                        static_cast<double>(
                                            R.OriginalGadgets));
  return R;
}

std::string mcfi::vmStatsJSON(const VMTierStats &S, const std::string &Label) {
  return formatString(
      "{\"tier\":\"%s\",\"interp_instrs\":%llu,\"threaded_instrs\":%llu,"
      "\"fused_checks\":%llu,\"segments_built\":%llu,"
      "\"modules_decoded\":%llu}",
      Label.c_str(), static_cast<unsigned long long>(S.InterpInstrs),
      static_cast<unsigned long long>(S.ThreadedInstrs),
      static_cast<unsigned long long>(S.FusedChecks),
      static_cast<unsigned long long>(S.SegmentsBuilt),
      static_cast<unsigned long long>(S.ModulesDecoded));
}
