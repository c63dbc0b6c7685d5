//===- cfg/SigCache.cpp - Per-module interned signature cache -------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/SigCache.h"

#include "module/MCFIObject.h"

#include <string_view>

using namespace mcfi;

namespace {

/// Folds one aux string into the key. Each string is hashed whole, so
/// "a"+"bc" and "ab"+"c" stay distinct.
uint64_t mixString(uint64_t H, const std::string &S) {
  uint64_t V = std::hash<std::string_view>()(S);
  return (H ^ V) * 0x9e3779b97f4a7c15ull + (H >> 29);
}

const InternedSig *internOrNull(const std::string &Sig) {
  if (Sig.empty())
    return nullptr;
  return SigInterner::global().intern(Sig);
}

} // namespace

uint64_t mcfi::hashModuleSigKey(const MCFIObject &Obj) {
  // The array lengths pin every string to its array and position.
  const AuxInfo &Aux = Obj.Aux;
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t N : {Aux.Functions.size(), Aux.BranchSites.size(),
                   Aux.CallSites.size(), Aux.TailCalls.size()})
    H = (H ^ N) * 0x100000001b3ull;
  for (const FunctionInfo &F : Aux.Functions)
    H = mixString(H, F.TypeSig);
  for (const BranchSite &B : Aux.BranchSites)
    H = mixString(H, B.TypeSig);
  for (const CallSiteInfo &C : Aux.CallSites)
    H = mixString(H, C.TypeSig);
  for (const TailCallInfo &T : Aux.TailCalls)
    H = mixString(H, T.TypeSig);
  return H;
}

std::shared_ptr<const ModuleSigs> mcfi::getModuleSigs(const MCFIObject &Obj) {
  uint64_t Hash = hashModuleSigKey(Obj);
  if (std::shared_ptr<const void> Hit = SigSetCache::global().lookup(Hash))
    return std::static_pointer_cast<const ModuleSigs>(Hit);

  auto Sigs = std::make_shared<ModuleSigs>();
  Sigs->Key = Hash;
  Sigs->FuncSigs.reserve(Obj.Aux.Functions.size());
  for (const FunctionInfo &F : Obj.Aux.Functions)
    Sigs->FuncSigs.push_back(internOrNull(F.TypeSig));
  Sigs->BranchSigs.reserve(Obj.Aux.BranchSites.size());
  for (const BranchSite &B : Obj.Aux.BranchSites)
    Sigs->BranchSigs.push_back(internOrNull(B.TypeSig));
  Sigs->CallSigs.reserve(Obj.Aux.CallSites.size());
  for (const CallSiteInfo &C : Obj.Aux.CallSites)
    Sigs->CallSigs.push_back(internOrNull(C.TypeSig));
  Sigs->TailSigs.reserve(Obj.Aux.TailCalls.size());
  for (const TailCallInfo &T : Obj.Aux.TailCalls)
    Sigs->TailSigs.push_back(internOrNull(T.TypeSig));

  std::shared_ptr<const void> Stored =
      SigSetCache::global().store(Hash, std::move(Sigs));
  return std::static_pointer_cast<const ModuleSigs>(Stored);
}
