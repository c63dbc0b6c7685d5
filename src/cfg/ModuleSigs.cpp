//===- cfg/ModuleSigs.cpp - A module's interned signatures ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/ModuleSigs.h"

#include "module/MCFIObject.h"

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>

using namespace mcfi;

namespace {

void appendSize(std::string &Key, uint64_t N) {
  Key.append(reinterpret_cast<const char *>(&N), sizeof N);
}

/// Every aux type string of \p Obj, each after its length, each array
/// after its record count. Equal keys mean equal strings at every
/// position of every array.
std::string sigKey(const MCFIObject &Obj) {
  std::string Key;
  auto add = [&Key](const auto &Records) {
    appendSize(Key, Records.size());
    for (const auto &R : Records) {
      appendSize(Key, R.TypeSig.size());
      Key += R.TypeSig;
    }
  };
  add(Obj.Aux.Functions);
  add(Obj.Aux.BranchSites);
  add(Obj.Aux.CallSites);
  add(Obj.Aux.TailCalls);
  return Key;
}

/// The interned TypeSig of every record in \p Records (null when empty).
template <typename T> SigList internAll(const std::vector<T> &Records) {
  SigList Sigs;
  Sigs.reserve(Records.size());
  for (const T &R : Records)
    Sigs.push_back(R.TypeSig.empty() ? nullptr
                                     : SigInterner::global().intern(R.TypeSig));
  return Sigs;
}

/// One ModuleSigs per distinct sigKey. Bounded: cleared wholesale when
/// full (the interner never forgets, so a refill is hash lookups only).
struct ModuleSigsTable {
  static constexpr size_t MaxEntries = 4096;
  std::mutex Lock;
  std::unordered_map<std::string, std::shared_ptr<const ModuleSigs>> Map;

  static ModuleSigsTable &global() {
    static ModuleSigsTable T;
    return T;
  }
};

std::atomic<uint64_t> Interns{0};

} // namespace

std::shared_ptr<const ModuleSigs>
mcfi::internModuleSigs(const MCFIObject &Obj) {
  Interns.fetch_add(1, std::memory_order_relaxed);
  std::string Key = sigKey(Obj);
  ModuleSigsTable &T = ModuleSigsTable::global();
  {
    std::lock_guard<std::mutex> Guard(T.Lock);
    auto It = T.Map.find(Key);
    if (It != T.Map.end())
      return It->second;
  }
  auto Sigs = std::make_shared<ModuleSigs>();
  Sigs->FuncSigs = internAll(Obj.Aux.Functions);
  Sigs->BranchSigs = internAll(Obj.Aux.BranchSites);
  Sigs->CallSigs = internAll(Obj.Aux.CallSites);
  Sigs->TailSigs = internAll(Obj.Aux.TailCalls);
  std::lock_guard<std::mutex> Guard(T.Lock);
  if (T.Map.size() >= ModuleSigsTable::MaxEntries)
    T.Map.clear();
  // First writer wins a race, so racing callers share one view.
  return T.Map.try_emplace(std::move(Key), std::move(Sigs)).first->second;
}

uint64_t mcfi::moduleSigInterns() {
  return Interns.load(std::memory_order_relaxed);
}
