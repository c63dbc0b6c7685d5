//===- cfg/CFGReference.cpp - Per-site reference CFG generator ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGReference.h"

#include "cfg/ModuleSigs.h"
#include "support/UnionFind.h"
#include "tables/ID.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace mcfi;

namespace {

/// A function gathered from some module's aux info.
struct FuncEntry {
  std::string Name;
  const InternedSig *Sig = nullptr; ///< interned type signature
  uint64_t Addr = 0;                ///< absolute entry address
  bool AddressTaken = false;
};

/// A call site with its resolved callee set (function indexes).
struct CallSiteEntry {
  uint64_t RetSiteAddr = 0;
  bool IsSetjmp = false;
  std::vector<uint32_t> Callees;
};

class ReferenceBuilder {
public:
  ReferenceBuilder(const std::vector<LoadedModuleView> &Modules,
                   const CFGRefinement *Refine)
      : Modules(Modules), Refine(Refine) {}

  CFGPolicy build() {
    Sigs.reserve(Modules.size());
    for (const LoadedModuleView &M : Modules)
      Sigs.push_back(withModuleSigs(M).Sigs);

    collectFunctions();
    indexBranchSites();
    resolveCallSites();
    propagateTailCalls();
    computeTargetSets();
    partition();
    return std::move(Policy);
  }

private:
  void collectFunctions() {
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (M.Obj) {
        const SigList &FuncSigs = Sigs[Mi]->FuncSigs;
        for (size_t Fi = 0; Fi != M.Obj->Aux.Functions.size(); ++Fi) {
          const FunctionInfo &F = M.Obj->Aux.Functions[Fi];
          FuncEntry E;
          E.Name = F.Name;
          E.Sig = FuncSigs[Fi];
          E.Addr = M.CodeBase + F.CodeOffset;
          E.AddressTaken = F.AddressTaken;
          uint32_t Idx = static_cast<uint32_t>(Funcs.size());
          FuncByName.emplace(E.Name, Idx); // first definition wins
          Funcs.push_back(std::move(E));
        }
      }
      ModuleFuncEnd.push_back(static_cast<uint32_t>(Funcs.size()));
    }
    for (const LoadedModuleView &M : Modules) {
      if (!M.Obj)
        continue;
      for (const std::string &Name : M.Obj->Aux.AddressTakenImports)
        if (auto It = FuncByName.find(Name); It != FuncByName.end())
          Funcs[It->second].AddressTaken = true;
    }
    for (uint32_t Idx = 0; Idx != Funcs.size(); ++Idx)
      if (Funcs[Idx].AddressTaken) {
        BySig[Funcs[Idx].Sig].push_back(Idx);
        AddressTaken.push_back(Idx);
      }
  }

  static size_t siteSlots(const LoadedModuleView &M) {
    return M.Obj ? M.Obj->Aux.BranchSites.size() : M.TombstoneSites;
  }

  void indexBranchSites() {
    uint32_t Next = 0;
    uint64_t LiveSites = 0;
    for (const LoadedModuleView &M : Modules) {
      Policy.SiteIndexBase.push_back(Next);
      Next += static_cast<uint32_t>(siteSlots(M));
      if (M.Obj)
        LiveSites += M.Obj->Aux.BranchSites.size();
    }
    Policy.BranchECN.assign(Next, -1);
    Policy.BranchClassSize.assign(Next, 0);
    Policy.NumIBs = LiveSites;
  }

  std::vector<uint32_t> matchTargets(const InternedSig *Sig, bool Variadic) {
    if (!Variadic) {
      auto It = BySig.find(Sig);
      return It == BySig.end() ? std::vector<uint32_t>() : It->second;
    }
    std::vector<uint32_t> Out;
    for (uint32_t I : AddressTaken)
      if (internedCalleeMatches(Sig, /*PointerVariadic=*/true, Funcs[I].Sig))
        Out.push_back(I);
    return Out;
  }

  void refineCallees(std::vector<uint32_t> &Callees, const std::string &Owner,
                     const InternedSig *Sig) {
    if (!Refine)
      return;
    auto It = Refine->Allowed.find({Owner, Sig ? Sig->Sig : std::string()});
    if (It == Refine->Allowed.end())
      return;
    const std::set<std::string> &Names = It->second;
    std::erase_if(Callees,
                  [&](uint32_t F) { return !Names.count(Funcs[F].Name); });
  }

  void resolveCallSites() {
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (M.Obj) {
        for (size_t Ci = 0; Ci != M.Obj->Aux.CallSites.size(); ++Ci) {
          const CallSiteInfo &CS = M.Obj->Aux.CallSites[Ci];
          CallSiteEntry E;
          E.RetSiteAddr = M.CodeBase + CS.RetSiteOffset;
          E.IsSetjmp = CS.IsSetjmp;
          if (CS.IsSetjmp) {
            Policy.SetjmpRetSites.push_back(E.RetSiteAddr);
          } else if (CS.Direct) {
            auto It = FuncByName.find(CS.Callee);
            if (It != FuncByName.end())
              E.Callees.push_back(It->second);
          } else {
            const InternedSig *Sig = Sigs[Mi]->CallSigs[Ci];
            E.Callees = matchTargets(Sig, CS.VariadicPointer);
            refineCallees(E.Callees, CS.Caller, Sig);
          }
          CallSites.push_back(std::move(E));
        }
      }
      ModuleCallEnd.push_back(static_cast<uint32_t>(CallSites.size()));
    }
  }

  /// Tail-call closure: if g may tail-call h, then h returns wherever g
  /// would have returned, so RetTargets[h] ⊇ RetTargets[g].
  void propagateTailCalls() {
    RetTargets.assign(Funcs.size(), {});
    for (const CallSiteEntry &CS : CallSites) {
      if (CS.IsSetjmp)
        continue;
      for (uint32_t Callee : CS.Callees)
        RetTargets[Callee].push_back(CS.RetSiteAddr);
    }

    std::vector<std::vector<uint32_t>> TailEdges(Funcs.size());
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (!M.Obj)
        continue;
      for (size_t Ti = 0; Ti != M.Obj->Aux.TailCalls.size(); ++Ti) {
        const TailCallInfo &TC = M.Obj->Aux.TailCalls[Ti];
        auto CallerIt = FuncByName.find(TC.Caller);
        if (CallerIt == FuncByName.end())
          continue;
        std::vector<uint32_t> Callees;
        if (TC.Direct) {
          auto It = FuncByName.find(TC.Callee);
          if (It != FuncByName.end())
            Callees.push_back(It->second);
        } else {
          const InternedSig *Sig = Sigs[Mi]->TailSigs[Ti];
          Callees = matchTargets(Sig, TC.VariadicPointer);
          refineCallees(Callees, TC.Caller, Sig);
        }
        for (uint32_t C : Callees)
          TailEdges[CallerIt->second].push_back(C);
      }
    }

    std::deque<uint32_t> Work;
    for (uint32_t F = 0; F != Funcs.size(); ++F)
      if (!RetTargets[F].empty() && !TailEdges[F].empty())
        Work.push_back(F);
    std::vector<std::unordered_set<uint64_t>> Seen(Funcs.size());
    for (uint32_t F = 0; F != Funcs.size(); ++F)
      Seen[F].insert(RetTargets[F].begin(), RetTargets[F].end());
    while (!Work.empty()) {
      uint32_t G = Work.front();
      Work.pop_front();
      for (uint32_t H : TailEdges[G]) {
        bool Grew = false;
        for (uint64_t R : RetTargets[G]) {
          if (Seen[H].insert(R).second) {
            RetTargets[H].push_back(R);
            Grew = true;
          }
        }
        if (Grew && !TailEdges[H].empty())
          Work.push_back(H);
      }
    }
  }

  void computeTargetSets() {
    uint64_t SigTrampoline = 0;
    const InternedSig *HandlerSig =
        SigInterner::global().intern(SignalHandlerSig);
    if (auto It = FuncByName.find("sig$return"); It != FuncByName.end())
      SigTrampoline = Funcs[It->second].Addr;

    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (!M.Obj) { // tombstone slots: no branch, no targets
        for (size_t S = 0; S != M.TombstoneSites; ++S) {
          BranchTargets.emplace_back();
          SiteLive.push_back(false);
        }
        continue;
      }
      for (size_t Si = 0; Si != M.Obj->Aux.BranchSites.size(); ++Si) {
        const BranchSite &BS = M.Obj->Aux.BranchSites[Si];
        std::vector<uint64_t> Targets;
        switch (BS.Kind) {
        case BranchKind::Return: {
          auto It = FuncByName.find(BS.Function);
          if (It != FuncByName.end()) {
            Targets = RetTargets[It->second];
            const FuncEntry &F = Funcs[It->second];
            if (SigTrampoline && F.AddressTaken && F.Sig == HandlerSig)
              Targets.push_back(SigTrampoline);
          }
          break;
        }
        case BranchKind::IndirectCall:
        case BranchKind::IndirectJump: {
          const InternedSig *Sig = Sigs[Mi]->BranchSigs[Si];
          std::vector<uint32_t> Matched = matchTargets(Sig, BS.VariadicPointer);
          refineCallees(Matched, BS.Function, Sig);
          for (uint32_t FI : Matched)
            Targets.push_back(Funcs[FI].Addr);
          break;
        }
        case BranchKind::PltJump: {
          auto It = FuncByName.find(BS.PltSymbol);
          if (It != FuncByName.end())
            Targets.push_back(Funcs[It->second].Addr);
          break;
        }
        }
        BranchTargets.push_back(std::move(Targets));
        SiteLive.push_back(true);
      }
    }
  }

  void partition() {
    auto ibtIndex = [&](uint64_t Addr) -> uint32_t {
      auto [It, New] = IBTIndex.emplace(
          Addr, static_cast<uint32_t>(IBTAddrs.size()));
      if (New)
        IBTAddrs.push_back(Addr);
      return It->second;
    };

    // Under refinement, an address-taken function in no target set (and
    // not pinned) leaves the IBT universe.
    std::unordered_set<uint64_t> LiveTargets;
    if (Refine)
      for (const auto &Targets : BranchTargets)
        LiveTargets.insert(Targets.begin(), Targets.end());
    auto dropUnderRefinement = [&](const FuncEntry &F) {
      return Refine && !LiveTargets.count(F.Addr) &&
             !Refine->KeepTargets.count(F.Name);
    };

    // IBTs per module (address-taken entries, then return sites), then
    // the remaining targets in global-site order.
    uint32_t FuncBegin = 0, CallBegin = 0;
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      for (uint32_t F = FuncBegin; F != ModuleFuncEnd[Mi]; ++F)
        if (Funcs[F].AddressTaken && !dropUnderRefinement(Funcs[F]))
          ibtIndex(Funcs[F].Addr);
      for (uint32_t C = CallBegin; C != ModuleCallEnd[Mi]; ++C)
        if (!CallSites[C].IsSetjmp)
          ibtIndex(CallSites[C].RetSiteAddr);
      FuncBegin = ModuleFuncEnd[Mi];
      CallBegin = ModuleCallEnd[Mi];
    }
    for (const auto &Targets : BranchTargets)
      for (uint64_t A : Targets)
        ibtIndex(A);

    UnionFind UF(IBTAddrs.size());
    for (const auto &Targets : BranchTargets)
      for (size_t I = 1; I < Targets.size(); ++I)
        UF.merge(ibtIndex(Targets[0]), ibtIndex(Targets[I]));

    std::unordered_map<uint32_t, uint32_t> RootECN;
    std::unordered_map<uint32_t, uint64_t> RootSize;
    for (uint32_t I = 0; I != IBTAddrs.size(); ++I)
      ++RootSize[UF.find(I)];
    uint32_t NextECN = 0;
    std::vector<TargetECNTable::value_type> Targets;
    Targets.reserve(IBTAddrs.size());
    for (uint32_t I = 0; I != IBTAddrs.size(); ++I) {
      uint32_t Root = UF.find(I);
      auto [It, New] = RootECN.emplace(Root, NextECN);
      if (New)
        ++NextECN;
      Targets.push_back({IBTAddrs[I], It->second});
    }
    Policy.TargetECN = TargetECNTable(std::move(Targets));
    assert(NextECN < EmptyClassECN && "ECN space exhausted");

    for (size_t B = 0; B != BranchTargets.size(); ++B) {
      const auto &Targets = BranchTargets[B];
      if (!SiteLive[B])
        continue; // tombstone slot keeps BranchECN -1
      if (Targets.empty()) {
        Policy.BranchECN[B] = EmptyClassECN;
        Policy.BranchClassSize[B] = 0;
        continue;
      }
      uint32_t Root = UF.find(IBTIndex.at(Targets[0]));
      Policy.BranchECN[B] = RootECN.at(Root);
      Policy.BranchClassSize[B] = RootSize.at(Root);
    }

    Policy.NumIBTs = IBTAddrs.size();
    Policy.NumEQCs = RootECN.size();
  }

  const std::vector<LoadedModuleView> &Modules;
  const CFGRefinement *Refine;
  CFGPolicy Policy;

  std::vector<std::shared_ptr<const ModuleSigs>> Sigs; ///< per module
  std::vector<FuncEntry> Funcs;
  std::vector<uint32_t> ModuleFuncEnd; ///< Funcs end index per module
  std::vector<uint32_t> ModuleCallEnd; ///< CallSites end index per module
  std::unordered_map<std::string, uint32_t> FuncByName;
  std::unordered_map<const InternedSig *, std::vector<uint32_t>> BySig;
  std::vector<uint32_t> AddressTaken; ///< ascending func indexes
  std::vector<CallSiteEntry> CallSites;
  std::vector<std::vector<uint64_t>> RetTargets;    ///< per function
  std::vector<std::vector<uint64_t>> BranchTargets; ///< per global site
  std::vector<bool> SiteLive; ///< per global site: false for tombstones
  std::vector<uint64_t> IBTAddrs;
  std::unordered_map<uint64_t, uint32_t> IBTIndex;
};

} // namespace

CFGPolicy
mcfi::generateCFGReference(const std::vector<LoadedModuleView> &Modules,
                           const CFGRefinement *Refinement) {
  return ReferenceBuilder(Modules, Refinement).build();
}

bool mcfi::policiesIdentical(const CFGPolicy &A, const CFGPolicy &B) {
  return A.TargetECN == B.TargetECN && A.BranchECN == B.BranchECN &&
         A.BranchClassSize == B.BranchClassSize &&
         A.SiteIndexBase == B.SiteIndexBase &&
         A.SetjmpRetSites == B.SetjmpRetSites && A.NumIBs == B.NumIBs &&
         A.NumIBTs == B.NumIBTs && A.NumEQCs == B.NumEQCs;
}
