//===- cfg/CFGGen.cpp - Type-matching CFG generation ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The merge never materialises a per-site target list. An indirect
// call or jump's target set is a function of its *key* (interned pointer
// signature, variadic flag, refinement entry), so each distinct key is
// matched and unioned once and every site takes its key's class. Return
// sites are joined through union-find helper nodes instead of explicit
// return-target lists; see joinReturnClasses for why the classes equal
// those of the per-site closure in cfg/CFGReference.cpp.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGGen.h"

#include "cfg/SigCache.h"
#include "support/Assert.h"
#include "support/UnionFind.h"
#include "tables/ID.h"

#include <bit>
#include <numeric>
#include <span>
#include <string_view>
#include <unordered_set>

using namespace mcfi;

const char *const mcfi::SignalHandlerSig = "(i32,)->v";

namespace {

constexpr uint32_t None = ~0u;

/// A function gathered from some module's aux info.
struct FuncEntry {
  std::string_view Name;
  const InternedSig *Sig = nullptr; ///< interned type signature
  uint64_t Addr = 0;                ///< absolute entry address
  bool AddressTaken = false;
};

/// What an indirect transfer may reach is fixed by its key alone: two
/// sites with equal keys have equal target sets.
struct TargetKey {
  const InternedSig *Sig;
  bool Variadic;
  const std::set<std::string> *Allowed; ///< refinement entry, or null

  bool operator==(const TargetKey &O) const = default;
};

struct TargetKeyHash {
  size_t operator()(const TargetKey &K) const {
    size_t H = std::hash<const void *>()(K.Sig);
    H = H * 31 + std::hash<const void *>()(K.Allowed);
    return H * 2 + K.Variadic;
  }
};

/// A non-setjmp call site: its return site and its callee, either one
/// function (direct call) or a key (indirect call).
struct CallEntry {
  uint32_t RetIBT = None; ///< IBT index of the return site
  uint32_t Callee = None; ///< function index
  uint32_t Key = None;    ///< key index
  uint64_t RetAddr = 0;
};

/// How a branch site finds its class. Tombstone slots (unloaded
/// modules) have no branch; Empty sites are live with no target.
enum class SiteKind : uint8_t { Tombstone, Empty, Key, Return, Plt };

struct SiteEntry {
  SiteKind Kind = SiteKind::Tombstone;
  uint32_t Index = None; ///< key (Key) or function (Return, Plt) index
};

/// Name -> first function index with that name (first definition wins,
/// matching the loader's symbol resolution). Every merge rebuilds it,
/// so it is one open-addressing slot array rather than a node per name.
class NameIndex {
public:
  void reserve(size_t N) { Slots.assign(std::bit_ceil(2 * N + 2), Slot()); }

  void insert(std::string_view Name, uint32_t Idx) {
    size_t Hash = std::hash<std::string_view>()(Name);
    Slot &S = Slots[slotOf(Name, Hash)];
    if (S.Idx == None)
      S = {Hash, Idx, Name};
  }

  uint32_t find(std::string_view Name) const {
    return Slots[slotOf(Name, std::hash<std::string_view>()(Name))].Idx;
  }

private:
  struct Slot {
    size_t Hash = 0;
    uint32_t Idx = None;
    std::string_view Name;
  };

  /// The slot holding \p Name, or the empty slot where it would go.
  size_t slotOf(std::string_view Name, size_t Hash) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Idx == None || (S.Hash == Hash && S.Name == Name))
        return I;
    }
  }

  std::vector<Slot> Slots;
};

/// Directed edges in one array per graph (compressed sparse rows).
class Adjacency {
public:
  Adjacency(size_t NumNodes,
            const std::vector<std::pair<uint32_t, uint32_t>> &Edges)
      : Begin(NumNodes + 1, 0), Items(Edges.size()) {
    for (const auto &[From, To] : Edges)
      ++Begin[From + 1];
    std::partial_sum(Begin.begin(), Begin.end(), Begin.begin());
    std::vector<uint32_t> Fill(Begin.begin(), Begin.end() - 1);
    for (const auto &[From, To] : Edges)
      Items[Fill[From]++] = To;
  }

  std::span<const uint32_t> operator[](uint32_t Node) const {
    return {Items.data() + Begin[Node], Items.data() + Begin[Node + 1]};
  }

private:
  std::vector<uint32_t> Begin, Items;
};

class CFGBuilder {
public:
  CFGBuilder(const std::vector<LoadedModuleView> &Modules,
             const CFGRefinement *Refine)
      : Modules(Modules), Refine(Refine) {}

  CFGPolicy build() {
    // One cache lookup per module; re-merges reuse the interned views.
    // Tombstones (unloaded modules) have no object and no signatures.
    Sigs.reserve(Modules.size());
    for (const LoadedModuleView &M : Modules)
      Sigs.push_back(M.Obj ? getModuleSigs(*M.Obj) : nullptr);

    collectFunctions();
    indexBranchSites();
    resolveCallSites();
    resolveTailCalls();
    resolveBranchSites();
    markReturnRelevant();
    indexIBTs();
    UnionFind UF(IBTAddrs.size() + Funcs.size() + Keys.size());
    joinKeyClasses(UF);
    joinReturnClasses(UF);
    assignECNs(UF);
    return std::move(Policy);
  }

private:
  //===--------------------------------------------------------------------===//
  // Collection
  //===--------------------------------------------------------------------===//

  void collectFunctions() {
    size_t NumFuncs = 0;
    for (const LoadedModuleView &M : Modules)
      NumFuncs += M.Obj ? M.Obj->Aux.Functions.size() : 0;
    Funcs.reserve(NumFuncs);
    FuncByName.reserve(NumFuncs);
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (M.Obj) {
        const SigList &FuncSigs = Sigs[Mi]->FuncSigs;
        for (size_t Fi = 0; Fi != M.Obj->Aux.Functions.size(); ++Fi) {
          const FunctionInfo &F = M.Obj->Aux.Functions[Fi];
          uint32_t Idx = static_cast<uint32_t>(Funcs.size());
          FuncByName.insert(F.Name, Idx);
          Funcs.push_back(
              {F.Name, FuncSigs[Fi], M.CodeBase + F.CodeOffset, F.AddressTaken});
        }
      }
      ModuleFuncEnd.push_back(static_cast<uint32_t>(Funcs.size()));
    }
    // A module may take the address of a function another module
    // defines; the definition then becomes an indirect-branch target.
    for (const LoadedModuleView &M : Modules) {
      if (!M.Obj)
        continue;
      for (const std::string &Name : M.Obj->Aux.AddressTakenImports)
        if (uint32_t F = FuncByName.find(Name); F != None)
          Funcs[F].AddressTaken = true;
    }
    for (uint32_t Idx = 0; Idx != Funcs.size(); ++Idx)
      if (Funcs[Idx].AddressTaken) {
        BySig[Funcs[Idx].Sig].push_back(Idx);
        AddressTaken.push_back(Idx);
      }
  }

  /// Branch-site slots a view occupies in the global index space:
  /// tombstones keep their dead module's positions so surviving modules'
  /// already-patched Bary indexes stay valid.
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
    // Tombstone slots are placeholders, not instrumented branches.
    Policy.NumIBs = LiveSites;
    Sites.resize(Next);
  }

  //===--------------------------------------------------------------------===//
  // Keys
  //===--------------------------------------------------------------------===//

  /// The key of an indirect transfer through a \p Sig pointer in
  /// function \p Owner. Refinement narrows the key's set to the allowed
  /// names for (Owner, Sig); transfers without an entry keep the full
  /// type-matched set (intersection-only: a key never gains a target).
  uint32_t keyOf(const InternedSig *Sig, bool Variadic,
                 const std::string &Owner) {
    const std::set<std::string> *Allowed = nullptr;
    if (Refine) {
      auto It = Refine->Allowed.find({Owner, Sig ? Sig->Sig : std::string()});
      if (It != Refine->Allowed.end())
        Allowed = &It->second;
    }
    auto [It, New] = KeyIndex.try_emplace({Sig, Variadic, Allowed},
                                          static_cast<uint32_t>(Keys.size()));
    if (New)
      Keys.push_back(matchTargets(Sig, Variadic, Allowed));
    return It->second;
  }

  /// All address-taken functions matching a pointer signature, in
  /// ascending function-index order. The non-variadic case is one hash
  /// lookup on the interned pointer; the variadic fixed-prefix rule is a
  /// pointer-compare scan, paid once per distinct key.
  std::vector<uint32_t> matchTargets(const InternedSig *Sig, bool Variadic,
                                     const std::set<std::string> *Allowed) {
    std::vector<uint32_t> Out;
    if (!Variadic) {
      if (auto It = BySig.find(Sig); It != BySig.end())
        Out = It->second;
    } else {
      for (uint32_t I : AddressTaken)
        if (internedCalleeMatches(Sig, /*PointerVariadic=*/true, Funcs[I].Sig))
          Out.push_back(I);
    }
    if (Allowed)
      std::erase_if(Out, [&](uint32_t F) {
        return !Allowed->count(std::string(Funcs[F].Name));
      });
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Resolution
  //===--------------------------------------------------------------------===//

  void resolveCallSites() {
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (M.Obj) {
        for (size_t Ci = 0; Ci != M.Obj->Aux.CallSites.size(); ++Ci) {
          const CallSiteInfo &CS = M.Obj->Aux.CallSites[Ci];
          uint64_t RetAddr = M.CodeBase + CS.RetSiteOffset;
          // Setjmp return sites are the runtime's longjmp validation
          // list (global site order), not IBTs.
          if (CS.IsSetjmp) {
            Policy.SetjmpRetSites.push_back(RetAddr);
            continue;
          }
          CallEntry E;
          E.RetAddr = RetAddr;
          if (CS.Direct)
            E.Callee = FuncByName.find(CS.Callee);
          else
            E.Key = keyOf(Sigs[Mi]->CallSigs[Ci], CS.VariadicPointer,
                          CS.Caller);
          Calls.push_back(E);
        }
      }
      ModuleCallEnd.push_back(static_cast<uint32_t>(Calls.size()));
    }
  }

  /// The tail graph. Functions are nodes [0, NumFuncs) and keys nodes
  /// NumFuncs + key; a tail call is an edge from its caller to the callee
  /// function or to its key, and each key has an edge to every target.
  void resolveTailCalls() {
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (!M.Obj)
        continue;
      for (size_t Ti = 0; Ti != M.Obj->Aux.TailCalls.size(); ++Ti) {
        const TailCallInfo &TC = M.Obj->Aux.TailCalls[Ti];
        uint32_t Caller = FuncByName.find(TC.Caller);
        if (Caller == None)
          continue;
        uint32_t To;
        if (TC.Direct) {
          To = FuncByName.find(TC.Callee);
          if (To == None)
            continue;
        } else {
          To = static_cast<uint32_t>(Funcs.size()) +
               keyOf(Sigs[Mi]->TailSigs[Ti], TC.VariadicPointer, TC.Caller);
        }
        TailGraph.push_back({Caller, To});
      }
    }
  }

  void resolveBranchSites() {
    // Signal handlers may return to the sigreturn trampoline.
    if (uint32_t T = FuncByName.find("sig$return"); T != None)
      SigTrampoline = Funcs[T].Addr;
    const InternedSig *HandlerSig =
        SigInterner::global().intern(SignalHandlerSig);

    Returns.assign(Funcs.size(), false);
    ReturnsToTrampoline.assign(Funcs.size(), false);
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      const LoadedModuleView &M = Modules[Mi];
      if (!M.Obj) // tombstone slots: no branch, no targets
        continue;
      uint32_t Base = Policy.SiteIndexBase[Mi];
      for (size_t Si = 0; Si != M.Obj->Aux.BranchSites.size(); ++Si) {
        const BranchSite &BS = M.Obj->Aux.BranchSites[Si];
        SiteEntry &S = Sites[Base + Si];
        S.Kind = SiteKind::Empty;
        switch (BS.Kind) {
        case BranchKind::Return:
          S.Index = FuncByName.find(BS.Function);
          if (S.Index != None) {
            S.Kind = SiteKind::Return;
            Returns[S.Index] = true;
            const FuncEntry &F = Funcs[S.Index];
            ReturnsToTrampoline[S.Index] =
                SigTrampoline && F.AddressTaken && F.Sig == HandlerSig;
          }
          break;
        case BranchKind::IndirectCall:
        case BranchKind::IndirectJump:
          S.Kind = SiteKind::Key;
          S.Index = keyOf(Sigs[Mi]->BranchSigs[Si], BS.VariadicPointer,
                          BS.Function);
          break;
        case BranchKind::PltJump:
          S.Index = FuncByName.find(BS.PltSymbol);
          if (S.Index != None)
            S.Kind = SiteKind::Plt;
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Return flow
  //===--------------------------------------------------------------------===//

  /// A return site of f targets S(f): the return sites of calls to any g
  /// with a tail path g ->* f. Marks every tail-graph node from which
  /// some returning function is reachable ("relevant" nodes): only their
  /// callers' return sites land in any S(f).
  void markReturnRelevant() {
    size_t NumNodes = Funcs.size() + Keys.size();
    // Every key exists now; add its edges to its targets.
    for (uint32_t K = 0; K != Keys.size(); ++K)
      for (uint32_t T : Keys[K])
        TailGraph.push_back({static_cast<uint32_t>(Funcs.size()) + K, T});
    std::vector<std::pair<uint32_t, uint32_t>> Reversed;
    Reversed.reserve(TailGraph.size());
    for (const auto &[From, To] : TailGraph)
      Reversed.push_back({To, From});
    Adjacency Preds(NumNodes, Reversed);
    Relevant.assign(NumNodes, false);
    std::vector<uint32_t> Work;
    for (uint32_t F = 0; F != Funcs.size(); ++F)
      if (Returns[F]) {
        Relevant[F] = true;
        Work.push_back(F);
      }
    while (!Work.empty()) {
      uint32_t N = Work.back();
      Work.pop_back();
      for (uint32_t P : Preds[N])
        if (!Relevant[P]) {
          Relevant[P] = true;
          Work.push_back(P);
        }
    }
  }

  /// The tail-graph node a call's return site flows into, or None when
  /// no return site targets it.
  uint32_t relevantCallee(const CallEntry &C) const {
    uint32_t Node = C.Callee != None ? C.Callee
                    : C.Key != None ? static_cast<uint32_t>(Funcs.size()) + C.Key
                                    : None;
    return Node != None && Relevant[Node] ? Node : None;
  }

  //===--------------------------------------------------------------------===//
  // IBT universe
  //===--------------------------------------------------------------------===//

  uint32_t ibtIndex(uint64_t Addr) {
    auto [It, New] =
        IBTIndex.emplace(Addr, static_cast<uint32_t>(IBTAddrs.size()));
    if (New)
      IBTAddrs.push_back(Addr);
    return It->second;
  }

  /// Addresses in some branch's target set. Only needed under
  /// refinement, where an address-taken function outside every set (and
  /// not pinned) has no live inbound edge and leaves the IBT universe —
  /// keeping it would leave a stale singleton class; a branch to it then
  /// fails the Tary check like any other non-target address.
  std::unordered_set<uint64_t> liveTargets() const {
    std::unordered_set<uint64_t> Live;
    std::vector<bool> KeyUsed(Keys.size(), false);
    for (const SiteEntry &S : Sites) {
      if (S.Kind == SiteKind::Key)
        KeyUsed[S.Index] = true;
      else if (S.Kind == SiteKind::Plt)
        Live.insert(Funcs[S.Index].Addr);
      else if (S.Kind == SiteKind::Return && ReturnsToTrampoline[S.Index])
        Live.insert(SigTrampoline);
    }
    for (uint32_t K = 0; K != Keys.size(); ++K)
      if (KeyUsed[K])
        for (uint32_t F : Keys[K])
          Live.insert(Funcs[F].Addr);
    for (const CallEntry &C : Calls)
      if (relevantCallee(C) != None)
        Live.insert(C.RetAddr);
    return Live;
  }

  /// Indexes IBTs grouped *per module* (each module's address-taken
  /// entries, then its return sites). Loading another module then only
  /// appends to the IBT list, so the first-seen ECN assignment gives
  /// every pre-existing class the same number it had before — the
  /// stability the incremental-update delta relies on. (A flat
  /// all-functions-then-all-ret-sites order would splice a new module's
  /// functions in front of older modules' return sites and renumber
  /// their classes.)
  void indexIBTs() {
    IBTIndex.reserve(Funcs.size() + Calls.size());
    std::unordered_set<uint64_t> Live;
    if (Refine)
      Live = liveTargets();
    auto dropUnderRefinement = [&](const FuncEntry &F) {
      return Refine && !Live.count(F.Addr) &&
             !Refine->KeepTargets.count(std::string(F.Name));
    };

    FuncIBT.assign(Funcs.size(), None);
    uint32_t FuncBegin = 0, CallBegin = 0;
    for (size_t Mi = 0; Mi != Modules.size(); ++Mi) {
      for (uint32_t F = FuncBegin; F != ModuleFuncEnd[Mi]; ++F)
        if (Funcs[F].AddressTaken && !dropUnderRefinement(Funcs[F]))
          FuncIBT[F] = ibtIndex(Funcs[F].Addr);
      for (uint32_t C = CallBegin; C != ModuleCallEnd[Mi]; ++C)
        Calls[C].RetIBT = ibtIndex(Calls[C].RetAddr);
      FuncBegin = ModuleFuncEnd[Mi];
      CallBegin = ModuleCallEnd[Mi];
    }
    // Remaining targets in global-site order, also append-only across
    // loads: PLT targets that are not address-taken and the sigreturn
    // trampoline. Key targets are address-taken and live, so indexed.
    for (const SiteEntry &S : Sites) {
      if (S.Kind == SiteKind::Plt)
        ibtIndex(Funcs[S.Index].Addr);
      else if (S.Kind == SiteKind::Return && ReturnsToTrampoline[S.Index])
        TrampolineIBT = ibtIndex(SigTrampoline);
    }
  }

  //===--------------------------------------------------------------------===//
  // Equivalence classes
  //===--------------------------------------------------------------------===//

  /// Union-find layout: IBTs first, then one helper node per function,
  /// then one per key. Helpers never count toward a class's size.
  uint32_t helperNode(uint32_t TailGraphNode) const {
    return static_cast<uint32_t>(IBTAddrs.size()) + TailGraphNode;
  }

  /// All targets of one branch share a class (classic CFI coarsening,
  /// paper Sec. 2); equal keys have equal sets, so each key once.
  void joinKeyClasses(UnionFind &UF) {
    std::vector<bool> Done(Keys.size(), false);
    for (const SiteEntry &S : Sites) {
      if (S.Kind != SiteKind::Key || Done[S.Index])
        continue;
      Done[S.Index] = true;
      const std::vector<uint32_t> &Targets = Keys[S.Index];
      for (size_t I = 1; I < Targets.size(); ++I) {
        assert(FuncIBT[Targets[I]] != None && "branch target not indexed");
        UF.merge(FuncIBT[Targets[0]], FuncIBT[Targets[I]]);
      }
    }
  }

  /// The per-site closure unions, for every returning f, all of S(f) —
  /// where S(f) holds the return sites of calls into any g with a tail
  /// path g ->* f. The same classes come from helper nodes: a call's
  /// return site joins its callee's node, and an *active* node (one
  /// reachable over tail edges from a called node) joins every relevant
  /// successor. A return site of f then takes the class of f's node.
  ///
  /// Only relevant callees and successors are joined: an edge into a
  /// node that reaches no returning function would bridge the sets of
  /// two callers that share no S(f). Only active nodes join their
  /// successors: an uncalled g contributes nothing to any S(f), so it
  /// must not connect the functions it tail-calls. Every join is thereby
  /// between two parts of one S(f), and every S(f) is connected.
  void joinReturnClasses(UnionFind &UF) {
    size_t NumNodes = Funcs.size() + Keys.size();
    std::vector<std::pair<uint32_t, uint32_t>> Joins;
    for (const auto &[From, To] : TailGraph)
      if (Relevant[To])
        Joins.push_back({From, To});
    Adjacency Succs(NumNodes, Joins);

    std::vector<bool> Active(NumNodes, false);
    std::vector<uint32_t> Work;
    auto activate = [&](uint32_t N) {
      if (!Active[N]) {
        Active[N] = true;
        Work.push_back(N);
      }
    };
    for (const CallEntry &C : Calls)
      if (uint32_t N = relevantCallee(C); N != None) {
        UF.merge(C.RetIBT, helperNode(N));
        activate(N);
      }
    while (!Work.empty()) {
      uint32_t N = Work.back();
      Work.pop_back();
      for (uint32_t S : Succs[N]) {
        UF.merge(helperNode(N), helperNode(S));
        activate(S);
      }
    }

    for (uint32_t F = 0; F != Funcs.size(); ++F)
      if (ReturnsToTrampoline[F])
        UF.merge(helperNode(F), TrampolineIBT);
  }

  void assignECNs(UnionFind &UF) {
    // Class sizes and ECNs count IBTs only, first-seen in IBT order.
    // Per-root slots span every node: a root may be a helper.
    uint32_t NumIBTs = static_cast<uint32_t>(IBTAddrs.size());
    std::vector<uint32_t> RootECN(UF.size(), None);
    std::vector<uint64_t> RootSize(UF.size(), 0);
    uint32_t NextECN = 0;
    for (uint32_t I = 0; I != NumIBTs; ++I) {
      uint32_t Root = UF.find(I);
      ++RootSize[Root];
      if (RootECN[Root] == None)
        RootECN[Root] = NextECN++;
      Policy.TargetECN[IBTAddrs[I]] = RootECN[Root];
    }

    // Real classes must stay below the reserved empty-class ECN so the
    // fail-closed encoding below can never collide with one.
    assert(NextECN < EmptyClassECN && "ECN space exhausted");

    for (size_t B = 0; B != Sites.size(); ++B) {
      const SiteEntry &S = Sites[B];
      uint32_t Node = None;
      switch (S.Kind) {
      case SiteKind::Tombstone:
        // No ID: BranchECN stays -1, the zeroed entry the retire
        // transaction left — NOT EmptyClassECN, which is a valid
        // encoded ID for live-but-targetless sites.
        continue;
      case SiteKind::Empty:
        break;
      case SiteKind::Key:
        if (!Keys[S.Index].empty())
          Node = FuncIBT[Keys[S.Index].front()];
        break;
      case SiteKind::Return:
        Node = helperNode(S.Index);
        break;
      case SiteKind::Plt:
        Node = IBTIndex.at(Funcs[S.Index].Addr);
        break;
      }
      uint32_t Root = Node == None ? None : UF.find(Node);
      if (Root == None || RootECN[Root] == None) {
        // Empty target set: the shared reserved ECN no address carries,
        // so the check always fails closed. One fixed number (rather
        // than a fresh ECN per site) keeps ECN assignment stable when
        // the CFG is regenerated with more modules.
        Policy.BranchECN[B] = EmptyClassECN;
        Policy.BranchClassSize[B] = 0;
        continue;
      }
      Policy.BranchECN[B] = RootECN[Root];
      Policy.BranchClassSize[B] = RootSize[Root];
    }

    Policy.NumIBTs = NumIBTs;
    Policy.NumEQCs = NextECN;
  }

  const std::vector<LoadedModuleView> &Modules;
  const CFGRefinement *Refine;
  CFGPolicy Policy;

  std::vector<std::shared_ptr<const ModuleSigs>> Sigs; ///< per module
  std::vector<FuncEntry> Funcs;
  std::vector<uint32_t> ModuleFuncEnd; ///< Funcs end index per module
  std::vector<uint32_t> ModuleCallEnd; ///< Calls end index per module
  NameIndex FuncByName;
  std::unordered_map<const InternedSig *, std::vector<uint32_t>> BySig;
  std::vector<uint32_t> AddressTaken; ///< ascending func indexes

  std::unordered_map<TargetKey, uint32_t, TargetKeyHash> KeyIndex;
  std::vector<std::vector<uint32_t>> Keys; ///< targets per key

  std::vector<CallEntry> Calls; ///< non-setjmp call sites, global order
  std::vector<std::pair<uint32_t, uint32_t>> TailGraph; ///< edges
  std::vector<SiteEntry> Sites; ///< per global branch-site index
  std::vector<bool> Returns;    ///< per function: has a return site
  std::vector<bool> ReturnsToTrampoline; ///< per function
  std::vector<bool> Relevant; ///< per tail-graph node
  uint64_t SigTrampoline = 0;

  std::vector<uint64_t> IBTAddrs;
  std::unordered_map<uint64_t, uint32_t> IBTIndex;
  std::vector<uint32_t> FuncIBT; ///< per function, None if not an IBT
  uint32_t TrampolineIBT = None;
};

} // namespace

CFGPolicy mcfi::generateCFG(const std::vector<LoadedModuleView> &Modules,
                            const CFGRefinement *Refinement) {
  return CFGBuilder(Modules, Refinement).build();
}
