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
// return-target lists; see CFGMerge::State::markRelevant for why the
// classes equal those of the per-site closure in cfg/CFGReference.cpp.
//
// The state is a fold: every fact it holds (a resolved name, an
// address-taken function, a key target, a relevant or active tail-graph
// node, a union) only ever becomes true. append() records each new fact
// together with its consequences, so the union-find partition after any
// sequence of appends is the one a from-scratch merge computes; emit()
// numbers its classes.
//
// The fold is also undoable. Each view's append starts at a ViewMark
// (the sizes of every append-only array and log), and every write to an
// entry an earlier view made is logged with the entry's old value first.
// truncate(N) replays those logs backwards to view N's mark, erases the
// hash-table keys the later views added, rolls the union-find back and
// cuts every array to the mark: the state is then the one that folding
// views[0..N) alone would have built.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGGen.h"

#include "cfg/SigCache.h"
#include "support/Assert.h"
#include "support/UnionFind.h"
#include "tables/ID.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

using namespace mcfi;

const char *const mcfi::SignalHandlerSig = "(i32,)->v";

namespace {

constexpr uint32_t None = ~0u;

/// A function gathered from some module's aux info.
struct FuncEntry {
  std::string_view Name;
  const InternedSig *Sig = nullptr; ///< interned type signature
  uint64_t Addr = 0;                ///< absolute entry address
  /// Union-find node of Addr, made once the entry can be a target.
  uint32_t AddrNode = None;
  uint32_t Node = None; ///< tail-graph / helper node
  bool AddressTaken = false;
  bool Returns = false;      ///< some return site resolves to it
  bool ToTrampoline = false; ///< its returns may reach sig$return
  bool Keep = false;         ///< pinned by the refinement's KeepTargets
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

struct KeyEntry {
  TargetKey Key;
  uint32_t Node = None;          ///< tail-graph / helper node
  bool Used = false;             ///< some branch site has this key
  std::vector<uint32_t> Targets; ///< matching address-taken functions
};

/// A non-setjmp call site: its return site and the tail-graph node of
/// its callee (a function or a key), None while a direct callee's name
/// is undefined.
struct CallEntry {
  uint64_t RetAddr = 0;
  uint32_t RetNode = None;
  uint32_t Callee = None;
  uint32_t NextToCallee = None; ///< next call with the same callee
};

/// A tail call whose caller or direct callee is not defined yet.
struct OpenTail {
  uint32_t Caller = None, To = None; ///< tail-graph nodes once defined
};

/// How a branch site finds its class. Tombstone slots (unloaded
/// modules) have no branch; Empty sites are live with no target.
enum class SiteKind : uint8_t { Tombstone, Empty, Key, Return, Plt };

struct SiteEntry {
  SiteKind Kind = SiteKind::Tombstone;
  uint32_t Index = None; ///< key (Key) or function (Return, Plt) index
};

/// A use of a name no module has defined yet; settled by the first
/// definition.
enum class UseKind : uint8_t {
  Call,         ///< direct call: Index = call
  TailCaller,   ///< Index = open tail call
  TailCallee,   ///< Index = open tail call
  ReturnSite,   ///< Index = global site
  PltSite,      ///< Index = global site
  AddressTaken, ///< an address-taken import
};

struct PendingUse {
  UseKind Kind;
  uint32_t Index;
  uint32_t Next; ///< next use waiting on the same name
};

/// Per union-find node: address nodes carry refinement liveness;
/// function and key nodes are the tail graph, with their edges and
/// callers threaded through flat arrays.
struct NodeInfo {
  uint32_t FirstSucc = None, FirstPred = None, FirstCall = None;
  bool Relevant = false; ///< reaches a function with a return site
  bool Active = false;   ///< reachable over relevant edges from a callee
  bool Live = false;     ///< in some target set (refinement universe)
};

struct Edge {
  uint32_t From, To;
  uint32_t NextSucc, NextPred;
};

/// Open addressing over one slot array (a state copy is one allocation
/// per table). Slots[I].Used marks occupancy.
template <typename SlotT> class FlatTable {
public:
  /// Makes room for \p More further keys with at most one rehash, so a
  /// large module does not regrow the table step by step.
  void reserve(size_t More) {
    size_t Want = std::bit_ceil(2 * (Count + More) + 2);
    if (Want > Slots.size())
      rehash(Want);
  }

  /// The slot for a key with hash \p Hash satisfying \p Match, claimed
  /// (Used set, other fields default) if absent; the flag is true when
  /// this call claimed it.
  template <typename MatchFn>
  std::pair<SlotT &, bool> claim(uint32_t Hash, MatchFn Match) {
    if (2 * (Count + 1) > Slots.size())
      rehash(std::max<size_t>(64, 2 * Slots.size()));
    SlotT &S = Slots[probe(Hash, Match)];
    if (S.Used)
      return {S, false};
    S.Used = true;
    S.Hash = Hash;
    ++Count;
    return {S, true};
  }

  /// The slot of a present key.
  template <typename MatchFn> SlotT &at(uint32_t Hash, MatchFn Match) {
    SlotT &S = Slots[probe(Hash, Match)];
    assert(S.Used && "key not present");
    return S;
  }

  /// Removes a present key by backward-shift deletion: each later slot
  /// of the probe run that may sit in the hole moves up, so every probe
  /// still ends at its key or at an unused slot, and no tombstone is left
  /// to fill the table under churn.
  template <typename MatchFn> void erase(uint32_t Hash, MatchFn Match) {
    size_t Mask = Slots.size() - 1;
    size_t Hole = probe(Hash, Match);
    assert(Slots[Hole].Used && "key not present");
    for (size_t J = (Hole + 1) & Mask; Slots[J].Used; J = (J + 1) & Mask) {
      // Slot J may fill the hole unless its home lies in (Hole, J].
      size_t Home = Slots[J].Hash & Mask;
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = SlotT();
    --Count;
  }

private:
  template <typename MatchFn> size_t probe(uint32_t Hash, MatchFn Match) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const SlotT &S = Slots[I];
      if (!S.Used || (S.Hash == Hash && Match(S)))
        return I;
    }
  }

  void rehash(size_t Size) {
    std::vector<SlotT> Old = std::move(Slots);
    Slots.assign(Size, SlotT());
    for (const SlotT &S : Old)
      if (S.Used)
        Slots[probe(S.Hash, [](const SlotT &) { return false; })] = S;
  }

  std::vector<SlotT> Slots;
  size_t Count = 0;
};

/// A name's first definition (first wins, matching the loader's symbol
/// resolution) and the uses still waiting for one. Name is written once,
/// by the claim that makes the slot, so it views the strings of the
/// slot's own view: a later view that names it again may be forgotten.
struct NameSlot {
  bool Used = false;
  uint32_t Hash = 0;
  std::string_view Name;
  uint32_t Func = None;
  uint32_t Waiting = None; ///< head of the PendingUse chain
};

struct AddrSlot {
  bool Used = false;
  uint32_t Hash = 0;
  uint64_t Addr = 0;
  uint32_t Node = None;
};

/// The old value of an array entry that a later view overwrote.
template <typename T> struct Saved {
  uint32_t Index;
  T Old;
};

/// A key's state before a later view gave it a target or a site.
struct KeyUndo {
  uint32_t Key;
  uint32_t Targets; ///< Targets.size() then
  bool Used;
};

/// A name slot as it was before a claim or a write: Created means it
/// did not exist.
struct NameUndo {
  std::string_view Name;
  uint32_t Hash;
  uint32_t Func, Waiting;
  bool Created;
};

/// Where the state stood when a view's fold began: the size of every
/// array and log truncate() cuts back (functions, calls and sites
/// aside, which emit() walks per view), and the scalars it restores.
struct ViewMark {
  uint32_t OpenTails, Pending, Keys, VariadicKeys, AddressTaken, Nodes,
      Edges, SetjmpRetSites;
  uint32_t NodeLog, FuncLog, CallLog, SiteLog, TailLog, KeyLog, NameLog,
      AddrLog, Joins;
  uint32_t Trampoline;
  uint64_t NumIBs;
};

} // namespace

struct CFGMerge::State {
  explicit State(const CFGRefinement *Refine)
      : Refine(Refine),
        HandlerSig(SigInterner::global().intern(SignalHandlerSig)) {}

  //===--------------------------------------------------------------------===//
  // Append
  //===--------------------------------------------------------------------===//

  void append(const LoadedModuleView &M) {
    Views.push_back(M);
    FuncBegin.push_back(static_cast<uint32_t>(Funcs.size()));
    CallBegin.push_back(static_cast<uint32_t>(Calls.size()));
    SiteIndexBase.push_back(static_cast<uint32_t>(Sites.size()));
    Marks.push_back(mark());
    if (!M.Obj) {
      // A tombstone keeps its dead module's branch-site positions so
      // surviving modules' already-patched Bary indexes stay valid.
      Sites.resize(Sites.size() + M.TombstoneSites);
      return;
    }
    const AuxInfo &Aux = M.Obj->Aux;
    // One cache lookup per module; interned pointers outlive the view.
    std::shared_ptr<const ModuleSigs> Sigs = getModuleSigs(*M.Obj);
    NumIBs += Aux.BranchSites.size();
    reserve(Aux.Functions.size(), Aux.CallSites.size());

    uint32_t FirstFunc = static_cast<uint32_t>(Funcs.size());
    for (size_t Fi = 0; Fi != Aux.Functions.size(); ++Fi) {
      const FunctionInfo &F = Aux.Functions[Fi];
      FuncEntry E;
      E.Name = F.Name;
      E.Sig = Sigs->FuncSigs[Fi];
      E.Addr = M.CodeBase + F.CodeOffset;
      E.Node = newNode();
      E.Keep = Refine && Refine->KeepTargets.count(F.Name);
      Funcs.push_back(E);
    }
    for (size_t Fi = 0; Fi != Aux.Functions.size(); ++Fi) {
      uint32_t F = FirstFunc + static_cast<uint32_t>(Fi);
      if (Aux.Functions[Fi].AddressTaken)
        setAddressTaken(F);
      define(F);
    }
    // A module may take the address of a function another module
    // defines; the definition then becomes an indirect-branch target.
    for (const std::string &Name : Aux.AddressTakenImports)
      if (uint32_t F = use(Name, UseKind::AddressTaken, 0); F != None)
        setAddressTaken(F);

    for (size_t Ci = 0; Ci != Aux.CallSites.size(); ++Ci) {
      const CallSiteInfo &CS = Aux.CallSites[Ci];
      uint64_t RetAddr = M.CodeBase + CS.RetSiteOffset;
      // Setjmp return sites are the runtime's longjmp validation list
      // (global site order), not IBTs.
      if (CS.IsSetjmp) {
        SetjmpRetSites.push_back(RetAddr);
        continue;
      }
      uint32_t C = static_cast<uint32_t>(Calls.size());
      CallEntry E;
      E.RetAddr = RetAddr;
      E.RetNode = addrNode(RetAddr);
      Calls.push_back(E);
      uint32_t Callee =
          CS.Direct
              ? funcNode(use(CS.Callee, UseKind::Call, C))
              : Keys[keyOf(Sigs->CallSigs[Ci], CS.VariadicPointer, CS.Caller)]
                    .Node;
      if (Callee != None)
        addCall(C, Callee);
    }

    // The tail graph: a tail call is an edge from its caller to the
    // callee function or to its key, and each key has an edge to every
    // target.
    for (size_t Ti = 0; Ti != Aux.TailCalls.size(); ++Ti) {
      const TailCallInfo &TC = Aux.TailCalls[Ti];
      uint32_t T = static_cast<uint32_t>(OpenTails.size());
      OpenTail E;
      E.Caller = funcNode(use(TC.Caller, UseKind::TailCaller, T));
      E.To = TC.Direct
                 ? funcNode(use(TC.Callee, UseKind::TailCallee, T))
                 : Keys[keyOf(Sigs->TailSigs[Ti], TC.VariadicPointer,
                              TC.Caller)]
                       .Node;
      if (E.Caller != None && E.To != None)
        addEdge(E.Caller, E.To);
      else
        OpenTails.push_back(E);
    }

    uint32_t Base = SiteIndexBase.back();
    Sites.resize(Sites.size() + Aux.BranchSites.size());
    for (size_t Si = 0; Si != Aux.BranchSites.size(); ++Si) {
      const BranchSite &BS = Aux.BranchSites[Si];
      uint32_t Site = Base + static_cast<uint32_t>(Si);
      Sites[Site].Kind = SiteKind::Empty;
      switch (BS.Kind) {
      case BranchKind::Return:
        if (uint32_t F = use(BS.Function, UseKind::ReturnSite, Site); F != None)
          resolveReturnSite(Site, F);
        break;
      case BranchKind::IndirectCall:
      case BranchKind::IndirectJump: {
        uint32_t K =
            keyOf(Sigs->BranchSigs[Si], BS.VariadicPointer, BS.Function);
        Sites[Site] = {SiteKind::Key, K};
        useKey(K);
        break;
      }
      case BranchKind::PltJump:
        if (uint32_t F = use(BS.PltSymbol, UseKind::PltSite, Site); F != None)
          resolvePltSite(Site, F);
        break;
      }
    }
  }

  /// Makes room for \p Functions more functions and \p CallSites more
  /// call sites with at most one reallocation per table. Most name uses
  /// name an existing definition, so names are sized by definitions.
  void reserve(size_t Functions, size_t CallSites) {
    Names.reserve(Functions);
    Addrs.reserve(Functions + CallSites);
    reserveMore(Funcs, Functions);
    reserveMore(Calls, CallSites);
    reserveMore(Nodes, 2 * Functions + CallSites);
  }

  /// Grows \p V geometrically to hold \p More further elements.
  template <typename T> static void reserveMore(std::vector<T> &V, size_t More) {
    if (V.capacity() < V.size() + More)
      V.reserve(std::max(V.size() + More, 2 * V.capacity()));
  }

  //===--------------------------------------------------------------------===//
  // Undo
  //===--------------------------------------------------------------------===//

  ViewMark mark() const {
    auto Size = [](const auto &V) { return static_cast<uint32_t>(V.size()); };
    return {.OpenTails = Size(OpenTails),
            .Pending = Size(Pending),
            .Keys = Size(Keys),
            .VariadicKeys = Size(VariadicKeys),
            .AddressTaken = Size(AddressTaken),
            .Nodes = Size(Nodes),
            .Edges = Size(Edges),
            .SetjmpRetSites = Size(SetjmpRetSites),
            .NodeLog = Size(NodeLog),
            .FuncLog = Size(FuncLog),
            .CallLog = Size(CallLog),
            .SiteLog = Size(SiteLog),
            .TailLog = Size(TailLog),
            .KeyLog = Size(KeyLog),
            .NameLog = Size(NameLog),
            .AddrLog = Size(AddrLog),
            .Joins = static_cast<uint32_t>(UF.joins()),
            .Trampoline = Trampoline,
            .NumIBs = NumIBs};
  }

  /// Entry \p I of \p V, about to be written. An entry an earlier view
  /// made (below \p Mark) has its old value logged first.
  template <typename T>
  static T &logged(std::vector<T> &V, std::vector<Saved<T>> &Log,
                   size_t Mark, uint32_t I) {
    if (I < Mark)
      Log.push_back({I, V[I]});
    return V[I];
  }
  NodeInfo &node(uint32_t N) {
    return logged(Nodes, NodeLog, Marks.back().Nodes, N);
  }
  FuncEntry &func(uint32_t F) {
    return logged(Funcs, FuncLog, FuncBegin.back(), F);
  }
  CallEntry &call(uint32_t C) {
    return logged(Calls, CallLog, CallBegin.back(), C);
  }
  SiteEntry &site(uint32_t S) {
    return logged(Sites, SiteLog, SiteIndexBase.back(), S);
  }
  OpenTail &tail(uint32_t T) {
    return logged(OpenTails, TailLog, Marks.back().OpenTails, T);
  }
  KeyEntry &key(uint32_t K) {
    if (K < Marks.back().Keys)
      KeyLog.push_back(
          {K, static_cast<uint32_t>(Keys[K].Targets.size()), Keys[K].Used});
    return Keys[K];
  }
  void setLive(uint32_t N) {
    if (!Nodes[N].Live)
      node(N).Live = true;
  }

  /// Restores the entries \p Log saved after its first \p Size, newest
  /// first.
  template <typename T>
  static void undo(std::vector<T> &V, std::vector<Saved<T>> &Log,
                   size_t Size) {
    for (size_t I = Log.size(); I-- > Size;)
      V[Log[I].Index] = Log[I].Old;
    Log.resize(Size);
  }

  /// Drops \p Value from the back of \p Index's list for \p Sig, and the
  /// list once it is empty.
  static void popIndex(
      std::unordered_map<const InternedSig *, std::vector<uint32_t>> &Index,
      const InternedSig *Sig, uint32_t Value) {
    auto It = Index.find(Sig);
    assert(It != Index.end() && It->second.back() == Value &&
           "index appended out of order");
    (void)Value;
    It->second.pop_back();
    if (It->second.empty())
      Index.erase(It);
  }

  /// Forgets views[N..): every write they made to older entries is put
  /// back, every key, name and address they added is erased, and every
  /// array is cut to where it stood before views[N] was folded in.
  void truncate(size_t N) {
    assert(N <= Views.size() && "truncating past the end");
    if (N == Views.size())
      return;
    const ViewMark K = Marks[N];
    undo(Nodes, NodeLog, K.NodeLog);
    undo(Funcs, FuncLog, K.FuncLog);
    undo(Calls, CallLog, K.CallLog);
    undo(Sites, SiteLog, K.SiteLog);
    undo(OpenTails, TailLog, K.TailLog);
    for (size_t I = KeyLog.size(); I-- > K.KeyLog;) {
      KeyEntry &E = Keys[KeyLog[I].Key];
      E.Targets.resize(KeyLog[I].Targets);
      E.Used = KeyLog[I].Used;
    }
    KeyLog.resize(K.KeyLog);
    for (size_t I = NameLog.size(); I-- > K.NameLog;) {
      const NameUndo &U = NameLog[I];
      auto Match = [&](const NameSlot &X) { return X.Name == U.Name; };
      if (U.Created) {
        Names.erase(U.Hash, Match);
      } else {
        NameSlot &S = Names.at(U.Hash, Match);
        S.Func = U.Func;
        S.Waiting = U.Waiting;
      }
    }
    NameLog.resize(K.NameLog);
    for (size_t I = AddrLog.size(); I-- > K.AddrLog;) {
      uint64_t Addr = AddrLog[I];
      Addrs.erase(hashAddr(Addr),
                  [&](const AddrSlot &X) { return X.Addr == Addr; });
    }
    AddrLog.resize(K.AddrLog);
    for (size_t I = AddressTaken.size(); I-- > K.AddressTaken;)
      popIndex(BySig, Funcs[AddressTaken[I]].Sig, AddressTaken[I]);
    for (size_t I = Keys.size(); I-- > K.Keys;) {
      KeyIndex.erase(Keys[I].Key);
      if (!Keys[I].Key.Variadic)
        popIndex(ExactKeys, Keys[I].Key.Sig, static_cast<uint32_t>(I));
    }
    UF.rollback(K.Joins, K.Nodes);

    Funcs.resize(FuncBegin[N]);
    Calls.resize(CallBegin[N]);
    Sites.resize(SiteIndexBase[N]);
    Views.resize(N);
    FuncBegin.resize(N);
    CallBegin.resize(N);
    SiteIndexBase.resize(N);
    Marks.resize(N);
    OpenTails.resize(K.OpenTails);
    Pending.resize(K.Pending);
    Keys.resize(K.Keys);
    VariadicKeys.resize(K.VariadicKeys);
    AddressTaken.resize(K.AddressTaken);
    Nodes.resize(K.Nodes);
    Edges.resize(K.Edges);
    SetjmpRetSites.resize(K.SetjmpRetSites);
    NumIBs = K.NumIBs;
    Trampoline = K.Trampoline;
  }

  //===--------------------------------------------------------------------===//
  // Names
  //===--------------------------------------------------------------------===//

  static uint32_t hashName(std::string_view Name) {
    return static_cast<uint32_t>(std::hash<std::string_view>()(Name));
  }

  /// The slot of \p Name, claimed if absent; the flag is true when this
  /// call claimed it. A claim is logged. A caller about to write a slot
  /// it did not just claim logs it first with logName().
  std::pair<NameSlot &, bool> claimName(std::string_view Name) {
    uint32_t Hash = hashName(Name);
    auto Claim =
        Names.claim(Hash, [&](const NameSlot &X) { return X.Name == Name; });
    if (Claim.second) {
      Claim.first.Name = Name;
      NameLog.push_back({Name, Hash, None, None, true});
    }
    return Claim;
  }

  void logName(const NameSlot &S) {
    NameLog.push_back({S.Name, S.Hash, S.Func, S.Waiting, false});
  }

  /// The function \p Name resolves to, or None after parking the use
  /// (\p Kind, \p Index) until a module defines it.
  uint32_t use(std::string_view Name, UseKind Kind, uint32_t Index) {
    auto [S, Created] = claimName(Name);
    if (S.Func != None)
      return S.Func;
    if (!Created)
      logName(S);
    Pending.push_back({Kind, Index, S.Waiting});
    S.Waiting = static_cast<uint32_t>(Pending.size() - 1);
    return None;
  }

  /// Registers function \p F under its name. Only the first definition
  /// binds; it settles every use that was waiting for the name.
  void define(uint32_t F) {
    std::string_view Name = Funcs[F].Name;
    auto [S, Created] = claimName(Name);
    if (S.Func != None)
      return;
    if (!Created)
      logName(S);
    S.Func = F;
    uint32_t Waiting = S.Waiting;
    S.Waiting = None;
    // Signal handlers may return to the sigreturn trampoline.
    if (Name == "sig$return") {
      Trampoline = F;
      funcAddrNode(F);
      for (uint32_t G = 0; G != Funcs.size(); ++G)
        checkTrampoline(G);
    }
    for (uint32_t P = Waiting; P != None; P = Pending[P].Next)
      settle(Pending[P], F);
  }

  void settle(const PendingUse &U, uint32_t F) {
    switch (U.Kind) {
    case UseKind::Call:
      addCall(U.Index, Funcs[F].Node);
      break;
    case UseKind::TailCaller:
    case UseKind::TailCallee: {
      OpenTail &T = tail(U.Index);
      (U.Kind == UseKind::TailCaller ? T.Caller : T.To) = Funcs[F].Node;
      if (T.Caller != None && T.To != None)
        addEdge(T.Caller, T.To);
      break;
    }
    case UseKind::ReturnSite:
      resolveReturnSite(U.Index, F);
      break;
    case UseKind::PltSite:
      resolvePltSite(U.Index, F);
      break;
    case UseKind::AddressTaken:
      setAddressTaken(F);
      break;
    }
  }

  uint32_t funcNode(uint32_t F) const { return F == None ? None : Funcs[F].Node; }

  uint32_t funcAddrNode(uint32_t F) {
    if (Funcs[F].AddrNode == None) {
      uint32_t N = addrNode(Funcs[F].Addr);
      func(F).AddrNode = N;
    }
    return Funcs[F].AddrNode;
  }

  //===--------------------------------------------------------------------===//
  // Nodes
  //===--------------------------------------------------------------------===//

  uint32_t newNode() {
    Nodes.emplace_back();
    return UF.add();
  }

  static uint32_t hashAddr(uint64_t Addr) {
    return static_cast<uint32_t>(Addr * 0x9E3779B97F4A7C15ull >> 32);
  }

  /// The union-find node of code address \p Addr (one per address, so
  /// a function entry and a return site at the same address share it).
  uint32_t addrNode(uint64_t Addr) {
    auto [S, Created] = Addrs.claim(
        hashAddr(Addr), [&](const AddrSlot &X) { return X.Addr == Addr; });
    if (Created) {
      S.Addr = Addr;
      S.Node = newNode();
      AddrLog.push_back(Addr);
    }
    return S.Node;
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
    TargetKey Key{Sig, Variadic, Allowed};
    auto [It, New] =
        KeyIndex.try_emplace(Key, static_cast<uint32_t>(Keys.size()));
    if (!New)
      return It->second;
    uint32_t K = It->second;
    Keys.push_back({Key, newNode(), false, {}});
    (Variadic ? VariadicKeys : ExactKeys[Sig]).push_back(K);
    // The address-taken functions matching so far; later ones join
    // through setAddressTaken. The non-variadic case is one hash lookup
    // on the interned pointer; the variadic fixed-prefix rule is a
    // pointer-compare scan, paid once per distinct key.
    if (!Variadic) {
      if (auto BS = BySig.find(Sig); BS != BySig.end())
        for (uint32_t F : BS->second)
          if (keyAllows(K, F))
            addKeyTarget(K, F);
    } else {
      for (size_t I = 0; I != AddressTaken.size(); ++I) {
        uint32_t F = AddressTaken[I];
        if (internedCalleeMatches(Sig, /*PointerVariadic=*/true, Funcs[F].Sig) &&
            keyAllows(K, F))
          addKeyTarget(K, F);
      }
    }
    return K;
  }

  bool keyAllows(uint32_t K, uint32_t F) const {
    const std::set<std::string> *Allowed = Keys[K].Key.Allowed;
    return !Allowed || Allowed->count(std::string(Funcs[F].Name));
  }

  void addKeyTarget(uint32_t K, uint32_t F) {
    key(K).Targets.push_back(F);
    if (Keys[K].Used)
      joinKeyTarget(K, F);
    addEdge(Keys[K].Node, Funcs[F].Node);
  }

  /// All targets of one branch share a class (classic CFI coarsening,
  /// paper Sec. 2); equal keys have equal sets, so each key once.
  void joinKeyTarget(uint32_t K, uint32_t F) {
    UF.merge(Funcs[Keys[K].Targets.front()].AddrNode, Funcs[F].AddrNode);
    setLive(Funcs[F].AddrNode);
  }

  void useKey(uint32_t K) {
    if (Keys[K].Used)
      return;
    key(K).Used = true;
    for (uint32_t F : Keys[K].Targets)
      joinKeyTarget(K, F);
  }

  void setAddressTaken(uint32_t F) {
    if (Funcs[F].AddressTaken)
      return;
    func(F).AddressTaken = true;
    funcAddrNode(F);
    const InternedSig *Sig = Funcs[F].Sig;
    BySig[Sig].push_back(F);
    AddressTaken.push_back(F);
    // Every existing key the function matches gains it.
    if (auto It = ExactKeys.find(Sig); It != ExactKeys.end())
      for (uint32_t K : It->second)
        if (keyAllows(K, F))
          addKeyTarget(K, F);
    for (uint32_t K : VariadicKeys)
      if (internedCalleeMatches(Keys[K].Key.Sig, /*PointerVariadic=*/true,
                                Sig) &&
          keyAllows(K, F))
        addKeyTarget(K, F);
    checkTrampoline(F);
  }

  //===--------------------------------------------------------------------===//
  // Sites
  //===--------------------------------------------------------------------===//

  void resolveReturnSite(uint32_t Site, uint32_t F) {
    site(Site) = {SiteKind::Return, F};
    if (Funcs[F].Returns)
      return;
    func(F).Returns = true;
    markRelevant(Funcs[F].Node);
    checkTrampoline(F);
  }

  void resolvePltSite(uint32_t Site, uint32_t F) {
    site(Site) = {SiteKind::Plt, F};
    setLive(funcAddrNode(F));
  }

  /// A returning, address-taken function of the signal-handler type may
  /// "return" to the sigreturn trampoline.
  void checkTrampoline(uint32_t F) {
    const FuncEntry &E = Funcs[F];
    if (Trampoline == None || E.ToTrampoline || !E.Returns ||
        !E.AddressTaken || E.Sig != HandlerSig)
      return;
    func(F).ToTrampoline = true;
    uint32_t T = Funcs[Trampoline].AddrNode;
    UF.merge(Funcs[F].Node, T);
    setLive(T);
  }

  //===--------------------------------------------------------------------===//
  // Return flow
  //===--------------------------------------------------------------------===//

  /// A return site of f targets S(f): the return sites of calls to any
  /// g with a tail path g ->* f. The per-site closure unions all of S(f);
  /// the same classes come from helper nodes: a call's return site joins
  /// its callee's node, and an *active* node (one reachable over tail
  /// edges from a called node) joins every *relevant* successor (one
  /// from which some returning function is reachable). A return site of
  /// f then takes the class of f's node.
  ///
  /// Only relevant callees and successors are joined: an edge into a
  /// node that reaches no returning function would bridge the sets of
  /// two callers that share no S(f). Only active nodes join their
  /// successors: an uncalled g contributes nothing to any S(f), so it
  /// must not connect the functions it tail-calls. Every join is thereby
  /// between two parts of one S(f), and every S(f) is connected.
  ///
  /// Both properties only grow, so each is propagated when it first
  /// holds, and each join is made when both of its conditions first do.
  void markRelevant(uint32_t N) {
    if (Nodes[N].Relevant)
      return;
    node(N).Relevant = true;
    RelevantWork.push_back(N);
    while (!RelevantWork.empty()) {
      uint32_t X = RelevantWork.back();
      RelevantWork.pop_back();
      for (uint32_t C = Nodes[X].FirstCall; C != None; C = Calls[C].NextToCallee)
        joinCall(C);
      for (uint32_t E = Nodes[X].FirstPred; E != None; E = Edges[E].NextPred) {
        uint32_t P = Edges[E].From;
        if (Nodes[P].Active) {
          UF.merge(P, X);
          activate(X);
        }
        if (!Nodes[P].Relevant) {
          node(P).Relevant = true;
          RelevantWork.push_back(P);
        }
      }
    }
  }

  void activate(uint32_t N) {
    if (Nodes[N].Active)
      return;
    node(N).Active = true;
    ActiveWork.push_back(N);
    while (!ActiveWork.empty()) {
      uint32_t X = ActiveWork.back();
      ActiveWork.pop_back();
      for (uint32_t E = Nodes[X].FirstSucc; E != None; E = Edges[E].NextSucc) {
        uint32_t S = Edges[E].To;
        if (!Nodes[S].Relevant)
          continue;
        UF.merge(X, S);
        if (!Nodes[S].Active) {
          node(S).Active = true;
          ActiveWork.push_back(S);
        }
      }
    }
  }

  /// Call \p C's return site joins its relevant callee.
  void joinCall(uint32_t C) {
    uint32_t N = Calls[C].Callee;
    UF.merge(Calls[C].RetNode, N);
    setLive(Calls[C].RetNode);
    activate(N);
  }

  void addCall(uint32_t C, uint32_t Callee) {
    CallEntry &E = call(C);
    E.Callee = Callee;
    E.NextToCallee = Nodes[Callee].FirstCall;
    node(Callee).FirstCall = C;
    if (Nodes[Callee].Relevant)
      joinCall(C);
  }

  void addEdge(uint32_t From, uint32_t To) {
    uint32_t E = static_cast<uint32_t>(Edges.size());
    Edges.push_back({From, To, Nodes[From].FirstSucc, Nodes[To].FirstPred});
    node(From).FirstSucc = E;
    node(To).FirstPred = E;
    if (!Nodes[To].Relevant)
      return;
    markRelevant(From);
    if (Nodes[From].Active) {
      UF.merge(From, To);
      activate(To);
    }
  }

  //===--------------------------------------------------------------------===//
  // Emit
  //===--------------------------------------------------------------------===//

  /// Under refinement an address-taken function outside every target
  /// set (and not pinned) has no live inbound edge and leaves the IBT
  /// universe — keeping it would leave a stale singleton class; a branch
  /// to it then fails the Tary check like any other non-target address.
  bool isIBT(const FuncEntry &F) const {
    return F.AddressTaken && (!Refine || Nodes[F.AddrNode].Live || F.Keep);
  }

  CFGPolicy emit() const {
    CFGPolicy Policy;
    Policy.SiteIndexBase = SiteIndexBase;
    Policy.SetjmpRetSites = SetjmpRetSites;
    // Tombstone slots are placeholders, not instrumented branches.
    Policy.NumIBs = NumIBs;

    // IBTs grouped *per module* (each module's address-taken entries,
    // then its return sites), then the remaining targets in global-site
    // order: PLT targets that are not address-taken and the sigreturn
    // trampoline. Loading another module only appends to this order, so
    // the first-seen ECN assignment gives every pre-existing class the
    // same number it had before — the stability the incremental-update
    // delta relies on. It is recomputed from the views on every emit, so
    // the numbering does not depend on how the views were appended.
    std::vector<uint8_t> Seen(Nodes.size(), 0);
    std::vector<std::pair<uint32_t, uint64_t>> IBTs; ///< {node, address}
    IBTs.reserve(Calls.size() + AddressTaken.size());
    auto visit = [&](uint32_t Node, uint64_t Addr) {
      if (!Seen[Node]) {
        Seen[Node] = 1;
        IBTs.push_back({Node, Addr});
      }
    };
    for (size_t Mi = 0; Mi != Views.size(); ++Mi) {
      bool Last = Mi + 1 == Views.size();
      uint32_t FuncEnd = Last ? Funcs.size() : FuncBegin[Mi + 1];
      uint32_t CallEnd = Last ? Calls.size() : CallBegin[Mi + 1];
      for (uint32_t F = FuncBegin[Mi]; F != FuncEnd; ++F)
        if (isIBT(Funcs[F]))
          visit(Funcs[F].AddrNode, Funcs[F].Addr);
      for (uint32_t C = CallBegin[Mi]; C != CallEnd; ++C)
        visit(Calls[C].RetNode, Calls[C].RetAddr);
    }
    for (const SiteEntry &S : Sites) {
      if (S.Kind == SiteKind::Plt)
        visit(Funcs[S.Index].AddrNode, Funcs[S.Index].Addr);
      else if (S.Kind == SiteKind::Return && Funcs[S.Index].ToTrampoline)
        visit(Funcs[Trampoline].AddrNode, Funcs[Trampoline].Addr);
    }

    // Class sizes and ECNs count IBTs only, first-seen in IBT order.
    // Per-root slots span every node: a root may be a helper.
    std::vector<uint32_t> RootECN(Nodes.size(), None);
    std::vector<uint32_t> RootSize(Nodes.size(), 0);
    uint32_t NextECN = 0;
    std::vector<TargetECNTable::value_type> Targets;
    Targets.reserve(IBTs.size());
    for (const auto &[Node, Addr] : IBTs) {
      uint32_t Root = UF.find(Node);
      ++RootSize[Root];
      if (RootECN[Root] == None)
        RootECN[Root] = NextECN++;
      Targets.push_back({Addr, RootECN[Root]});
    }
    Policy.TargetECN = TargetECNTable(std::move(Targets));

    // Real classes must stay below the reserved empty-class ECN so the
    // fail-closed encoding below can never collide with one.
    assert(NextECN < EmptyClassECN && "ECN space exhausted");

    Policy.BranchECN.assign(Sites.size(), -1);
    Policy.BranchClassSize.assign(Sites.size(), 0);
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
        if (!Keys[S.Index].Targets.empty())
          Node = Funcs[Keys[S.Index].Targets.front()].AddrNode;
        break;
      case SiteKind::Return:
        Node = Funcs[S.Index].Node;
        break;
      case SiteKind::Plt:
        Node = Funcs[S.Index].AddrNode;
        break;
      }
      uint32_t Root = Node == None ? None : UF.find(Node);
      if (Root == None || RootECN[Root] == None) {
        // Empty target set: the shared reserved ECN no address carries,
        // so the check always fails closed. One fixed number (rather
        // than a fresh ECN per site) keeps ECN assignment stable when
        // the CFG is regenerated with more modules.
        Policy.BranchECN[B] = EmptyClassECN;
        continue;
      }
      Policy.BranchECN[B] = RootECN[Root];
      Policy.BranchClassSize[B] = RootSize[Root];
    }

    Policy.NumIBTs = IBTs.size();
    Policy.NumEQCs = NextECN;
    return Policy;
  }

  const CFGRefinement *Refine;
  const InternedSig *HandlerSig;

  /// Per view, in load order: the view, where its functions, calls and
  /// branch sites begin, and where the rest of the state stood.
  std::vector<LoadedModuleView> Views;
  std::vector<uint32_t> FuncBegin, CallBegin, SiteIndexBase;
  std::vector<ViewMark> Marks;
  std::vector<uint64_t> SetjmpRetSites;
  uint64_t NumIBs = 0;

  std::vector<FuncEntry> Funcs;
  std::vector<CallEntry> Calls; ///< non-setjmp call sites, global order
  std::vector<SiteEntry> Sites; ///< per global branch-site index
  std::vector<OpenTail> OpenTails;
  std::vector<PendingUse> Pending;
  FlatTable<NameSlot> Names;
  FlatTable<AddrSlot> Addrs;
  uint32_t Trampoline = None; ///< the function sig$return

  std::vector<KeyEntry> Keys;
  std::unordered_map<TargetKey, uint32_t, TargetKeyHash> KeyIndex;
  std::unordered_map<const InternedSig *, std::vector<uint32_t>> ExactKeys;
  std::vector<uint32_t> VariadicKeys;
  /// Address-taken functions by signature, and all of them.
  std::unordered_map<const InternedSig *, std::vector<uint32_t>> BySig;
  std::vector<uint32_t> AddressTaken;

  /// Union-find over address, function and key nodes; Nodes is
  /// index-parallel.
  UnionFind UF{0};
  std::vector<NodeInfo> Nodes;
  std::vector<Edge> Edges;
  std::vector<uint32_t> RelevantWork, ActiveWork; ///< scratch

  /// The undo logs: old values of entries a later view overwrote, name
  /// slots claimed or written, and addresses claimed, in write order.
  std::vector<Saved<NodeInfo>> NodeLog;
  std::vector<Saved<FuncEntry>> FuncLog;
  std::vector<Saved<CallEntry>> CallLog;
  std::vector<Saved<SiteEntry>> SiteLog;
  std::vector<Saved<OpenTail>> TailLog;
  std::vector<KeyUndo> KeyLog;
  std::vector<NameUndo> NameLog;
  std::vector<uint64_t> AddrLog;
};

TargetECNTable::TargetECNTable(std::vector<value_type> Unsorted)
    : Entries(std::move(Unsorted)) {
  auto ByAddr = [](const value_type &A, const value_type &B) {
    return A.first < B.first;
  };
  // emit() walks modules in load order, which is usually address order.
  if (!std::is_sorted(Entries.begin(), Entries.end(), ByAddr))
    std::stable_sort(Entries.begin(), Entries.end(), ByAddr);
  Entries.erase(std::unique(Entries.begin(), Entries.end(),
                            [](const value_type &A, const value_type &B) {
                              return A.first == B.first;
                            }),
                Entries.end());
}

uint32_t TargetECNTable::at(uint64_t Addr) const {
  auto It = find(Addr);
  if (It == end())
    throw std::out_of_range("TargetECNTable::at: not a target");
  return It->second;
}

CFGMerge::CFGMerge(const CFGRefinement *Refinement)
    : S(std::make_unique<State>(Refinement)) {}
CFGMerge::CFGMerge(const CFGMerge &Other)
    : S(std::make_unique<State>(*Other.S)) {}
CFGMerge &CFGMerge::operator=(const CFGMerge &Other) {
  // Assigning in place keeps this state's buffers.
  if (this != &Other)
    *S = *Other.S;
  return *this;
}
CFGMerge::~CFGMerge() = default;

void CFGMerge::append(const LoadedModuleView &View) { S->append(View); }

void CFGMerge::truncate(size_t N) { S->truncate(N); }

const std::vector<LoadedModuleView> &CFGMerge::views() const {
  return S->Views;
}

CFGPolicy CFGMerge::emit() const { return S->emit(); }

CFGPolicy mcfi::generateCFG(const std::vector<LoadedModuleView> &Modules,
                            const CFGRefinement *Refinement) {
  CFGMerge Merge(Refinement);
  // Size every table for the whole world up front: growing them module
  // by module frees large blocks the allocator returns to the system,
  // and the next merge faults them back in.
  size_t Functions = 0, CallSites = 0;
  for (const LoadedModuleView &M : Modules)
    if (M.Obj) {
      Functions += M.Obj->Aux.Functions.size();
      CallSites += M.Obj->Aux.CallSites.size();
    }
  Merge.S->reserve(Functions, CallSites);
  for (const LoadedModuleView &M : Modules)
    Merge.append(M);
  return Merge.emit();
}
