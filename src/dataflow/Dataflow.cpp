//===- dataflow/Dataflow.cpp - Function-pointer dataflow engine -----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The engine is a constraint-graph points-to analysis specialized to
// function-address values:
//
//   nodes   — abstract values: one per interesting expression, one per
//             memory cell (globals, address-taken locals, record fields,
//             array-element summaries, heap allocation sites), one per
//             SSA-lite definition of a simple local, plus phi/join nodes;
//   facts   — "node may hold the address of function F" / "node may hold
//             a pointer to cell L"; an Unknown bit marks values the
//             engine cannot account for;
//   edges   — value flow (assignment, cast, call binding, control-flow
//             join); each edge optionally carries an evidence step, and
//             every fact remembers the edge that first produced it, so a
//             source-level witness chain can be replayed from any fact;
//   triggers— dynamic constraints attached to nodes: pointer loads and
//             stores materialize edges when a cell address arrives, and
//             indirect-call sites bind arguments/returns when a target
//             function arrives (on-the-fly call graph).
//
// Fixpoint: a worklist propagates facts and Unknown bits until no new
// fact exists. Dynamic edges replay the source node's accumulated facts
// when added, so late-added constraints stay monotone and the result is
// the least fixpoint of the constraint system. Termination: nodes are
// bounded by the AST plus a capped family of derived cells (array-element
// nesting is cut off at a fixed depth and degrades to Unknown), and facts
// are drawn from the finite function-name/cell domains.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dataflow.h"

#include "cfg/SigMatch.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <map>

namespace mcfi {

using namespace minic;

namespace {

using NodeId = int;
using LocId = int;
using FactId = int;
using StepId = int;

constexpr int MaxElemDepth = 4;    ///< array-element derivation cutoff
constexpr unsigned MaxChain = 64;  ///< witness-chain length cap

/// A value-flow edge; Step < 0 means the hop is silent (control-flow
/// joins, decay) and contributes nothing to witness chains.
struct Edge {
  NodeId To = -1;
  StepId Step = -1;
};

/// Why a fact holds at a node: the predecessor fact it was copied from
/// and the evidence step of the copying edge. Pred < 0 marks a seed.
struct Prov {
  NodeId Pred = -1;
  StepId Step = -1;
};

/// Dynamic constraints. Fired when a fact or the Unknown bit reaches the
/// node they are attached to.
struct Trigger {
  enum Kind : uint8_t {
    DerefLoad,  ///< node is the address operand of a load
    DerefStore, ///< node is the address operand of a store
    ElemDecay,  ///< node holds cell addresses; Result gets their
                ///< array-element summaries
    Site,       ///< node is the callee value of an indirect call
    Escape,     ///< the escape sink
  };
  Kind K;
  NodeId Result = -1; ///< DerefLoad / ElemDecay
  NodeId Value = -1;  ///< DerefStore
  StepId Step = -1;   ///< evidence for the load/store hop
  int SiteIdx = -1;   ///< Site
  SourceLoc Loc;      ///< source position for notes
};

struct Node {
  std::vector<Edge> Out;
  std::map<FactId, Prov> Facts;
  std::vector<int> Trigs;
  bool Unknown = false;
};

/// An abstract memory cell.
struct Loc {
  std::string Desc; ///< human description for evidence steps
  NodeId Cell = -1; ///< node holding the cell's contents
  int ElemDepth = 0;
};

struct Fact {
  bool IsFn = false;
  std::string Fn; ///< function name if IsFn
  LocId L = -1;   ///< cell id otherwise
};

/// Whole-program view of one function name (linker semantics: first
/// definition wins, declarations bind to it).
struct FuncInfo {
  std::string Name;
  std::string Sig;
  bool Variadic = false;
  bool Defined = false;
  bool AddrTaken = false;
  bool HasGoto = false;
  BuiltinKind Builtin = BuiltinKind::None;
  FuncDecl *Decl = nullptr; ///< the canonical (defining) declaration
  int ModuleIdx = -1;
  TypeContext *TC = nullptr;
  std::set<const VarDecl *> AddrTakenLocals;
  std::vector<NodeId> ParamDefs; ///< binding points for arguments
  NodeId Ret = -1;               ///< return-value node
  /// Additional definitions of the same name (an audited module set may
  /// be a union of programs that each link one copy). Every copy is
  /// walked, and bindings to the name fan out to every copy.
  std::vector<FuncInfo> Shadows;
};

struct SiteRec {
  SiteFlow Flow; ///< Targets/Chains/Complete filled at finalize
  NodeId Callee = -1;
  NodeId Result = -1;
  std::vector<NodeId> Args;
  std::set<std::string> Bound;
  bool BoundAllMatched = false;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

class Engine {
public:
  explicit Engine(const std::vector<FlowModule> &Mods) : Mods(Mods) {}

  DataflowResult run();

private:
  const std::vector<FlowModule> &Mods;

  std::vector<Node> Nodes;
  std::vector<Loc> Locs;
  std::map<std::string, LocId> LocIds;
  std::vector<Fact> Facts;
  std::map<std::string, FactId> FactIds;
  std::vector<EvidenceStep> Steps;
  std::vector<Trigger> Trigs;
  std::map<std::string, FuncInfo> Registry;
  std::vector<SiteRec> Sites;

  std::deque<std::pair<NodeId, FactId>> FactWL;
  std::deque<NodeId> UnknownWL;

  NodeId EscapeNode = -1;
  std::set<std::string> Escaped;
  bool Havoc = false;
  std::set<std::string> NoteSet;
  std::vector<std::string> Notes;
  unsigned Iterations = 0;
  int HeapCounter = 0;

  //===--------------------------------------------------------------------===//
  // Graph primitives
  //===--------------------------------------------------------------------===//

  NodeId newNode() {
    Nodes.emplace_back();
    return static_cast<NodeId>(Nodes.size() - 1);
  }

  StepId newStep(int ModuleIdx, SourceLoc L, std::string Desc) {
    Steps.push_back({ModuleIdx >= 0 ? Mods[ModuleIdx].Name : std::string(), L,
                     std::move(Desc)});
    return static_cast<StepId>(Steps.size() - 1);
  }

  FactId fnFact(const std::string &Name) {
    auto [It, New] = FactIds.try_emplace("F:" + Name, Facts.size());
    if (New)
      Facts.push_back({true, Name, -1});
    return It->second;
  }

  FactId locFact(LocId L) {
    auto [It, New] = FactIds.try_emplace("L:" + std::to_string(L),
                                         static_cast<int>(Facts.size()));
    if (New)
      Facts.push_back({false, "", L});
    return It->second;
  }

  LocId internLoc(const std::string &Key, const std::string &Desc, int Depth) {
    auto [It, New] = LocIds.try_emplace(Key, Locs.size());
    if (New) {
      Locs.push_back({Desc, newNode(), Depth});
    }
    return It->second;
  }

  NodeId cellNode(LocId L) { return Locs[L].Cell; }

  LocId globalCell(const std::string &Name) {
    return internLoc("G:" + Name, "global '" + Name + "'", 0);
  }

  LocId localCell(const std::string &Fn, const VarDecl *V) {
    return internLoc("V:" + Fn + ":" + V->getName() + ":" +
                         std::to_string(reinterpret_cast<uintptr_t>(V)),
                     "local '" + V->getName() + "' of '" + Fn + "'", 0);
  }

  LocId fieldCell(TypeContext &TC, const RecordType *R, unsigned Index) {
    // Field-based: one cell per (record signature, field index), shared
    // by all instances and unified across modules via the canonical
    // signature. Unions collapse to a single cell — their fields alias.
    unsigned I = R->isUnion() ? 0 : Index;
    std::string Sig = TC.canonicalSignature(R);
    std::string FieldName =
        R->isComplete() && I < R->getFields().size() ? R->getFields()[I].Name
                                                     : std::to_string(I);
    return internLoc("R:" + Sig + ":" + std::to_string(I),
                     "field '" + R->getTag() + "." + FieldName + "'", 0);
  }

  LocId heapCell(SourceLoc L) {
    return internLoc("H:" + std::to_string(HeapCounter++),
                     "heap object allocated at line " + std::to_string(L.Line),
                     0);
  }

  /// The array-element summary cell derived from \p Base, or -1 when the
  /// derivation depth cap is hit (the caller degrades to Unknown).
  LocId elemCell(LocId Base) {
    if (Locs[Base].ElemDepth >= MaxElemDepth)
      return -1;
    return internLoc("E:" + std::to_string(Base),
                     "elements of " + Locs[Base].Desc,
                     Locs[Base].ElemDepth + 1);
  }

  void note(const std::string &Msg) {
    if (NoteSet.insert(Msg).second)
      Notes.push_back(Msg);
  }

  void setHavoc(const std::string &Why) {
    Havoc = true;
    note("havoc: " + Why);
  }

  bool insertFact(NodeId N, FactId F, Prov P) {
    auto [It, New] = Nodes[N].Facts.try_emplace(F, P);
    (void)It;
    if (New)
      FactWL.push_back({N, F});
    return New;
  }

  void setUnknown(NodeId N) {
    if (N < 0 || Nodes[N].Unknown)
      return;
    Nodes[N].Unknown = true;
    UnknownWL.push_back(N);
  }

  void addEdge(NodeId From, NodeId To, StepId Step) {
    if (From < 0 || To < 0 || From == To)
      return;
    for (const Edge &E : Nodes[From].Out)
      if (E.To == To && E.Step == Step)
        return;
    Nodes[From].Out.push_back({To, Step});
    // Replay: dynamic edges must see facts that arrived before them.
    for (auto &[F, P] : Nodes[From].Facts)
      insertFact(To, F, {From, Step});
    if (Nodes[From].Unknown)
      setUnknown(To);
  }

  void addTrigger(NodeId N, Trigger T) {
    Trigs.push_back(T);
    Nodes[N].Trigs.push_back(static_cast<int>(Trigs.size() - 1));
  }

  //===--------------------------------------------------------------------===//
  // Fixpoint
  //===--------------------------------------------------------------------===//

  void fixpoint() {
    while (!FactWL.empty() || !UnknownWL.empty()) {
      ++Iterations;
      if (!FactWL.empty()) {
        auto [N, F] = FactWL.front();
        FactWL.pop_front();
        for (size_t I = 0; I < Nodes[N].Out.size(); ++I) {
          Edge E = Nodes[N].Out[I];
          insertFact(E.To, F, {N, E.Step});
        }
        for (size_t I = 0; I < Nodes[N].Trigs.size(); ++I)
          fireFact(Trigs[Nodes[N].Trigs[I]], N, F);
        continue;
      }
      NodeId N = UnknownWL.front();
      UnknownWL.pop_front();
      for (size_t I = 0; I < Nodes[N].Out.size(); ++I)
        setUnknown(Nodes[N].Out[I].To);
      for (size_t I = 0; I < Nodes[N].Trigs.size(); ++I)
        fireUnknown(Trigs[Nodes[N].Trigs[I]], N);
    }
  }

  void fireFact(const Trigger &T, NodeId N, FactId F) {
    const Fact &Fa = Facts[F];
    switch (T.K) {
    case Trigger::DerefLoad:
      if (Fa.IsFn) {
        // Dereferencing a function designator/pointer value yields the
        // function itself (C's deref-decay round trip).
        insertFact(T.Result, F, {N, -1});
      } else {
        addEdge(cellNode(Fa.L), T.Result, T.Step);
      }
      break;
    case Trigger::DerefStore:
      if (!Fa.IsFn)
        addEdge(T.Value, cellNode(Fa.L), T.Step);
      break;
    case Trigger::ElemDecay:
      if (!Fa.IsFn) {
        LocId E = elemCell(Fa.L);
        if (E < 0) {
          note("array-element derivation depth cap hit; value widened to "
               "unknown");
          setUnknown(T.Result);
        } else {
          insertFact(T.Result, locFact(E), {N, -1});
        }
      }
      break;
    case Trigger::Site:
      if (Fa.IsFn)
        bindSiteTarget(Sites[T.SiteIdx], Fa.Fn);
      break;
    case Trigger::Escape:
      if (Fa.IsFn) {
        escapeFunction(Fa.Fn);
      } else {
        // The cell itself escapes: external code may overwrite it with
        // anything, and whatever it holds (now or later) escapes too.
        setUnknown(cellNode(Fa.L));
        addEdge(cellNode(Fa.L), EscapeNode, -1);
      }
      break;
    }
  }

  void fireUnknown(const Trigger &T, NodeId N) {
    (void)N;
    switch (T.K) {
    case Trigger::DerefLoad:
    case Trigger::ElemDecay:
      setUnknown(T.Result);
      break;
    case Trigger::DerefStore:
      setHavoc("store through unresolved pointer at line " +
               std::to_string(T.Loc.Line));
      break;
    case Trigger::Site: {
      // An unresolved callee value: at runtime the CFI check still
      // restricts the call to type-matched address-taken functions, so
      // bind exactly those (keeps *other* sites' completeness sound).
      SiteRec &S = Sites[T.SiteIdx];
      if (!S.BoundAllMatched) {
        S.BoundAllMatched = true;
        for (auto &[Name, FI] : Registry)
          if (FI.AddrTaken && FI.Defined &&
              calleeSigMatches(S.Flow.PointerSig, S.Flow.VariadicPointer,
                               FI.Sig))
            bindSiteTarget(S, Name);
        setUnknown(S.Result);
      }
      break;
    }
    case Trigger::Escape:
      break;
    }
  }

  void escapeFunction(const std::string &Name) {
    if (!Escaped.insert(Name).second)
      return;
    auto It = Registry.find(Name);
    if (It == Registry.end() || !It->second.Defined)
      return;
    // External code may invoke the escaped function with any arguments.
    for (NodeId P : It->second.ParamDefs)
      setUnknown(P);
    for (FuncInfo &Sh : It->second.Shadows)
      for (NodeId P : Sh.ParamDefs)
        setUnknown(P);
  }

  void bindSiteTarget(SiteRec &S, const std::string &Name) {
    if (!S.Bound.insert(Name).second)
      return;
    auto It = Registry.find(Name);
    if (It == Registry.end() || !It->second.Defined) {
      // Target body is outside the module set: arguments escape, the
      // result is unaccounted for.
      note("indirect call target '" + Name +
           "' is not defined in the module set");
      for (NodeId A : S.Args)
        addEdge(A, EscapeNode, -1);
      setUnknown(S.Result);
      return;
    }
    bindSiteImpl(S, It->second);
    for (FuncInfo &Sh : It->second.Shadows)
      bindSiteImpl(S, Sh);
  }

  void bindSiteImpl(SiteRec &S, FuncInfo &FI) {
    for (size_t I = 0; I < S.Args.size(); ++I) {
      if (I < FI.ParamDefs.size()) {
        StepId St = newStep(S.Flow.Module.empty() ? -1 : moduleIdx(S.Flow),
                            S.Flow.Loc,
                            "passed as argument " + std::to_string(I + 1) +
                                " of indirect call in '" + S.Flow.Caller +
                                "'");
        addEdge(S.Args[I], FI.ParamDefs[I], St);
      } else {
        // Extra arguments of a variadic target are accessed through
        // machinery the engine does not model.
        addEdge(S.Args[I], EscapeNode, -1);
      }
    }
    StepId Rt = newStep(FI.ModuleIdx, FI.Decl->getLoc(),
                        "returned from '" + FI.Name + "'");
    addEdge(FI.Ret, S.Result, Rt);
  }

  int moduleIdx(const SiteFlow &F) {
    for (size_t I = 0; I < Mods.size(); ++I)
      if (Mods[I].Name == F.Module)
        return static_cast<int>(I);
    return -1;
  }

  //===--------------------------------------------------------------------===//
  // Registration (pass 1 + 2)
  //===--------------------------------------------------------------------===//

  static bool scanForGoto(const Stmt *S);
  static void scanStmtAddrTaken(const Stmt *S, std::set<const VarDecl *> &Out);
  static void collectAssigned(const Stmt *S, std::set<VarDecl *> &Out);
  static void collectAssignedExpr(const Expr *E, std::set<VarDecl *> &Out);

  void registerModules() {
    for (size_t M = 0; M < Mods.size(); ++M) {
      Program *P = Mods[M].Prog;
      for (FuncDecl *F : P->Functions) {
        auto It = Registry.find(F->getName());
        if (It == Registry.end()) {
          FuncInfo FI;
          FI.Name = F->getName();
          FI.Sig = P->getTypes().canonicalSignature(F->getType());
          FI.Variadic = F->getType()->isVariadic();
          FI.Builtin = F->getBuiltin();
          It = Registry.emplace(F->getName(), std::move(FI)).first;
        }
        FuncInfo &FI = It->second;
        if (F->isAddressTaken())
          FI.AddrTaken = true;
        if (F->getBuiltin() != BuiltinKind::None)
          FI.Builtin = F->getBuiltin();
        if (F->isDefined() && !FI.Defined) {
          // Linker semantics: the first definition wins.
          FI.Defined = true;
          FI.Decl = F;
          FI.ModuleIdx = static_cast<int>(M);
          FI.TC = &P->getTypes();
          FI.Sig = P->getTypes().canonicalSignature(F->getType());
          FI.Variadic = F->getType()->isVariadic();
        } else if (F->isDefined() && FI.Decl != F) {
          // Linking picks one copy per program, but the audited module
          // set may union several programs (e.g. two apps sharing a
          // library, each with its own main). Walking every copy keeps
          // the union sound: values each copy creates are seen, and
          // calls bind to all copies.
          note("duplicate definition of '" + F->getName() + "' in module '" +
               Mods[M].Name + "'; analyzed as an alternative implementation");
          FuncInfo Sh;
          Sh.Name = F->getName();
          Sh.Sig = P->getTypes().canonicalSignature(F->getType());
          Sh.Variadic = F->getType()->isVariadic();
          Sh.Builtin = F->getBuiltin();
          Sh.Defined = true;
          Sh.AddrTaken = F->isAddressTaken();
          Sh.Decl = F;
          Sh.ModuleIdx = static_cast<int>(M);
          Sh.TC = &P->getTypes();
          if (Sh.Sig != FI.Sig)
            note("duplicate definition of '" + F->getName() +
                 "' has a different type than the first definition");
          FI.Shadows.push_back(std::move(Sh));
        }
      }
    }
    // Allocate binding points once all canonical definitions are known.
    for (auto &[Name, FI] : Registry) {
      (void)Name;
      if (!FI.Defined)
        continue;
      allocBindingPoints(FI);
      for (FuncInfo &Sh : FI.Shadows)
        allocBindingPoints(Sh);
    }
    // The bootstrap module invokes main with arguments the engine does
    // not see.
    auto MainIt = Registry.find("main");
    if (MainIt != Registry.end()) {
      for (NodeId P : MainIt->second.ParamDefs)
        setUnknown(P);
      for (FuncInfo &Sh : MainIt->second.Shadows)
        for (NodeId P : Sh.ParamDefs)
          setUnknown(P);
    }
  }

  void allocBindingPoints(FuncInfo &FI) {
    FI.HasGoto = scanForGoto(FI.Decl->getBody());
    scanStmtAddrTaken(FI.Decl->getBody(), FI.AddrTakenLocals);
    for (const VarDecl *Pm : FI.Decl->getParams()) {
      if (isSimpleLocal(FI, Pm))
        FI.ParamDefs.push_back(newNode());
      else
        FI.ParamDefs.push_back(cellNode(localCell(FI.Name, Pm)));
    }
    FI.Ret = newNode();
  }

  bool isSimpleLocal(const FuncInfo &FI, const VarDecl *V) const {
    return !V->isGlobal() && !FI.HasGoto && !FI.AddrTakenLocals.count(V) &&
           !V->getType()->isArray() && !V->getType()->isRecord();
  }

  //===--------------------------------------------------------------------===//
  // AST walk (graph construction)
  //===--------------------------------------------------------------------===//

  struct LoopCtx {
    bool IsLoop = false;                 ///< false: breakable switch
    std::map<VarDecl *, NodeId> Phis;    ///< loop head phis
    std::vector<std::map<VarDecl *, NodeId>> BreakEnvs; ///< switch breaks
  };

  struct Walk {
    FuncInfo *FI = nullptr; ///< null in global-initializer context
    int ModuleIdx = -1;
    Program *Prog = nullptr;
    std::string Caller;
    std::map<VarDecl *, NodeId> Env; ///< current defs of simple locals
    std::vector<LoopCtx> Breakables;
  };

  TypeContext &tc(Walk &W) { return W.Prog->getTypes(); }

  bool isSimple(Walk &W, const VarDecl *V) const {
    return W.FI && isSimpleLocal(*W.FI, V);
  }

  void joinEnv(Walk &W, const std::map<VarDecl *, NodeId> &A,
               const std::map<VarDecl *, NodeId> &B) {
    std::map<VarDecl *, NodeId> Out;
    for (auto &[V, N1] : A) {
      auto It = B.find(V);
      if (It == B.end())
        continue; // declared in one branch only: out of scope at the join
      if (It->second == N1) {
        Out[V] = N1;
      } else {
        NodeId J = newNode();
        addEdge(N1, J, -1);
        addEdge(It->second, J, -1);
        Out[V] = J;
      }
    }
    W.Env = std::move(Out);
  }

  void walkModuleInits(int M) {
    Walk W;
    W.ModuleIdx = M;
    W.Prog = Mods[M].Prog;
    W.Caller = "<global-init>";
    for (VarDecl *G : W.Prog->Globals) {
      if (!G->getInit())
        continue;
      NodeId V = evalExpr(W, G->getInit());
      StepId St = newStep(M, G->getLoc(),
                          "initializes global '" + G->getName() + "'");
      addEdge(V, cellNode(globalCell(G->getName())), St);
    }
  }

  void walkFunction(FuncInfo &FI) {
    Walk W;
    W.FI = &FI;
    W.ModuleIdx = FI.ModuleIdx;
    W.Prog = Mods[FI.ModuleIdx].Prog;
    W.Caller = FI.Name;
    const auto &Params = FI.Decl->getParams();
    for (size_t I = 0; I < Params.size(); ++I)
      if (isSimple(W, Params[I]))
        W.Env[const_cast<VarDecl *>(Params[I])] = FI.ParamDefs[I];
    walkStmt(W, FI.Decl->getBody());
  }

  void walkStmt(Walk &W, const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case StmtKind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        walkStmt(W, Sub);
      break;
    case StmtKind::Decl: {
      VarDecl *V = cast<DeclStmt>(S)->getDecl();
      if (!V->getInit()) {
        if (isSimple(W, V))
          W.Env[V] = newNode(); // indeterminate: no facts
        break;
      }
      NodeId R = evalExpr(W, V->getInit());
      storeToVar(W, V, R, S->getLoc());
      break;
    }
    case StmtKind::Expr:
      evalExpr(W, cast<ExprStmt>(S)->getExpr());
      break;
    case StmtKind::If: {
      const IfStmt *I = cast<IfStmt>(S);
      evalExpr(W, I->getCond());
      auto Base = W.Env;
      walkStmt(W, I->getThen());
      auto ThenEnv = W.Env;
      W.Env = Base;
      walkStmt(W, I->getElse());
      joinEnv(W, ThenEnv, W.Env);
      break;
    }
    case StmtKind::While:
    case StmtKind::DoWhile: {
      const WhileStmt *L = cast<WhileStmt>(S);
      std::set<VarDecl *> Assigned;
      collectAssigned(L->getBody(), Assigned);
      collectAssignedExpr(L->getCond(), Assigned);
      walkLoop(W, Assigned, [&] {
        evalExpr(W, L->getCond());
        walkStmt(W, L->getBody());
      });
      break;
    }
    case StmtKind::For: {
      const ForStmt *L = cast<ForStmt>(S);
      walkStmt(W, L->getInit());
      std::set<VarDecl *> Assigned;
      collectAssigned(L->getBody(), Assigned);
      if (L->getCond())
        collectAssignedExpr(L->getCond(), Assigned);
      if (L->getInc())
        collectAssignedExpr(L->getInc(), Assigned);
      walkLoop(W, Assigned, [&] {
        if (L->getCond())
          evalExpr(W, L->getCond());
        walkStmt(W, L->getBody());
        if (L->getInc())
          evalExpr(W, L->getInc());
      });
      break;
    }
    case StmtKind::Return: {
      const ReturnStmt *R = cast<ReturnStmt>(S);
      if (R->getValue()) {
        NodeId V = evalExpr(W, R->getValue());
        if (W.FI)
          addEdge(V, W.FI->Ret, -1);
      }
      break;
    }
    case StmtKind::Break: {
      if (!W.Breakables.empty()) {
        LoopCtx &Ctx = W.Breakables.back();
        if (Ctx.IsLoop)
          feedPhis(W, Ctx);
        else
          Ctx.BreakEnvs.push_back(W.Env);
      }
      break;
    }
    case StmtKind::Continue: {
      for (auto It = W.Breakables.rbegin(); It != W.Breakables.rend(); ++It)
        if (It->IsLoop) {
          feedPhis(W, *It);
          break;
        }
      break;
    }
    case StmtKind::Switch: {
      const SwitchStmt *Sw = cast<SwitchStmt>(S);
      evalExpr(W, Sw->getCond());
      auto Base = W.Env;
      W.Breakables.push_back({});
      auto ArmEnv = Base;
      bool First = true;
      for (const SwitchArm &Arm : Sw->getArms()) {
        if (!First) {
          // An arm is entered either by fallthrough (current env) or by
          // a direct jump from the switch head.
          joinEnv(W, ArmEnv, Base);
        } else {
          W.Env = ArmEnv;
          First = false;
        }
        for (const Stmt *Sub : Arm.Stmts)
          walkStmt(W, Sub);
        ArmEnv = W.Env;
      }
      LoopCtx Ctx = std::move(W.Breakables.back());
      W.Breakables.pop_back();
      // Exit: last arm's fallthrough, every break, and (conservatively)
      // the path that matched no arm.
      joinEnv(W, ArmEnv, Base);
      for (auto &BE : Ctx.BreakEnvs) {
        auto Cur = W.Env;
        joinEnv(W, Cur, BE);
      }
      break;
    }
    case StmtKind::Goto:
    case StmtKind::Label:
      // Functions containing gotos have all locals demoted to summary
      // cells, so arbitrary jumps cannot skip definitions.
      break;
    case StmtKind::Asm: {
      const AsmStmt *A = cast<AsmStmt>(S);
      if (A->getAnnotations().empty()) {
        setHavoc("unannotated inline assembly in '" + W.Caller +
                 "' at line " + std::to_string(S->getLoc().Line));
        break;
      }
      // Annotated assembly (C2-satisfying): the named symbols are used by
      // code the engine cannot see.
      for (const AsmAnnotation &An : A->getAnnotations()) {
        if (Registry.count(An.Symbol)) {
          escapeFunction(An.Symbol);
        } else {
          NodeId C = cellNode(globalCell(An.Symbol));
          setUnknown(C);
          addEdge(C, EscapeNode, -1);
        }
      }
      break;
    }
    }
  }

  template <typename BodyFn>
  void walkLoop(Walk &W, const std::set<VarDecl *> &Assigned, BodyFn Body) {
    LoopCtx Ctx;
    Ctx.IsLoop = true;
    for (VarDecl *V : Assigned) {
      auto It = W.Env.find(V);
      if (It == W.Env.end())
        continue; // declared inside the loop: no cross-iteration carry
      NodeId Phi = newNode();
      addEdge(It->second, Phi, -1);
      It->second = Phi;
      Ctx.Phis[V] = Phi;
    }
    W.Breakables.push_back(std::move(Ctx));
    size_t Depth = W.Breakables.size();
    Body();
    LoopCtx Done = std::move(W.Breakables[Depth - 1]);
    W.Breakables.resize(Depth - 1);
    // Back edge: body-end defs feed the head phis, which also serve as
    // the post-loop defs (the loop may run zero times).
    for (auto &[V, Phi] : Done.Phis) {
      auto It = W.Env.find(V);
      if (It != W.Env.end())
        addEdge(It->second, Phi, -1);
      W.Env[V] = Phi;
    }
  }

  void feedPhis(Walk &W, LoopCtx &Ctx) {
    for (auto &[V, Phi] : Ctx.Phis) {
      auto It = W.Env.find(V);
      if (It != W.Env.end())
        addEdge(It->second, Phi, -1);
    }
  }

  void storeToVar(Walk &W, VarDecl *V, NodeId R, SourceLoc L) {
    if (isSimple(W, V)) {
      NodeId Def = newNode();
      addEdge(R, Def,
              newStep(W.ModuleIdx, L, "assigned to '" + V->getName() + "'"));
      W.Env[V] = Def;
      return;
    }
    if (V->getType()->isRecord())
      return; // field-based cells make struct copies a no-op
    LocId C = V->isGlobal() ? globalCell(V->getName())
                            : localCell(W.Caller, V);
    if (V->getType()->isArray())
      return; // array initializers do not exist in MiniC
    addEdge(R, cellNode(C),
            newStep(W.ModuleIdx, L, "stored to " + Locs[C].Desc));
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  NodeId evalExpr(Walk &W, const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
    case ExprKind::StrLit:
    case ExprKind::SizeofType:
    case ExprKind::NameRef:
      return newNode();
    case ExprKind::FuncRef: {
      const FuncDecl *F = cast<FuncRefExpr>(E)->getDecl();
      NodeId N = newNode();
      insertFact(N, fnFact(F->getName()),
                 {-1, newStep(W.ModuleIdx, E->getLoc(),
                              "address of function '" + F->getName() +
                                  "' taken in '" + W.Caller + "'")});
      return N;
    }
    case ExprKind::VarRef:
      return evalVarRef(W, cast<VarRefExpr>(E));
    case ExprKind::Unary:
      return evalUnary(W, cast<UnaryExpr>(E));
    case ExprKind::Binary: {
      const BinaryExpr *B = cast<BinaryExpr>(E);
      NodeId L = evalExpr(W, B->getLHS());
      NodeId R = evalExpr(W, B->getRHS());
      switch (B->getOp()) {
      case BinaryOp::Eq: case BinaryOp::Ne: case BinaryOp::Lt:
      case BinaryOp::Le: case BinaryOp::Gt: case BinaryOp::Ge:
      case BinaryOp::LogicalAnd: case BinaryOp::LogicalOr:
        return newNode(); // boolean result carries no address
      default: {
        // Arithmetic may transport (possibly mangled) addresses; keeping
        // the facts is the sound over-approximation.
        NodeId N = newNode();
        addEdge(L, N, -1);
        addEdge(R, N, -1);
        return N;
      }
      }
    }
    case ExprKind::Assign:
      return evalAssign(W, cast<AssignExpr>(E));
    case ExprKind::Cond: {
      const CondExpr *C = cast<CondExpr>(E);
      evalExpr(W, C->getCond());
      auto Base = W.Env;
      NodeId T = evalExpr(W, C->getThen());
      auto ThenEnv = W.Env;
      W.Env = Base;
      NodeId F = evalExpr(W, C->getElse());
      joinEnv(W, ThenEnv, W.Env);
      NodeId N = newNode();
      addEdge(T, N, -1);
      addEdge(F, N, -1);
      return N;
    }
    case ExprKind::Call:
      return evalCall(W, cast<CallExpr>(E));
    case ExprKind::Index: {
      const IndexExpr *I = cast<IndexExpr>(E);
      NodeId Base = evalExpr(W, I->getBase());
      evalExpr(W, I->getIdx());
      NodeId R = newNode();
      if (E->getType() && E->getType()->isArray()) {
        // Multi-dimensional indexing: decay to the nested element cells.
        addTrigger(Base, {Trigger::ElemDecay, R, -1, -1, -1, E->getLoc()});
      } else {
        StepId St = newStep(W.ModuleIdx, E->getLoc(),
                            "loaded from an array element in '" + W.Caller +
                                "'");
        addTrigger(Base, {Trigger::DerefLoad, R, -1, St, -1, E->getLoc()});
      }
      return R;
    }
    case ExprKind::Member: {
      const MemberExpr *M = cast<MemberExpr>(E);
      evalExpr(W, M->getBase());
      if (!M->getRecord())
        return newNode();
      LocId C = fieldCell(tc(W), M->getRecord(), M->getFieldIndex());
      if (E->getType() && E->getType()->isArray())
        return seedLoc(W, elemOrUnknown(C), E->getLoc());
      if (E->getType() && E->getType()->isRecord())
        return newNode();
      return cellNode(C);
    }
    case ExprKind::Cast:
      return evalCast(W, cast<CastExpr>(E));
    }
    return newNode();
  }

  NodeId evalVarRef(Walk &W, const VarRefExpr *E) {
    VarDecl *V = E->getDecl();
    if (isSimple(W, V)) {
      auto It = W.Env.find(V);
      if (It == W.Env.end())
        It = W.Env.emplace(V, newNode()).first; // read-before-write
      return It->second;
    }
    LocId C = V->isGlobal() ? globalCell(V->getName())
                            : localCell(W.Caller, V);
    if (V->getType()->isArray())
      return seedLoc(W, elemOrUnknown(C), E->getLoc()); // array decay
    if (V->getType()->isRecord())
      return newNode();
    return cellNode(C);
  }

  LocId elemOrUnknown(LocId C) { return elemCell(C); }

  NodeId seedLoc(Walk &W, LocId L, SourceLoc At) {
    NodeId N = newNode();
    if (L < 0) {
      note("array-element derivation depth cap hit; value widened to "
           "unknown");
      setUnknown(N);
      return N;
    }
    insertFact(N, locFact(L),
               {-1, newStep(W.ModuleIdx, At,
                            "address of " + Locs[L].Desc + " taken")});
    return N;
  }

  NodeId evalUnary(Walk &W, const UnaryExpr *E) {
    const Expr *Sub = E->getSub();
    switch (E->getOp()) {
    case UnaryOp::Deref: {
      NodeId Base = evalExpr(W, Sub);
      const Type *Ty = E->getType();
      if (Ty && (Ty->isFunction() || Ty->isArray()))
        return Base; // deref-decay round trips are the identity
      if (Ty && Ty->isRecord())
        return newNode();
      NodeId R = newNode();
      StepId St = newStep(W.ModuleIdx, E->getLoc(),
                          "loaded through pointer in '" + W.Caller + "'");
      addTrigger(Base, {Trigger::DerefLoad, R, -1, St, -1, E->getLoc()});
      return R;
    }
    case UnaryOp::AddrOf:
      return evalAddrOf(W, Sub, E->getLoc());
    case UnaryOp::Neg:
    case UnaryOp::BitNot:
      return evalExpr(W, Sub); // mangled addresses stay over-approximated
    case UnaryOp::LogicalNot:
      evalExpr(W, Sub);
      return newNode();
    }
    return newNode();
  }

  NodeId evalAddrOf(Walk &W, const Expr *LV, SourceLoc At) {
    switch (LV->getKind()) {
    case ExprKind::VarRef: {
      VarDecl *V = cast<VarRefExpr>(LV)->getDecl();
      assert(!isSimple(W, V) && "address-taken local classified simple");
      LocId C = V->isGlobal() ? globalCell(V->getName())
                              : localCell(W.Caller, V);
      // &arr and arr denote the same region; use the element summary so
      // subsequent indexing lands in the right cell.
      if (V->getType()->isArray())
        return seedLoc(W, elemCell(C), At);
      return seedLoc(W, C, At);
    }
    case ExprKind::Member: {
      const MemberExpr *M = cast<MemberExpr>(LV);
      evalExpr(W, M->getBase());
      if (!M->getRecord())
        return newNode();
      LocId C = fieldCell(tc(W), M->getRecord(), M->getFieldIndex());
      if (LV->getType() && LV->getType()->isArray())
        return seedLoc(W, elemCell(C), At);
      return seedLoc(W, C, At);
    }
    case ExprKind::Index:
      // &p[i] is p plus an offset: same element summary as p itself.
      return evalExpr(W, cast<IndexExpr>(LV)->getBase());
    case ExprKind::Unary:
      if (cast<UnaryExpr>(LV)->getOp() == UnaryOp::Deref)
        return evalExpr(W, cast<UnaryExpr>(LV)->getSub()); // &*p == p
      return newNode();
    case ExprKind::FuncRef:
      return evalExpr(W, LV); // &f == f (designator decay)
    default:
      return newNode();
    }
  }

  NodeId evalAssign(Walk &W, const AssignExpr *E) {
    NodeId V = evalExpr(W, E->getRHS());
    const Expr *L = E->getLHS();
    switch (L->getKind()) {
    case ExprKind::VarRef:
      storeToVar(W, cast<VarRefExpr>(L)->getDecl(), V, E->getLoc());
      break;
    case ExprKind::Member: {
      const MemberExpr *M = cast<MemberExpr>(L);
      evalExpr(W, M->getBase());
      if (M->getRecord()) {
        LocId C = fieldCell(tc(W), M->getRecord(), M->getFieldIndex());
        addEdge(V, cellNode(C),
                newStep(W.ModuleIdx, E->getLoc(),
                        "stored to " + Locs[C].Desc + " in '" + W.Caller +
                            "'"));
      }
      break;
    }
    case ExprKind::Index: {
      const IndexExpr *I = cast<IndexExpr>(L);
      NodeId Base = evalExpr(W, I->getBase());
      evalExpr(W, I->getIdx());
      StepId St = newStep(W.ModuleIdx, E->getLoc(),
                          "stored to an array element in '" + W.Caller + "'");
      addTrigger(Base, {Trigger::DerefStore, -1, V, St, -1, E->getLoc()});
      break;
    }
    case ExprKind::Unary: {
      const UnaryExpr *U = cast<UnaryExpr>(L);
      if (U->getOp() == UnaryOp::Deref) {
        NodeId Base = evalExpr(W, U->getSub());
        StepId St = newStep(W.ModuleIdx, E->getLoc(),
                            "stored through pointer in '" + W.Caller + "'");
        addTrigger(Base, {Trigger::DerefStore, -1, V, St, -1, E->getLoc()});
      }
      break;
    }
    default:
      note("unmodeled assignment target at line " +
           std::to_string(E->getLoc().Line));
      break;
    }
    return V;
  }

  NodeId evalCast(Walk &W, const CastExpr *E) {
    NodeId Sub = evalExpr(W, E->getSub());
    const Type *From = E->getSub()->getType();
    const Type *To = E->getType();
    bridgeRecordCast(W, From, To, E->getLoc());
    bool Interesting =
        (From && (From->isFunctionPointer() || From->containsFunctionPointer() ||
                  From->isFunction())) ||
        (To && (To->isFunctionPointer() || To->containsFunctionPointer() ||
                To->isFunction()));
    if (!Interesting)
      return Sub; // casts never change the tracked value
    NodeId N = newNode();
    addEdge(Sub, N,
            newStep(W.ModuleIdx, E->getLoc(),
                    std::string(E->isImplicit() ? "implicitly " : "") +
                        "cast to '" + To->print() + "' in '" + W.Caller +
                        "'"));
    return N;
  }

  /// Pointer casts between distinct record types alias their fields: a
  /// store through one view must be visible to loads through the other
  /// (this is exactly the C1-violating pattern the analyzer flags, and
  /// the physical-subtype upcasts its UC rule admits).
  void bridgeRecordCast(Walk &W, const Type *From, const Type *To,
                        SourceLoc At) {
    auto RecOf = [](const Type *T) -> const RecordType * {
      if (!T || !T->isPointer())
        return nullptr;
      const Type *P = cast<PointerType>(T)->getPointee();
      return P && P->isRecord() ? cast<RecordType>(P) : nullptr;
    };
    const RecordType *A = RecOf(From), *B = RecOf(To);
    if (!A || !B || A == B)
      return;
    if (!A->isComplete() || !B->isComplete())
      return;
    std::string SigA = tc(W).canonicalSignature(A);
    std::string SigB = tc(W).canonicalSignature(B);
    if (SigA == SigB)
      return;
    if (!A->containsFunctionPointer() && !B->containsFunctionPointer())
      return;
    size_t N = std::min(A->getFields().size(), B->getFields().size());
    StepId St = newStep(W.ModuleIdx, At, "record fields aliased by cast");
    for (size_t I = 0; I < N; ++I) {
      NodeId CA = cellNode(fieldCell(tc(W), A, static_cast<unsigned>(I)));
      NodeId CB = cellNode(fieldCell(tc(W), B, static_cast<unsigned>(I)));
      addEdge(CA, CB, St);
      addEdge(CB, CA, St);
    }
  }

  NodeId evalCall(Walk &W, const CallExpr *E) {
    std::vector<NodeId> Args;
    for (const Expr *A : E->getArgs())
      Args.push_back(evalExpr(W, A));
    NodeId R = newNode();

    if (E->isDirect()) {
      const FuncDecl *Callee = E->getDirectCallee();
      auto It = Registry.find(Callee->getName());
      FuncInfo *FI = It == Registry.end() ? nullptr : &It->second;
      if (FI && FI->Defined) {
        bindDirect(W, E, *FI, Args, R);
      } else if (Callee->getBuiltin() != BuiltinKind::None) {
        evalBuiltin(W, E, Callee->getBuiltin(), Args, R);
      } else {
        note("call to external function '" + Callee->getName() +
             "' (arguments escape)");
        for (NodeId A : Args)
          addEdge(A, EscapeNode, -1);
        setUnknown(R);
      }
      return R;
    }

    // Indirect call: register the site and bind targets as they arrive.
    NodeId CalleeN = evalExpr(W, E->getCallee());
    SiteRec S;
    S.Flow.Caller = W.Caller;
    S.Flow.Module = Mods[W.ModuleIdx].Name;
    S.Flow.Loc = E->getLoc();
    const FunctionType *FT = E->getCalleeFnType();
    S.Flow.PointerSig = FT ? tc(W).canonicalSignature(FT) : "";
    S.Flow.VariadicPointer = FT && FT->isVariadic();
    S.Callee = CalleeN;
    S.Result = R;
    S.Args = Args;
    Sites.push_back(std::move(S));
    addTrigger(CalleeN, {Trigger::Site, -1, -1, -1,
                         static_cast<int>(Sites.size() - 1), E->getLoc()});
    return R;
  }

  void bindDirect(Walk &W, const CallExpr *E, FuncInfo &FI,
                  const std::vector<NodeId> &Args, NodeId R) {
    bindDirectImpl(W, E, FI, Args, R);
    // A multiply-defined callee: any copy may be the one linked in.
    for (FuncInfo &Sh : FI.Shadows)
      bindDirectImpl(W, E, Sh, Args, R);
  }

  void bindDirectImpl(Walk &W, const CallExpr *E, FuncInfo &FI,
                      const std::vector<NodeId> &Args, NodeId R) {
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I < FI.ParamDefs.size()) {
        StepId St = newStep(W.ModuleIdx, E->getLoc(),
                            "passed as argument " + std::to_string(I + 1) +
                                " to '" + FI.Name + "'");
        addEdge(Args[I], FI.ParamDefs[I], St);
      } else {
        addEdge(Args[I], EscapeNode, -1); // variadic extras
      }
    }
    addEdge(FI.Ret, R,
            newStep(W.ModuleIdx, E->getLoc(), "returned from '" + FI.Name +
                                                  "'"));
  }

  void evalBuiltin(Walk &W, const CallExpr *E, BuiltinKind K,
                   const std::vector<NodeId> &Args, NodeId R) {
    switch (K) {
    case BuiltinKind::Malloc: {
      NodeId N = R;
      insertFact(N, locFact(heapCell(E->getLoc())), {-1, -1});
      break;
    }
    case BuiltinKind::Free:
    case BuiltinKind::Setjmp:
      break; // no address flow
    case BuiltinKind::Dlsym: {
      // dlsym(handle, "literal") resolves within the module set; any
      // other argument is an unaccounted-for code pointer.
      const Expr *NameArg =
          E->getArgs().size() >= 2 ? E->getArgs()[1] : nullptr;
      while (NameArg && isa<CastExpr>(NameArg))
        NameArg = cast<CastExpr>(NameArg)->getSub();
      const StrLitExpr *Lit =
          NameArg ? dyn_cast<StrLitExpr>(NameArg) : nullptr;
      if (!Lit) {
        note("dlsym with a non-literal symbol name at line " +
             std::to_string(E->getLoc().Line));
        setUnknown(R);
        break;
      }
      auto It = Registry.find(Lit->getValue());
      if (It == Registry.end() || !It->second.Defined) {
        note("dlsym(\"" + Lit->getValue() +
             "\") does not resolve within the module set");
        setUnknown(R);
        break;
      }
      insertFact(R, fnFact(Lit->getValue()),
                 {-1, newStep(W.ModuleIdx, E->getLoc(),
                              "resolved by dlsym(\"" + Lit->getValue() +
                                  "\") in '" + W.Caller + "'")});
      break;
    }
    case BuiltinKind::Signal:
      // The runtime invokes the installed handler asynchronously.
      if (!Args.empty())
        addEdge(Args.back(), EscapeNode, -1);
      setUnknown(R); // previous handler, untracked
      break;
    case BuiltinKind::Dlopen:
      setUnknown(R);
      break;
    default:
      // Longjmp/Raise/Print*/Exit: values handed to the runtime escape.
      for (NodeId A : Args)
        addEdge(A, EscapeNode, -1);
      break;
    }
  }

  //===--------------------------------------------------------------------===//
  // Finalize
  //===--------------------------------------------------------------------===//

  std::vector<EvidenceStep> reconstruct(NodeId N, FactId F) {
    std::vector<EvidenceStep> Chain;
    NodeId Cur = N;
    for (unsigned Hop = 0; Hop < MaxChain && Cur >= 0; ++Hop) {
      auto It = Nodes[Cur].Facts.find(F);
      if (It == Nodes[Cur].Facts.end())
        break;
      if (It->second.Step >= 0)
        Chain.push_back(Steps[It->second.Step]);
      Cur = It->second.Pred;
    }
    std::reverse(Chain.begin(), Chain.end());
    return Chain;
  }

  DataflowResult finalize();
};

//===----------------------------------------------------------------------===//
// Pre-scan traversals
//===----------------------------------------------------------------------===//

void visitExpr(const Expr *E, const std::function<void(const Expr *)> &F);

void visitExprChildren(const Expr *E,
                       const std::function<void(const Expr *)> &F) {
  switch (E->getKind()) {
  case ExprKind::Unary:
    visitExpr(cast<UnaryExpr>(E)->getSub(), F);
    break;
  case ExprKind::Binary:
    visitExpr(cast<BinaryExpr>(E)->getLHS(), F);
    visitExpr(cast<BinaryExpr>(E)->getRHS(), F);
    break;
  case ExprKind::Assign:
    visitExpr(cast<AssignExpr>(E)->getLHS(), F);
    visitExpr(cast<AssignExpr>(E)->getRHS(), F);
    break;
  case ExprKind::Cond:
    visitExpr(cast<CondExpr>(E)->getCond(), F);
    visitExpr(cast<CondExpr>(E)->getThen(), F);
    visitExpr(cast<CondExpr>(E)->getElse(), F);
    break;
  case ExprKind::Call:
    visitExpr(cast<CallExpr>(E)->getCallee(), F);
    for (const Expr *A : cast<CallExpr>(E)->getArgs())
      visitExpr(A, F);
    break;
  case ExprKind::Index:
    visitExpr(cast<IndexExpr>(E)->getBase(), F);
    visitExpr(cast<IndexExpr>(E)->getIdx(), F);
    break;
  case ExprKind::Member:
    visitExpr(cast<MemberExpr>(E)->getBase(), F);
    break;
  case ExprKind::Cast:
    visitExpr(cast<CastExpr>(E)->getSub(), F);
    break;
  default:
    break;
  }
}

void visitExpr(const Expr *E, const std::function<void(const Expr *)> &F) {
  if (!E)
    return;
  F(E);
  visitExprChildren(E, F);
}

void visitStmt(const Stmt *S, const std::function<void(const Stmt *)> &SF,
               const std::function<void(const Expr *)> &EF) {
  if (!S)
    return;
  SF(S);
  switch (S->getKind()) {
  case StmtKind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
      visitStmt(Sub, SF, EF);
    break;
  case StmtKind::Decl:
    if (const Expr *I = cast<DeclStmt>(S)->getDecl()->getInit())
      visitExpr(I, EF);
    break;
  case StmtKind::Expr:
    visitExpr(cast<ExprStmt>(S)->getExpr(), EF);
    break;
  case StmtKind::If:
    visitExpr(cast<IfStmt>(S)->getCond(), EF);
    visitStmt(cast<IfStmt>(S)->getThen(), SF, EF);
    visitStmt(cast<IfStmt>(S)->getElse(), SF, EF);
    break;
  case StmtKind::While:
  case StmtKind::DoWhile:
    visitExpr(cast<WhileStmt>(S)->getCond(), EF);
    visitStmt(cast<WhileStmt>(S)->getBody(), SF, EF);
    break;
  case StmtKind::For:
    visitStmt(cast<ForStmt>(S)->getInit(), SF, EF);
    visitExpr(cast<ForStmt>(S)->getCond(), EF);
    visitExpr(cast<ForStmt>(S)->getInc(), EF);
    visitStmt(cast<ForStmt>(S)->getBody(), SF, EF);
    break;
  case StmtKind::Return:
    visitExpr(cast<ReturnStmt>(S)->getValue(), EF);
    break;
  case StmtKind::Switch:
    visitExpr(cast<SwitchStmt>(S)->getCond(), EF);
    for (const SwitchArm &Arm : cast<SwitchStmt>(S)->getArms())
      for (const Stmt *Sub : Arm.Stmts)
        visitStmt(Sub, SF, EF);
    break;
  default:
    break;
  }
}

} // namespace

bool Engine::scanForGoto(const Stmt *S) {
  bool Found = false;
  visitStmt(S, [&](const Stmt *Sub) {
    if (Sub->getKind() == StmtKind::Goto)
      Found = true;
  }, [](const Expr *) {});
  return Found;
}

void Engine::scanStmtAddrTaken(const Stmt *S,
                               std::set<const VarDecl *> &Out) {
  visitStmt(S, [](const Stmt *) {}, [&](const Expr *E) {
    const UnaryExpr *U = dyn_cast<UnaryExpr>(E);
    if (!U || U->getOp() != UnaryOp::AddrOf)
      return;
    if (const VarRefExpr *V = dyn_cast<VarRefExpr>(U->getSub()))
      if (!V->getDecl()->isGlobal())
        Out.insert(V->getDecl());
  });
}

void Engine::collectAssignedExpr(const Expr *E, std::set<VarDecl *> &Out) {
  visitExpr(E, [&](const Expr *Sub) {
    if (const AssignExpr *A = dyn_cast<AssignExpr>(Sub))
      if (const VarRefExpr *V = dyn_cast<VarRefExpr>(A->getLHS()))
        if (!V->getDecl()->isGlobal())
          Out.insert(V->getDecl());
  });
}

void Engine::collectAssigned(const Stmt *S, std::set<VarDecl *> &Out) {
  visitStmt(S, [](const Stmt *) {}, [&](const Expr *E) {
    if (const AssignExpr *A = dyn_cast<AssignExpr>(E))
      if (const VarRefExpr *V = dyn_cast<VarRefExpr>(A->getLHS()))
        if (!V->getDecl()->isGlobal())
          Out.insert(V->getDecl());
  });
}

DataflowResult Engine::run() {
  EscapeNode = newNode();
  addTrigger(EscapeNode, {Trigger::Escape, -1, -1, -1, -1, {}});

  registerModules();
  for (size_t M = 0; M < Mods.size(); ++M)
    walkModuleInits(static_cast<int>(M));
  for (auto &[Name, FI] : Registry) {
    (void)Name;
    if (!FI.Defined)
      continue;
    walkFunction(FI);
    for (FuncInfo &Sh : FI.Shadows)
      walkFunction(Sh);
  }
  fixpoint();
  return finalize();
}

DataflowResult Engine::finalize() {
  DataflowResult R;
  R.EscapedFunctions = Escaped;
  R.Havoc = Havoc;
  R.Notes = Notes;
  R.Stats.Nodes = static_cast<unsigned>(Nodes.size());
  R.Stats.Iterations = Iterations;
  for (const Node &N : Nodes) {
    R.Stats.Edges += static_cast<unsigned>(N.Out.size());
    R.Stats.Facts += static_cast<unsigned>(N.Facts.size());
  }

  for (SiteRec &S : Sites) {
    SiteFlow SF = S.Flow;
    SF.Complete = !Nodes[S.Callee].Unknown && !Havoc;
    std::vector<std::pair<std::string, FactId>> Targets;
    for (auto &[F, P] : Nodes[S.Callee].Facts) {
      (void)P;
      if (Facts[F].IsFn)
        Targets.push_back({Facts[F].Fn, F});
    }
    std::sort(Targets.begin(), Targets.end());
    for (auto &[Name, F] : Targets) {
      SF.Targets.push_back(Name);
      std::vector<EvidenceStep> Chain = reconstruct(S.Callee, F);
      Chain.push_back({SF.Module, SF.Loc,
                       "invoked by indirect call in '" + SF.Caller +
                           "' through pointer of type '" + SF.PointerSig +
                           "'"});
      SF.Chains.push_back(Chain);

      auto It = Registry.find(Name);
      std::string TSig = It != Registry.end() ? It->second.Sig : "";
      if (!calleeSigMatches(SF.PointerSig, SF.VariadicPointer, TSig)) {
        FlowFinding FF;
        FF.Caller = SF.Caller;
        FF.Module = SF.Module;
        FF.CallLoc = SF.Loc;
        FF.Target = Name;
        FF.TargetSig = TSig;
        FF.PointerSig = SF.PointerSig;
        FF.Chain = SF.Chains.back();
        R.Incompatible.push_back(std::move(FF));
      }
    }
    R.Sites.push_back(std::move(SF));
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Consumers
//===----------------------------------------------------------------------===//

DataflowResult
analyzeFunctionPointerFlow(const std::vector<FlowModule> &Mods) {
  Engine E(Mods);
  return E.run();
}

static std::string formatStep(const EvidenceStep &S) {
  std::string Out = S.Desc;
  Out += " (";
  if (!S.Module.empty()) {
    Out += S.Module;
    Out += ":";
  }
  Out += std::to_string(S.Loc.Line) + ":" + std::to_string(S.Loc.Col) + ")";
  return Out;
}

void refineResidualsWithFlow(AnalysisReport &Report, const std::string &Module,
                             const DataflowResult &Flow) {
  if (Flow.Havoc)
    return; // cannot discharge any proof obligation

  for (C1Violation &V : Report.C1) {
    if (V.Residual == ResidualKind::None)
      continue;
    const FlowFinding *Hit = nullptr;
    for (const FlowFinding &F : Flow.Incompatible) {
      for (const EvidenceStep &S : F.Chain) {
        if (S.Module == Module && S.Loc.Line == V.Loc.Line &&
            S.Loc.Col == V.Loc.Col) {
          Hit = &F;
          break;
        }
      }
      if (Hit)
        break;
    }
    V.Witness.clear();
    if (Hit) {
      V.Residual = ResidualKind::K1;
      for (const EvidenceStep &S : Hit->Chain)
        V.Witness.push_back(formatStep(S));
    } else {
      V.Residual = ResidualKind::K2;
    }
  }

  // Recompute the Table 2 counters (and VAE) from the vector — the split
  // changed, the surviving count did not.
  Report.K1 = Report.K2 = Report.VAE = 0;
  for (const C1Violation &V : Report.C1) {
    if (V.Residual == ResidualKind::None)
      continue;
    ++Report.VAE;
    if (V.Residual == ResidualKind::K1)
      ++Report.K1;
    else
      ++Report.K2;
  }
}

} // namespace mcfi
