//===- mlta/Mlta.cpp - Multi-layer type analysis --------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The layered type map is built in one syntactic pass over the module
// set plus a small fixpoint:
//
//   chains  — every store whose left-hand side is a member access of
//             function-pointer type is folded into a bucket keyed by its
//             layer chain (innermost field first, enclosing records
//             outward); the stored value is resolved *syntactically*
//             (function designators, casts, conditionals, chain loads);
//   moves   — record-valued assignments between different enclosing
//             paths become chain-rewrite edges; the fixpoint replays
//             buckets across these edges until nothing changes, so
//             struct-copy chains (including cycles) converge;
//   escapes — anything that can invalidate a chain marks the involved
//             record signatures escaped (with taint spreading to every
//             embedded or pointed-to record type) or poisons the single
//             chain; affected call sites keep their FLTA sets.
//
// A refined site's target set is the union of compatible buckets
// intersected with the site's FLTA set, so MLTA ⊆ FLTA per call site by
// construction.
//
//===----------------------------------------------------------------------===//

#include "mlta/Mlta.h"

#include "cfg/SigMatch.h"

#include <algorithm>
#include <map>

namespace mcfi {
namespace mlta {

using namespace minic;

std::string chainKey(const LayerChain &C) {
  // Outermost first reads naturally: "Outer.in/Inner.f".
  std::string Out;
  for (auto It = C.rbegin(); It != C.rend(); ++It) {
    if (!Out.empty())
      Out += "/";
    Out += It->Desc.empty()
               ? It->RecordSig + "#" + std::to_string(It->FieldIndex)
               : It->Desc;
  }
  return Out;
}

namespace {

constexpr unsigned MaxLayers = 6;     ///< chain-depth cap (rewrite cutoff)
constexpr unsigned MaxFixpoint = 512; ///< copy-propagation round guard

/// Internal (stable, signature-based) chain key; Desc-based chainKey is
/// for humans only and may collide across tags.
std::string internKey(const LayerChain &C) {
  std::string Out;
  for (const Layer &L : C) {
    Out += "R:";
    Out += L.RecordSig;
    Out += ":";
    Out += std::to_string(L.FieldIndex);
    Out += "|";
  }
  return Out;
}

/// True iff one chain is a prefix of the other (innermost-aligned): the
/// store/load compatibility rule.
bool chainsCompatible(const LayerChain &A, const LayerChain &B) {
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I != N; ++I)
    if (!(A[I] == B[I]))
      return false;
  return true;
}

/// One function's whole-program view (linker semantics: first definition
/// wins; every defined copy is walked).
struct FnInfo {
  std::string Sig;
  bool Variadic = false;
  bool Defined = false;
  bool AddrTaken = false;
  BuiltinKind Builtin = BuiltinKind::None;
};

struct Bucket {
  LayerChain Chain;
  /// Stored functions with the evidence step of the seeding store.
  std::map<std::string, std::vector<EvidenceStep>> Fns;
  /// A store the resolver could not name reached this chain: compatible
  /// loads must fall back.
  bool Poisoned = false;
  std::string PoisonWhy;
};

/// A chain-rewrite edge from a record-valued copy. Matches a store chain
/// X when X extends SrcTail (or, with SrcTail empty, when some layer of
/// X lives directly in SrcRec); the matched inner part is re-rooted onto
/// DstTail.
struct ChainMove {
  LayerChain SrcTail;
  std::string SrcRec; ///< used when SrcTail is empty (var/pointer source)
  bool SrcByPointer = false; ///< source is *p: match any passage through SrcRec
  LayerChain DstTail;
  EvidenceStep Step;
};

struct SiteRec {
  MltaSite Site;
};

class Engine {
public:
  explicit Engine(const std::vector<FlowModule> &Mods) : Mods(Mods) {}
  MltaResult run();

private:
  const std::vector<FlowModule> &Mods;

  std::map<std::string, FnInfo> Registry;
  std::map<std::string, Bucket> Buckets; ///< keyed by internKey
  std::vector<ChainMove> Moves;
  std::vector<SiteRec> Sites;

  std::set<std::string> EscapedRecs; ///< seed escapes (canonical sigs)
  std::set<std::string> PoisonKeys;  ///< explicitly poisoned chains
  std::set<std::string> Keep;        ///< escaped function values
  bool Havoc = false;
  std::set<std::string> NoteSet;
  std::vector<std::string> Notes;
  unsigned StoreEvents = 0;
  unsigned Iterations = 0;

  /// Record-type graph for taint closure: sig -> sigs of records embedded
  /// in or pointed to by its fields.
  std::map<std::string, std::set<std::string>> RecReach;
  std::map<std::string, std::string> RecTag; ///< sig -> first-seen tag

  struct Ctx {
    int ModuleIdx = -1;
    Program *Prog = nullptr;
    std::string Caller;
  };

  TypeContext &tc(Ctx &C) { return C.Prog->getTypes(); }

  void note(const std::string &Msg) {
    if (NoteSet.insert(Msg).second)
      Notes.push_back(Msg);
  }

  void setHavoc(const std::string &Why) {
    Havoc = true;
    note("havoc: " + Why);
  }

  EvidenceStep step(Ctx &C, SourceLoc L, std::string Desc) {
    return {C.ModuleIdx >= 0 ? Mods[C.ModuleIdx].Name : std::string(), L,
            std::move(Desc)};
  }

  //===--------------------------------------------------------------------===//
  // Record registration and escapes
  //===--------------------------------------------------------------------===//

  /// Registers \p R (and, recursively, record types its fields embed or
  /// point to) in the reachability graph. Returns the canonical sig.
  std::string regRecord(TypeContext &TC, const RecordType *R) {
    std::string Sig = TC.canonicalSignature(R);
    auto [It, New] = RecTag.try_emplace(Sig, R->getTag());
    (void)It;
    if (!New || !R->isComplete())
      return Sig;
    auto &Reach = RecReach[Sig];
    for (const RecordField &F : R->getFields()) {
      const Type *T = F.FieldType;
      while (T && (T->isArray() || T->isPointer()))
        T = T->isArray() ? cast<ArrayType>(T)->getElement()
                         : cast<PointerType>(T)->getPointee();
      if (T && T->isRecord())
        Reach.insert(regRecord(TC, cast<RecordType>(T)));
    }
    return Sig;
  }

  void escapeRecord(TypeContext &TC, const RecordType *R,
                    const std::string &Why) {
    std::string Sig = regRecord(TC, R);
    if (EscapedRecs.insert(Sig).second)
      note("record '" + R->getTag() + "' falls back to FLTA: " + Why);
  }

  /// EscapedRecs closed over the record-reachability graph.
  std::set<std::string> taintClosure() const {
    std::set<std::string> Out;
    std::vector<std::string> WL(EscapedRecs.begin(), EscapedRecs.end());
    while (!WL.empty()) {
      std::string Sig = WL.back();
      WL.pop_back();
      if (!Out.insert(Sig).second)
        continue;
      auto It = RecReach.find(Sig);
      if (It != RecReach.end())
        for (const std::string &Next : It->second)
          WL.push_back(Next);
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Chain construction
  //===--------------------------------------------------------------------===//

  static const Expr *stripCasts(const Expr *E) {
    while (E && isa<CastExpr>(E))
      E = cast<CastExpr>(E)->getSub();
    return E;
  }

  /// Builds the layer chain of a member access, innermost first. Returns
  /// false when \p E is not a (resolved) member access.
  bool buildChain(Ctx &C, const Expr *E, LayerChain &Out) {
    const Expr *Cur = stripCasts(E);
    while (const MemberExpr *M = dyn_cast<MemberExpr>(Cur)) {
      const RecordType *R = M->getRecord();
      if (!R)
        return false;
      std::string Sig = regRecord(tc(C), R);
      if (R->isUnion())
        escapeRecord(tc(C), R, "union fields alias");
      Layer L;
      L.RecordSig = Sig;
      // Unions collapse to field 0, matching the dataflow engine's cells.
      L.FieldIndex = R->isUnion() ? 0 : M->getFieldIndex();
      std::string FieldName =
          R->isComplete() && L.FieldIndex < R->getFields().size()
              ? R->getFields()[L.FieldIndex].Name
              : std::to_string(L.FieldIndex);
      L.Desc = R->getTag() + "." + FieldName;
      Out.push_back(L);
      if (Out.size() > MaxLayers)
        return !Out.empty(); // deep enough; stop layering (still sound:
                             // shorter chains observe more stores)
      if (M->isArrow())
        break; // pointer indirection: enclosing instance unknown
      const Expr *B = stripCasts(M->getBase());
      // Array indexing is transparent over array-typed bases (element
      // summaries); indexing a *pointer* is an indirection like ->.
      bool Indirect = false;
      while (const IndexExpr *I = dyn_cast<IndexExpr>(B)) {
        const Expr *IB = stripCasts(I->getBase());
        if (IB->getType() && IB->getType()->isPointer())
          Indirect = true;
        B = IB;
      }
      if (Indirect)
        break;
      if (isa<MemberExpr>(B)) {
        Cur = B;
        continue;
      }
      break; // VarRef (chain root), call result, *p, ...
    }
    return !Out.empty();
  }

  //===--------------------------------------------------------------------===//
  // Value resolution (syntactic)
  //===--------------------------------------------------------------------===//

  /// Resolves a function-pointer-valued expression to the set of named
  /// functions it can denote, or fails. A chain load on the right-hand
  /// side is reported through \p LoadChains instead (the caller turns it
  /// into a chain move).
  bool resolveFns(Ctx &C, const Expr *E, std::set<std::string> &Out,
                  std::vector<LayerChain> &LoadChains) {
    E = stripCasts(E);
    switch (E->getKind()) {
    case ExprKind::FuncRef:
      Out.insert(cast<FuncRefExpr>(E)->getDecl()->getName());
      return true;
    case ExprKind::IntLit:
      return true; // null (or integer) constant: stores nothing callable
    case ExprKind::Cond: {
      const CondExpr *Cn = cast<CondExpr>(E);
      return resolveFns(C, Cn->getThen(), Out, LoadChains) &&
             resolveFns(C, Cn->getElse(), Out, LoadChains);
    }
    case ExprKind::Assign:
      return resolveFns(C, cast<AssignExpr>(E)->getRHS(), Out, LoadChains);
    case ExprKind::Member: {
      LayerChain L;
      if (buildChain(C, E, L)) {
        LoadChains.push_back(std::move(L));
        return true;
      }
      return false;
    }
    default:
      return false;
    }
  }

  //===--------------------------------------------------------------------===//
  // Event recording
  //===--------------------------------------------------------------------===//

  Bucket &bucket(const LayerChain &C) {
    auto [It, New] = Buckets.try_emplace(internKey(C));
    if (New)
      It->second.Chain = C;
    return It->second;
  }

  void poisonChain(const LayerChain &C, const std::string &Why) {
    Bucket &B = bucket(C);
    if (!B.Poisoned) {
      B.Poisoned = true;
      B.PoisonWhy = Why;
      note("chain '" + chainKey(C) + "' falls back to FLTA: " + Why);
    }
  }

  /// A store of resolved functions into chain \p Dst.
  void recordStore(Ctx &C, const LayerChain &Dst, const Expr *RHS,
                   SourceLoc At) {
    std::set<std::string> Fns;
    std::vector<LayerChain> LoadChains;
    if (!resolveFns(C, RHS, Fns, LoadChains)) {
      poisonChain(Dst, "stored value not syntactically resolvable at line " +
                           std::to_string(At.Line));
      return;
    }
    ++StoreEvents;
    Bucket &B = bucket(Dst);
    for (const std::string &F : Fns)
      B.Fns.try_emplace(
          F, std::vector<EvidenceStep>{step(
                 C, At, "address of '" + F + "' stored to " + chainKey(Dst) +
                            " in '" + C.Caller + "'")});
    for (LayerChain &Src : LoadChains)
      Moves.push_back({Src, std::string(), /*SrcByPointer=*/false, Dst,
                       step(C, At, "function pointer moved from " +
                                       chainKey(Src) + " to " +
                                       chainKey(Dst) + " in '" + C.Caller +
                                       "'")});
  }

  /// A record-valued copy into the member path \p Dst.
  void recordRecordCopy(Ctx &C, const LayerChain &Dst, const Type *RecTy,
                        const Expr *RHS, SourceLoc At) {
    if (!RecTy || !RecTy->isRecord() || !RecTy->containsFunctionPointer())
      return;
    const RecordType *R = cast<RecordType>(RecTy);
    std::string RSig = regRecord(tc(C), R);
    const Expr *S = stripCasts(RHS);
    if (const CondExpr *Cn = dyn_cast<CondExpr>(S)) {
      recordRecordCopy(C, Dst, RecTy, Cn->getThen(), At);
      recordRecordCopy(C, Dst, RecTy, Cn->getElse(), At);
      return;
    }
    EvidenceStep St =
        step(C, At, "record of type '" + R->getTag() + "' copied to " +
                        chainKey(Dst) + " in '" + C.Caller + "'");
    // Member source: re-root chains extending the source path.
    if (isa<MemberExpr>(S)) {
      LayerChain Src;
      if (buildChain(C, S, Src)) {
        Moves.push_back({Src, RSig, false, Dst, St});
        return;
      }
    }
    // Variable / array-element source: re-root chains rooted in R.
    const Expr *Root = S;
    while (const IndexExpr *I = dyn_cast<IndexExpr>(Root))
      Root = stripCasts(I->getBase());
    if (isa<VarRefExpr>(Root)) {
      Moves.push_back({LayerChain(), RSig, false, Dst, St});
      return;
    }
    if (const UnaryExpr *U = dyn_cast<UnaryExpr>(Root))
      if (U->getOp() == UnaryOp::Deref) {
        // *p: p may designate an R nested anywhere — match any passage
        // through R.
        Moves.push_back({LayerChain(), RSig, true, Dst, St});
        return;
      }
    if (const CallExpr *Call = dyn_cast<CallExpr>(Root)) {
      // A defined callee's returned record was populated through chains
      // the walk already sees (var-rooted, observed by the prefix rule);
      // treat like a variable source. Undefined callees escaped R at the
      // call itself.
      (void)Call;
      Moves.push_back({LayerChain(), RSig, false, Dst, St});
      return;
    }
    escapeRecord(tc(C), R,
                 "record copy from unmodeled source at line " +
                     std::to_string(At.Line));
  }

  //===--------------------------------------------------------------------===//
  // Escape rules
  //===--------------------------------------------------------------------===//

  static const RecordType *recordBehindPointer(const Type *T) {
    if (!T || !T->isPointer())
      return nullptr;
    const Type *P = cast<PointerType>(T)->getPointee();
    return P && P->isRecord() ? cast<RecordType>(P) : nullptr;
  }

  /// The cast escape rules (mirrors the dataflow engine's
  /// bridgeRecordCast, but MLTA cannot bridge — it falls back).
  void checkCast(Ctx &C, const CastExpr *E) {
    const Type *From = E->getSub()->getType();
    const Type *To = E->getType();
    // A function value laundered into a data type (stored as an integer,
    // compared, ...) leaves the chains; pin whatever it can denote.
    if (From && (From->isFunctionPointer() || From->isFunction()) &&
        !(To && (To->isFunctionPointer() || To->isFunction())))
      escapeValue(C, E->getSub(),
                  "a cast to '" + (To ? To->print() : "?") + "'");
    const RecordType *A = recordBehindPointer(From);
    const RecordType *B = recordBehindPointer(To);
    if (A && B) {
      if (A == B)
        return;
      std::string SA = tc(C).canonicalSignature(A);
      std::string SB = tc(C).canonicalSignature(B);
      if (SA == SB)
        return;
      if (!A->containsFunctionPointer() && !B->containsFunctionPointer())
        return;
      std::string Why = "cast between incompatible records '" + A->getTag() +
                        "' and '" + B->getTag() + "' at line " +
                        std::to_string(E->getLoc().Line);
      escapeRecord(tc(C), A, Why);
      escapeRecord(tc(C), B, Why);
      return;
    }
    // Record pointer reinterpreted as a raw pointer (or vice versa):
    // stores through the other view bypass the chains.
    const RecordType *R = A ? A : B;
    if (!R || !R->containsFunctionPointer())
      return;
    const Type *Other = A ? To : From;
    if (!Other || !Other->isPointer())
      return; // pointer<->integer round trips are value-level only
    const Expr *Sub = stripCasts(E->getSub());
    if (const CallExpr *Call = dyn_cast<CallExpr>(Sub))
      if (Call->isDirect() &&
          Call->getDirectCallee()->getBuiltin() == BuiltinKind::Malloc)
        return; // fresh allocation: no aliasing view exists yet
    if (isa<IntLitExpr>(Sub))
      return; // null literal
    escapeRecord(tc(C), R,
                 "record pointer reinterpreted as '" + Other->print() +
                     "' at line " + std::to_string(E->getLoc().Line));
  }

  /// &s.f on a function-pointer field: the cell can now be written
  /// through a raw pointer the chains never see.
  void checkAddrOf(Ctx &C, const UnaryExpr *E) {
    const MemberExpr *M = dyn_cast<MemberExpr>(E->getSub());
    if (!M || !M->getRecord())
      return;
    const Type *FT = M->getType();
    if (!FT || !FT->containsFunctionPointer())
      return;
    if (FT->isRecord())
      return; // &s.inner: writes through it are member stores, tracked
    LayerChain L;
    if (buildChain(C, M, L))
      poisonChain(L, "address of field taken at line " +
                         std::to_string(E->getLoc().Line));
  }

  /// A value leaving the analyzed world (external/builtin/variadic/asm
  /// sink). Function values are pinned; escaping records fall back.
  void escapeValue(Ctx &C, const Expr *E, const std::string &Sink) {
    const Type *T = E->getType();
    if (!T)
      return;
    if (const RecordType *R = recordBehindPointer(T)) {
      if (R->containsFunctionPointer())
        escapeRecord(tc(C), R, "pointer handed to " + Sink);
      return;
    }
    if (T->isRecord()) {
      if (T->containsFunctionPointer())
        escapeRecord(tc(C), cast<RecordType>(T), "value handed to " + Sink);
      return;
    }
    if (!(T->isFunctionPointer() || T->isFunction()))
      return;
    std::set<std::string> Fns;
    std::vector<LayerChain> Loads;
    if (!resolveFns(C, E, Fns, Loads)) {
      setHavoc("unresolvable function value handed to " + Sink + " at line " +
               std::to_string(E->getLoc().Line));
      return;
    }
    for (const std::string &F : Fns)
      Keep.insert(F);
    for (const LayerChain &L : Loads) {
      // Functions loaded from a chain escape: pin whatever the map holds
      // at finalize time (deferred through EscapedLoadChains).
      EscapedLoads.push_back(L);
    }
  }

  std::vector<LayerChain> EscapedLoads;

  //===--------------------------------------------------------------------===//
  // AST walk
  //===--------------------------------------------------------------------===//

  void walkStmt(Ctx &C, const Stmt *S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case StmtKind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        walkStmt(C, Sub);
      break;
    case StmtKind::Decl: {
      VarDecl *V = cast<DeclStmt>(S)->getDecl();
      if (const Type *T = V->getType())
        if (T->isRecord())
          regRecord(tc(C), cast<RecordType>(T));
      if (V->getInit()) {
        walkExpr(C, V->getInit());
        // Record-typed initializer: var-rooted chains observe deeper
        // stores by the prefix rule; nothing to re-root.
      }
      break;
    }
    case StmtKind::Expr:
      walkExpr(C, cast<ExprStmt>(S)->getExpr());
      break;
    case StmtKind::If:
      walkExpr(C, cast<IfStmt>(S)->getCond());
      walkStmt(C, cast<IfStmt>(S)->getThen());
      walkStmt(C, cast<IfStmt>(S)->getElse());
      break;
    case StmtKind::While:
    case StmtKind::DoWhile:
      walkExpr(C, cast<WhileStmt>(S)->getCond());
      walkStmt(C, cast<WhileStmt>(S)->getBody());
      break;
    case StmtKind::For: {
      const ForStmt *F = cast<ForStmt>(S);
      walkStmt(C, F->getInit());
      if (F->getCond())
        walkExpr(C, F->getCond());
      if (F->getInc())
        walkExpr(C, F->getInc());
      walkStmt(C, F->getBody());
      break;
    }
    case StmtKind::Return:
      if (cast<ReturnStmt>(S)->getValue())
        walkExpr(C, cast<ReturnStmt>(S)->getValue());
      break;
    case StmtKind::Switch:
      walkExpr(C, cast<SwitchStmt>(S)->getCond());
      for (const SwitchArm &Arm : cast<SwitchStmt>(S)->getArms())
        for (const Stmt *Sub : Arm.Stmts)
          walkStmt(C, Sub);
      break;
    case StmtKind::Asm: {
      const AsmStmt *A = cast<AsmStmt>(S);
      if (A->getAnnotations().empty()) {
        setHavoc("unannotated inline assembly in '" + C.Caller +
                 "' at line " + std::to_string(S->getLoc().Line));
        break;
      }
      for (const AsmAnnotation &An : A->getAnnotations())
        if (Registry.count(An.Symbol))
          Keep.insert(An.Symbol);
      break;
    }
    default:
      break;
    }
  }

  void walkExpr(Ctx &C, const Expr *E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case ExprKind::Assign: {
      const AssignExpr *A = cast<AssignExpr>(E);
      walkExpr(C, A->getRHS());
      const Expr *L = A->getLHS();
      // Walk the LHS for side conditions (casts/indices in the path),
      // but interpret the top-level member store here.
      if (const MemberExpr *M = dyn_cast<MemberExpr>(L)) {
        walkExpr(C, M->getBase());
        LayerChain Chain;
        const Type *LT = M->getType();
        if (buildChain(C, M, Chain)) {
          if (LT && (LT->isFunctionPointer() || LT->isFunction())) {
            recordStore(C, Chain, A->getRHS(), A->getLoc());
          } else if (LT && LT->isRecord()) {
            recordRecordCopy(C, Chain, LT, A->getRHS(), A->getLoc());
          } else if (LT && LT->containsFunctionPointer()) {
            // e.g. an array-of-function-pointers field
            poisonChain(Chain,
                        "unmodeled store shape at line " +
                            std::to_string(A->getLoc().Line));
          }
        }
      } else {
        walkExpr(C, L);
      }
      break;
    }
    case ExprKind::Unary: {
      const UnaryExpr *U = cast<UnaryExpr>(E);
      if (U->getOp() == UnaryOp::AddrOf)
        checkAddrOf(C, U);
      walkExpr(C, U->getSub());
      break;
    }
    case ExprKind::Cast:
      checkCast(C, cast<CastExpr>(E));
      walkExpr(C, cast<CastExpr>(E)->getSub());
      break;
    case ExprKind::Call:
      walkCall(C, cast<CallExpr>(E));
      break;
    case ExprKind::Binary:
      walkExpr(C, cast<BinaryExpr>(E)->getLHS());
      walkExpr(C, cast<BinaryExpr>(E)->getRHS());
      break;
    case ExprKind::Cond:
      walkExpr(C, cast<CondExpr>(E)->getCond());
      walkExpr(C, cast<CondExpr>(E)->getThen());
      walkExpr(C, cast<CondExpr>(E)->getElse());
      break;
    case ExprKind::Index:
      walkExpr(C, cast<IndexExpr>(E)->getBase());
      walkExpr(C, cast<IndexExpr>(E)->getIdx());
      break;
    case ExprKind::Member:
      walkExpr(C, cast<MemberExpr>(E)->getBase());
      break;
    default:
      break;
    }
  }

  void walkCall(Ctx &C, const CallExpr *E) {
    for (const Expr *A : E->getArgs())
      walkExpr(C, A);

    if (E->isDirect()) {
      const FuncDecl *Callee = E->getDirectCallee();
      auto It = Registry.find(Callee->getName());
      const FnInfo *FI = It == Registry.end() ? nullptr : &It->second;
      bool DefinedCallee = FI && FI->Defined;
      BuiltinKind BK = Callee->getBuiltin();
      if (DefinedCallee) {
        // Values stay inside the analyzed world; variadic extras beyond
        // the fixed parameters escape (accessed through machinery the
        // walk does not model).
        size_t Fixed = Callee->getParams().size();
        for (size_t I = Fixed; I < E->getArgs().size(); ++I)
          escapeValue(C, E->getArgs()[I],
                      "variadic arguments of '" + Callee->getName() + "'");
        return;
      }
      switch (BK) {
      case BuiltinKind::Malloc:
      case BuiltinKind::Free:
      case BuiltinKind::Setjmp:
      case BuiltinKind::Dlopen:
      case BuiltinKind::Dlclose:
      case BuiltinKind::Exit:
      case BuiltinKind::PrintInt:
      case BuiltinKind::PrintStr:
        return; // no code-pointer flow through these
      case BuiltinKind::Dlsym: {
        const Expr *NameArg =
            E->getArgs().size() >= 2 ? stripCasts(E->getArgs()[1]) : nullptr;
        if (const StrLitExpr *Lit =
                NameArg ? dyn_cast<StrLitExpr>(NameArg) : nullptr) {
          if (Registry.count(Lit->getValue()))
            Keep.insert(Lit->getValue());
        }
        return;
      }
      case BuiltinKind::Signal:
      case BuiltinKind::Longjmp:
      case BuiltinKind::Raise:
      case BuiltinKind::None:
        break; // escape arguments below
      }
      for (const Expr *A : E->getArgs())
        escapeValue(C, A,
                    DefinedCallee
                        ? "'" + Callee->getName() + "'"
                        : "external function '" + Callee->getName() + "'");
      return;
    }

    // Indirect call: a site of the layered map.
    walkExpr(C, E->getCallee());
    SiteRec S;
    S.Site.Caller = C.Caller;
    S.Site.Module = Mods[C.ModuleIdx].Name;
    S.Site.Loc = E->getLoc();
    const FunctionType *FT = E->getCalleeFnType();
    S.Site.PointerSig = FT ? tc(C).canonicalSignature(FT) : "";
    S.Site.VariadicPointer = FT && FT->isVariadic();
    buildChain(C, E->getCallee(), S.Site.Chain);
    Sites.push_back(std::move(S));

    // If the type-matched set reaches outside the analyzed world, the
    // arguments do too.
    bool AnyUndef = false;
    for (const auto &[Name, FI] : Registry)
      if (FI.AddrTaken && !FI.Defined &&
          calleeSigMatches(Sites.back().Site.PointerSig,
                           Sites.back().Site.VariadicPointer, FI.Sig)) {
        (void)Name;
        AnyUndef = true;
        break;
      }
    if (AnyUndef)
      for (const Expr *A : E->getArgs())
        escapeValue(C, A, "an indirect call with external targets");
  }

  //===--------------------------------------------------------------------===//
  // Passes
  //===--------------------------------------------------------------------===//

  void registerModules() {
    for (size_t M = 0; M < Mods.size(); ++M) {
      Program *P = Mods[M].Prog;
      for (FuncDecl *F : P->Functions) {
        auto [It, New] = Registry.try_emplace(F->getName());
        FnInfo &FI = It->second;
        if (New || (F->isDefined() && !FI.Defined)) {
          FI.Sig = P->getTypes().canonicalSignature(F->getType());
          FI.Variadic = F->getType()->isVariadic();
        }
        FI.Defined |= F->isDefined();
        FI.AddrTaken |= F->isAddressTaken();
        if (F->getBuiltin() != BuiltinKind::None)
          FI.Builtin = F->getBuiltin();
      }
      for (VarDecl *G : P->Globals)
        if (G->getType() && G->getType()->isRecord())
          regRecord(P->getTypes(), cast<RecordType>(G->getType()));
    }
  }

  void walkModules() {
    for (size_t M = 0; M < Mods.size(); ++M) {
      Ctx C;
      C.ModuleIdx = static_cast<int>(M);
      C.Prog = Mods[M].Prog;
      C.Caller = "<global-init>";
      for (VarDecl *G : C.Prog->Globals)
        if (G->getInit())
          walkExpr(C, G->getInit());
      for (FuncDecl *F : C.Prog->Functions) {
        if (!F->isDefined())
          continue;
        C.Caller = F->getName();
        for (const VarDecl *Pm : F->getParams())
          if (Pm->getType() && Pm->getType()->isRecord())
            regRecord(tc(C), cast<RecordType>(Pm->getType()));
        walkStmt(C, F->getBody());
      }
    }
    // External callers (the bootstrap invoking main; anything invoking
    // an escaped function) may pass records the walk cannot see.
    std::vector<std::string> Externally(Keep.begin(), Keep.end());
    Externally.push_back("main");
    for (size_t M = 0; M < Mods.size(); ++M)
      for (FuncDecl *F : Mods[M].Prog->Functions) {
        if (!F->isDefined())
          continue;
        if (std::find(Externally.begin(), Externally.end(), F->getName()) ==
            Externally.end())
          continue;
        for (const VarDecl *Pm : F->getParams()) {
          const Type *T = Pm->getType();
          const RecordType *R =
              T && T->isRecord() ? cast<RecordType>(T) : recordBehindPointer(T);
          if (R && R->containsFunctionPointer())
            escapeRecord(Mods[M].Prog->getTypes(), R,
                         "parameter of externally-invoked '" + F->getName() +
                             "'");
        }
      }
  }

  /// Replays buckets across the chain-rewrite edges to a fixpoint.
  void propagate() {
    bool Changed = true;
    while (Changed && Iterations < MaxFixpoint) {
      Changed = false;
      ++Iterations;
      for (const ChainMove &Mv : Moves) {
        // Collect matches first: applying them mutates Buckets.
        std::vector<std::pair<LayerChain, const Bucket *>> Hits;
        for (const auto &[Key, B] : Buckets) {
          (void)Key;
          std::vector<LayerChain> Rewritten;
          matchMove(Mv, B.Chain, Rewritten);
          for (LayerChain &RC : Rewritten)
            Hits.push_back({std::move(RC), &B});
        }
        for (auto &[Dst, SrcB] : Hits) {
          if (Dst.size() > MaxLayers) {
            // Cut the growth, soundly: the destination root falls back.
            if (!Mv.DstTail.empty())
              markEscaped(Mv.DstTail.back().RecordSig,
                          "chain-depth cap hit during struct-copy "
                          "propagation");
            continue;
          }
          Bucket &DB = bucket(Dst);
          if (SrcB->Poisoned && !DB.Poisoned) {
            DB.Poisoned = true;
            DB.PoisonWhy = SrcB->PoisonWhy;
            Changed = true;
          }
          for (const auto &[Fn, Steps] : SrcB->Fns) {
            auto [It, New] = DB.Fns.try_emplace(Fn, Steps);
            if (New) {
              It->second.push_back(Mv.Step);
              Changed = true;
            }
          }
        }
      }
    }
    if (Iterations >= MaxFixpoint)
      setHavoc("struct-copy propagation did not converge");
  }

  void markEscaped(const std::string &Sig, const std::string &Why) {
    if (EscapedRecs.insert(Sig).second) {
      auto It = RecTag.find(Sig);
      note("record '" + (It != RecTag.end() ? It->second : Sig) +
           "' falls back to FLTA: " + Why);
    }
  }

  /// Applies a move's match rule to one store chain, producing zero or
  /// more rewritten chains.
  void matchMove(const ChainMove &Mv, const LayerChain &X,
                 std::vector<LayerChain> &Out) const {
    if (!Mv.SrcTail.empty()) {
      // A load at SrcTail observes every compatible bucket (innermost-
      // aligned prefix either way); a function-pointer move lands those
      // contents at exactly DstTail. Record-copy moves never take this
      // branch: their SrcTail ends at a record-typed field, which no
      // store chain's innermost (function-pointer) layer can equal.
      if (chainsCompatible(X, Mv.SrcTail))
        Out.push_back(Mv.DstTail);
      // Otherwise X must strictly extend SrcTail inward (innermost-
      // first: SrcTail is a suffix of X) — the record-copy rewrite.
      if (X.size() <= Mv.SrcTail.size())
        return;
      size_t Off = X.size() - Mv.SrcTail.size();
      for (size_t I = 0; I != Mv.SrcTail.size(); ++I)
        if (!(X[Off + I] == Mv.SrcTail[I]))
          return;
      LayerChain R(X.begin(), X.begin() + Off);
      R.insert(R.end(), Mv.DstTail.begin(), Mv.DstTail.end());
      Out.push_back(std::move(R));
      return;
    }
    if (!Mv.SrcByPointer) {
      // Variable-rooted source: X must lie entirely within SrcRec (its
      // outermost layer is a field of SrcRec).
      if (X.empty() || X.back().RecordSig != Mv.SrcRec)
        return;
      LayerChain R(X);
      R.insert(R.end(), Mv.DstTail.begin(), Mv.DstTail.end());
      Out.push_back(std::move(R));
      return;
    }
    // Pointer source: any passage of X through SrcRec matches.
    for (size_t J = 0; J != X.size(); ++J) {
      if (X[J].RecordSig != Mv.SrcRec)
        continue;
      LayerChain R(X.begin(), X.begin() + J + 1);
      R.insert(R.end(), Mv.DstTail.begin(), Mv.DstTail.end());
      Out.push_back(std::move(R));
    }
  }

  MltaResult finalize() {
    MltaResult R;
    R.EscapedRecords = taintClosure();
    R.Havoc = Havoc;
    R.KeepTargets = Keep;

    // Function values that escaped through chain loads: everything the
    // (now settled) compatible buckets hold is pinned.
    for (const LayerChain &L : EscapedLoads)
      for (const auto &[Key, B] : Buckets) {
        (void)Key;
        if (!chainsCompatible(B.Chain, L))
          continue;
        for (const auto &[Fn, Steps] : B.Fns) {
          (void)Steps;
          R.KeepTargets.insert(Fn);
        }
      }

    for (SiteRec &SR : Sites) {
      MltaSite &S = SR.Site;
      // The FLTA set: defined address-taken type-matches (what the plain
      // type-matching CFG enforces for this site).
      for (const auto &[Name, FI] : Registry)
        if (FI.AddrTaken && FI.Defined &&
            calleeSigMatches(S.PointerSig, S.VariadicPointer, FI.Sig))
          S.Flta.push_back(Name);
      std::sort(S.Flta.begin(), S.Flta.end());

      auto fallback = [&](const std::string &Why) {
        S.Refined = false;
        S.FallbackWhy = Why;
        S.Targets.clear();
        S.Witness.clear();
      };

      if (S.Chain.empty()) {
        fallback("callee is not loaded through a record field");
      } else if (Havoc) {
        fallback("analysis havocked");
      } else {
        bool Tainted = false;
        for (const Layer &L : S.Chain)
          if (R.EscapedRecords.count(L.RecordSig)) {
            fallback("record '" + L.Desc + "' escaped");
            Tainted = true;
            break;
          }
        if (!Tainted) {
          std::map<std::string, std::vector<EvidenceStep>> Acc;
          bool Poisoned = false;
          std::string Why;
          for (const auto &[Key, B] : Buckets) {
            (void)Key;
            if (!chainsCompatible(B.Chain, S.Chain))
              continue;
            if (B.Poisoned) {
              Poisoned = true;
              Why = B.PoisonWhy;
              break;
            }
            for (const auto &[Fn, Steps] : B.Fns)
              Acc.try_emplace(Fn, Steps);
          }
          if (Poisoned) {
            fallback(Why);
          } else {
            S.Refined = true;
            std::set<std::string> FltaSet(S.Flta.begin(), S.Flta.end());
            for (auto &[Fn, Steps] : Acc) {
              if (!FltaSet.count(Fn))
                continue; // intersection: MLTA ⊆ FLTA by construction
              S.Targets.push_back(Fn);
              std::vector<EvidenceStep> W = Steps;
              W.push_back({S.Module, S.Loc,
                           "loaded through " + chainKey(S.Chain) +
                               " and invoked in '" + S.Caller + "'"});
              S.Witness.push_back(std::move(W));
            }
          }
        }
      }
      R.Sites.push_back(std::move(S));
    }

    R.Notes = Notes;
    R.Stats.Records = static_cast<unsigned>(RecTag.size());
    R.Stats.Chains = static_cast<unsigned>(Buckets.size());
    R.Stats.Stores = StoreEvents;
    R.Stats.CopyEdges = static_cast<unsigned>(Moves.size());
    R.Stats.Iterations = Iterations;
    return R;
  }
};

MltaResult Engine::run() {
  registerModules();
  walkModules();
  propagate();
  return finalize();
}

} // namespace

MltaResult analyzeLayeredTypes(const std::vector<FlowModule> &Mods) {
  Engine E(Mods);
  return E.run();
}

} // namespace mlta

namespace {

using KeySets = decltype(CFGRefinement::Allowed);

/// One engine's per-key target sets. A (caller, signature) key covers
/// every aux branch site with that caller and pointer signature; an
/// engine bounds it only if it bounded every one of them, and a havocked
/// engine bounds none.
template <typename SiteT>
KeySets boundedKeys(bool Havoc, const std::vector<SiteT> &Sites,
                    bool SiteT::*Bounded) {
  std::set<KeySets::key_type> Unbounded;
  for (const SiteT &S : Sites)
    if (Havoc || !(S.*Bounded))
      Unbounded.insert({S.Caller, S.PointerSig});
  KeySets Out;
  for (const SiteT &S : Sites)
    if (!Unbounded.count({S.Caller, S.PointerSig}))
      Out[{S.Caller, S.PointerSig}].insert(S.Targets.begin(), S.Targets.end());
  return Out;
}

} // namespace

CFGRefinement computeRefinement(const DataflowResult &Flow,
                                const mlta::MltaResult &Layered) {
  CFGRefinement R;
  R.KeepTargets = Flow.EscapedFunctions;
  R.KeepTargets.insert(Layered.KeepTargets.begin(), Layered.KeepTargets.end());
  R.Allowed = boundedKeys(Flow.Havoc, Flow.Sites, &SiteFlow::Complete);
  for (auto &[Key, Set] :
       boundedKeys(Layered.Havoc, Layered.Sites, &mlta::MltaSite::Refined)) {
    auto [It, Fresh] = R.Allowed.try_emplace(Key, Set);
    if (!Fresh) // both bound the key: keep what both sets admit
      std::erase_if(It->second,
                    [&](const std::string &T) { return !Set.count(T); });
  }
  return R;
}

CFGRefinement refineProgram(const std::vector<FlowModule> &Mods) {
  return computeRefinement(analyzeFunctionPointerFlow(Mods),
                           mlta::analyzeLayeredTypes(Mods));
}

} // namespace mcfi
