//===- minic/Sema.cpp - MiniC semantic analysis ----------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/Sema.h"

#include "ctypes/TypeParser.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

/// A lexical scope mapping names to variable declarations.
using Scope = std::unordered_map<std::string, VarDecl *>;

class SemaImpl {
public:
  SemaImpl(Program &Prog, std::vector<std::string> &Errors)
      : Prog(Prog), Ctx(Prog.getTypes()), Errors(Errors) {}

  bool run() {
    markBuiltinPrototypes();

    // Global scope: global variables.
    Scopes.emplace_back();
    for (VarDecl *G : Prog.Globals) {
      if (Scopes.back().count(G->getName()))
        error(G->getLoc(), "redefinition of global '" + G->getName() + "'");
      requireSized(G);
      Scopes.back()[G->getName()] = G;
      if (G->getInit()) {
        Expr *Init = check(G->getInit());
        if (Init)
          G->setInit(coerce(Init, G->getType()));
      }
    }

    // By index: checking a body may append a builtin to Functions.
    for (size_t I = 0; I != Prog.Functions.size(); ++I) {
      FuncDecl *F = Prog.Functions[I];
      if (!F->isDefined())
        continue;
      CurFunc = F;
      Labels.clear();
      Gotos.clear();
      Scopes.emplace_back();
      for (VarDecl *P : F->getParams()) {
        requireSized(P);
        if (!P->getName().empty())
          Scopes.back()[P->getName()] = P;
      }
      checkStmt(F->getBody());
      for (const auto &[Name, Loc] : Gotos)
        if (!Labels.count(Name))
          error(Loc, "goto to undefined label '" + Name + "'");
      Scopes.pop_back();
      CurFunc = nullptr;
    }
    return !HadError;
  }

private:
  void error(SourceLoc Loc, const std::string &Msg) {
    HadError = true;
    Errors.push_back(formatString("line %u: %s", Loc.Line, Msg.c_str()));
  }

  //===--------------------------------------------------------------------===//
  // Builtins
  //===--------------------------------------------------------------------===//

  /// Gives a user prototype of a builtin's name the builtin's kind: the
  /// program declared the runtime function itself.
  void markBuiltinPrototypes() {
    for (FuncDecl *F : Prog.Functions)
      if (!F->isDefined())
        if (BuiltinKind K = builtinKind(F->getName()); K != BuiltinKind::None)
          F->setBuiltin(K);
  }

  /// The function \p Name refers to: the program's own declaration, or
  /// else the runtime builtin of that name, declared now. A builtin is
  /// declared only when the program names it, so a compile pays for the
  /// builtins it uses and none of the others.
  FuncDecl *findOrDeclareFunction(const std::string &Name) {
    if (FuncDecl *F = Prog.findFunction(Name))
      return F;
    BuiltinKind K = builtinKind(Name);
    if (K == BuiltinKind::None)
      return nullptr;
    const FunctionType *FT = builtinType(K);
    std::vector<VarDecl *> Params;
    for (const Type *P : FT->getParams())
      Params.push_back(Prog.makeVar({0, 0}, "", P, false));
    FuncDecl *F = Prog.makeFunc({0, 0}, Name, FT, std::move(Params));
    F->setBuiltin(K);
    Prog.Functions.push_back(F);
    return F;
  }

  static BuiltinKind builtinKind(std::string_view Name) {
    static constexpr std::pair<std::string_view, BuiltinKind> Names[] = {
        {"malloc", BuiltinKind::Malloc},   {"free", BuiltinKind::Free},
        {"setjmp", BuiltinKind::Setjmp},   {"longjmp", BuiltinKind::Longjmp},
        {"signal", BuiltinKind::Signal},   {"raise", BuiltinKind::Raise},
        {"print_int", BuiltinKind::PrintInt},
        {"print_str", BuiltinKind::PrintStr},
        {"exit", BuiltinKind::Exit},       {"dlopen", BuiltinKind::Dlopen},
        {"dlsym", BuiltinKind::Dlsym},     {"dlclose", BuiltinKind::Dlclose},
    };
    for (const auto &[N, K] : Names)
      if (N == Name)
        return K;
    return BuiltinKind::None;
  }

  /// The C type of builtin \p K, spelled beside each case (the test
  /// Sema.BuiltinTypesMatchTheirCSpelling parses those spellings).
  const FunctionType *builtinType(BuiltinKind K) {
    const Type *Void = Ctx.getVoid(), *Int = Ctx.getInt32(),
               *Long = Ctx.getInt64();
    auto fn = [&](const Type *Ret, std::vector<const Type *> Params) {
      return Ctx.getFunction(Ret, std::move(Params), /*Variadic=*/false);
    };
    switch (K) {
    case BuiltinKind::Malloc: // void*(long)
      return fn(Ctx.getPointer(Void), {Long});
    case BuiltinKind::Free: // void(void*)
      return fn(Void, {Ctx.getPointer(Void)});
    case BuiltinKind::Setjmp: // int(long*)
      return fn(Int, {Ctx.getPointer(Long)});
    case BuiltinKind::Longjmp: // void(long*,int)
      return fn(Void, {Ctx.getPointer(Long), Int});
    case BuiltinKind::Signal: // void(int,void(*)(int))
      return fn(Void, {Int, Ctx.getPointer(fn(Void, {Int}))});
    case BuiltinKind::Raise: // void(int)
    case BuiltinKind::Exit:
      return fn(Void, {Int});
    case BuiltinKind::PrintInt: // void(long)
      return fn(Void, {Long});
    case BuiltinKind::PrintStr: // void(char*)
      return fn(Void, {Ctx.getPointer(Ctx.getChar())});
    case BuiltinKind::Dlopen: // long(int)
      return fn(Long, {Int});
    case BuiltinKind::Dlsym: // void*(long,char*)
      return fn(Ctx.getPointer(Void), {Long, Ctx.getPointer(Ctx.getChar())});
    case BuiltinKind::Dlclose: // int(long)
      return fn(Int, {Long});
    case BuiltinKind::None:
      break;
    }
    mcfi_unreachable("not a builtin");
  }

  //===--------------------------------------------------------------------===//
  // Name lookup
  //===--------------------------------------------------------------------===//

  VarDecl *lookupVar(const std::string &Name) {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Conversions
  //===--------------------------------------------------------------------===//

  bool isArithmetic(const Type *T) { return T->isInt() || T->isFloat(); }

  /// Functions and incomplete records (alone or as array elements) have
  /// no size: Sema refuses to step over, subscript, size or declare one,
  /// as C does, before lowering would have to lay it out.
  static bool hasSize(const Type *T) {
    while (const auto *AT = dyn_cast<ArrayType>(T))
      T = AT->getElement();
    const auto *RT = dyn_cast<RecordType>(T);
    return !T->isFunction() && (!RT || RT->isComplete());
  }
  static bool isSizedPointer(const Type *T) {
    const auto *PT = dyn_cast<PointerType>(T);
    return PT && hasSize(PT->getPointee());
  }
  void requireSized(const VarDecl *V) {
    if (!hasSize(V->getType()))
      error(V->getLoc(), "variable '" + V->getName() + "' has no size");
  }

  /// Decays arrays and function designators to pointers, per C.
  Expr *decay(Expr *E) {
    if (const auto *AT = dyn_cast<ArrayType>(E->getType())) {
      auto *C = Prog.makeExpr<CastExpr>(
          E->getLoc(), Ctx.getPointer(AT->getElement()), E, /*Implicit=*/true);
      C->setLValue(false);
      return C;
    }
    if (E->getType()->isFunction()) {
      if (auto *FR = dyn_cast<FuncRefExpr>(E))
        FR->getDecl()->setAddressTaken();
      auto *C = Prog.makeExpr<CastExpr>(
          E->getLoc(), Ctx.getPointer(E->getType()), E, /*Implicit=*/true);
      C->setLValue(false);
      return C;
    }
    return E;
  }

  /// Converts \p E to \p To, inserting an implicit CastExpr when the
  /// types differ. All conversions are permitted MiniC-wide; judging
  /// their safety is the C1 analyzer's job, not Sema's.
  Expr *coerce(Expr *E, const Type *To) {
    E = decay(E);
    if (E->getType() == To)
      return E;
    auto *C = Prog.makeExpr<CastExpr>(E->getLoc(), To, E, /*Implicit=*/true);
    C->setLValue(false);
    return C;
  }

  /// Usual arithmetic conversions, MiniC style: float64 > float32 >
  /// int64 > int32 > smaller.
  const Type *promote(const Type *A, const Type *B) {
    auto Rank = [](const Type *T) -> int {
      if (const auto *F = dyn_cast<FloatType>(T))
        return 100 + static_cast<int>(F->getBitWidth());
      if (const auto *I = dyn_cast<IntType>(T))
        return static_cast<int>(I->getBitWidth());
      return 0;
    };
    const Type *Winner = Rank(A) >= Rank(B) ? A : B;
    // Promote sub-int to int32.
    if (const auto *I = dyn_cast<IntType>(Winner))
      if (I->getBitWidth() < 32)
        return Ctx.getInt32();
    return Winner;
  }

  //===--------------------------------------------------------------------===//
  // Expression checking
  //===--------------------------------------------------------------------===//

  /// Type-checks \p E; returns the (possibly replaced) node, or null on a
  /// hard error. On success the node has a type.
  Expr *check(Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit: {
      auto *IL = cast<IntLitExpr>(E);
      bool Wide = IL->getValue() > INT32_MAX || IL->getValue() < INT32_MIN;
      E->setType(Wide ? Ctx.getInt64() : Ctx.getInt32());
      return E;
    }
    case ExprKind::StrLit:
      E->setType(Ctx.getPointer(Ctx.getChar()));
      return E;
    case ExprKind::NameRef: {
      auto *NR = cast<NameRefExpr>(E);
      if (VarDecl *V = lookupVar(NR->getName())) {
        auto *Ref = Prog.makeExpr<VarRefExpr>(NR->getLoc(), V);
        Ref->setType(V->getType());
        Ref->setLValue(true);
        return Ref;
      }
      if (FuncDecl *F = findOrDeclareFunction(NR->getName())) {
        auto *Ref = Prog.makeExpr<FuncRefExpr>(NR->getLoc(), F);
        Ref->setType(F->getType());
        return Ref;
      }
      error(NR->getLoc(), "use of undeclared identifier '" + NR->getName() +
                              "'");
      return nullptr;
    }
    case ExprKind::VarRef:
    case ExprKind::FuncRef:
      return E; // already resolved
    case ExprKind::Unary:
      return checkUnary(cast<UnaryExpr>(E));
    case ExprKind::Binary:
      return checkBinary(cast<BinaryExpr>(E));
    case ExprKind::Assign:
      return checkAssign(cast<AssignExpr>(E));
    case ExprKind::Cond:
      return checkCond(cast<CondExpr>(E));
    case ExprKind::Call:
      return checkCall(cast<CallExpr>(E));
    case ExprKind::Index:
      return checkIndex(cast<IndexExpr>(E));
    case ExprKind::Member:
      return checkMember(cast<MemberExpr>(E));
    case ExprKind::Cast: {
      auto *C = cast<CastExpr>(E);
      Expr *Sub = check(C->getSub());
      if (!Sub)
        return nullptr;
      C->setSub(decay(Sub));
      return C;
    }
    case ExprKind::SizeofType:
      if (!hasSize(cast<SizeofExpr>(E)->getOperand())) {
        error(E->getLoc(), "sizeof of a type with no size");
        return nullptr;
      }
      E->setType(Ctx.getInt64());
      return E;
    }
    mcfi_unreachable("covered switch");
  }

  Expr *checkUnary(UnaryExpr *U) {
    Expr *Sub = check(U->getSub());
    if (!Sub)
      return nullptr;
    switch (U->getOp()) {
    case UnaryOp::Neg:
    case UnaryOp::BitNot: {
      Sub = decay(Sub);
      if (!isArithmetic(Sub->getType())) {
        error(U->getLoc(), "operand of unary arithmetic must be arithmetic");
        return nullptr;
      }
      U->setSub(Sub);
      U->setType(promote(Sub->getType(), Ctx.getInt32()));
      return U;
    }
    case UnaryOp::LogicalNot:
      Sub = decay(Sub);
      U->setSub(Sub);
      U->setType(Ctx.getInt32());
      return U;
    case UnaryOp::Deref: {
      Sub = decay(Sub);
      const auto *PT = dyn_cast<PointerType>(Sub->getType());
      if (!PT) {
        error(U->getLoc(), "cannot dereference non-pointer");
        return nullptr;
      }
      U->setSub(Sub);
      U->setType(PT->getPointee());
      U->setLValue(!PT->getPointee()->isFunction());
      return U;
    }
    case UnaryOp::AddrOf: {
      if (auto *FR = dyn_cast<FuncRefExpr>(Sub)) {
        FR->getDecl()->setAddressTaken();
        U->setSub(Sub);
        U->setType(Ctx.getPointer(FR->getDecl()->getType()));
        return U;
      }
      if (!Sub->isLValue()) {
        error(U->getLoc(), "cannot take the address of an rvalue");
        return nullptr;
      }
      U->setSub(Sub);
      U->setType(Ctx.getPointer(Sub->getType()));
      return U;
    }
    }
    mcfi_unreachable("covered switch");
  }

  Expr *checkBinary(BinaryExpr *B) {
    Expr *L = check(B->getLHS());
    Expr *R = check(B->getRHS());
    if (!L || !R)
      return nullptr;
    L = decay(L);
    R = decay(R);

    switch (B->getOp()) {
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      B->setLHS(L);
      B->setRHS(R);
      B->setType(Ctx.getInt32());
      return B;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      if (isArithmetic(L->getType()) && isArithmetic(R->getType())) {
        const Type *Common = promote(L->getType(), R->getType());
        L = coerce(L, Common);
        R = coerce(R, Common);
      } else if (L->getType()->isPointer() && isArithmetic(R->getType())) {
        R = coerce(R, L->getType()); // ptr vs NULL/0
      } else if (R->getType()->isPointer() && isArithmetic(L->getType())) {
        L = coerce(L, R->getType());
      }
      B->setLHS(L);
      B->setRHS(R);
      B->setType(Ctx.getInt32());
      return B;
    }
    case BinaryOp::Add:
    case BinaryOp::Sub: {
      // Pointer arithmetic.
      if (isSizedPointer(L->getType()) && isArithmetic(R->getType())) {
        B->setLHS(L);
        B->setRHS(coerce(R, Ctx.getInt64()));
        B->setType(L->getType());
        return B;
      }
      if (B->getOp() == BinaryOp::Add && isSizedPointer(R->getType()) &&
          isArithmetic(L->getType())) {
        B->setLHS(coerce(L, Ctx.getInt64()));
        B->setRHS(R);
        B->setType(R->getType());
        return B;
      }
      if (B->getOp() == BinaryOp::Sub && isSizedPointer(L->getType()) &&
          isSizedPointer(R->getType())) {
        B->setLHS(L);
        B->setRHS(R);
        B->setType(Ctx.getInt64());
        return B;
      }
      [[fallthrough]];
    }
    default: {
      if (!isArithmetic(L->getType()) || !isArithmetic(R->getType())) {
        error(B->getLoc(), "invalid operands to binary operator");
        return nullptr;
      }
      const Type *Common = promote(L->getType(), R->getType());
      B->setLHS(coerce(L, Common));
      B->setRHS(coerce(R, Common));
      B->setType(Common);
      return B;
    }
    }
  }

  Expr *checkAssign(AssignExpr *A) {
    Expr *L = check(A->getLHS());
    Expr *R = check(A->getRHS());
    if (!L || !R)
      return nullptr;
    if (!L->isLValue()) {
      error(A->getLoc(), "assignment target is not an lvalue");
      return nullptr;
    }
    if (L->getType()->isRecord()) {
      error(A->getLoc(), "struct assignment is not supported in MiniC");
      return nullptr;
    }
    A->setLHS(L);
    A->setRHS(coerce(R, L->getType()));
    A->setType(L->getType());
    return A;
  }

  Expr *checkCond(CondExpr *C) {
    Expr *Cond = check(C->getCond());
    Expr *T = check(C->getThen());
    Expr *E = check(C->getElse());
    if (!Cond || !T || !E)
      return nullptr;
    Cond = decay(Cond);
    T = decay(T);
    E = decay(E);
    const Type *Result;
    if (T->getType() == E->getType()) {
      Result = T->getType();
    } else if (isArithmetic(T->getType()) && isArithmetic(E->getType())) {
      Result = promote(T->getType(), E->getType());
    } else if (T->getType()->isPointer() && isArithmetic(E->getType())) {
      Result = T->getType();
    } else if (E->getType()->isPointer() && isArithmetic(T->getType())) {
      Result = E->getType();
    } else {
      Result = T->getType(); // e.g. two pointer types: pick the first
    }
    C->setCond(Cond);
    C->setThen(coerce(T, Result));
    C->setElse(coerce(E, Result));
    C->setType(Result);
    return C;
  }

  Expr *checkCall(CallExpr *Call) {
    Expr *Callee = check(Call->getCallee());
    if (!Callee)
      return nullptr;

    const FunctionType *FT = nullptr;
    if (auto *FR = dyn_cast<FuncRefExpr>(Callee)) {
      // Direct call: does NOT take the function's address.
      FT = FR->getDecl()->getType();
    } else {
      Callee = decay(Callee);
      if (const auto *PT = dyn_cast<PointerType>(Callee->getType()))
        FT = dyn_cast<FunctionType>(PT->getPointee());
      else if (const auto *F = dyn_cast<FunctionType>(Callee->getType()))
        FT = F; // (*fp)(...) after deref
      if (!FT) {
        error(Call->getLoc(), "called object is not a function");
        return nullptr;
      }
    }
    Call->setCallee(Callee);
    Call->setCalleeFnType(FT);

    const auto &Params = FT->getParams();
    const auto &Args = Call->getArgs();
    if (Args.size() < Params.size() ||
        (Args.size() > Params.size() && !FT->isVariadic())) {
      error(Call->getLoc(),
            formatString("call expects %zu argument(s), got %zu",
                         Params.size(), Args.size()));
      return nullptr;
    }
    for (size_t I = 0; I != Args.size(); ++I) {
      Expr *Arg = check(Args[I]);
      if (!Arg)
        return nullptr;
      if (I < Params.size())
        Arg = coerce(Arg, Params[I]);
      else
        Arg = decay(Arg); // varargs: pass as-is
      Call->setArg(I, Arg);
    }
    Call->setType(FT->getReturnType());
    return Call;
  }

  Expr *checkIndex(IndexExpr *Ix) {
    Expr *Base = check(Ix->getBase());
    Expr *Idx = check(Ix->getIdx());
    if (!Base || !Idx)
      return nullptr;
    Base = decay(Base);
    const auto *PT = dyn_cast<PointerType>(Base->getType());
    if (!PT || !isSizedPointer(PT)) {
      error(Ix->getLoc(), "subscripted value is not a pointer or array of "
                          "sized elements");
      return nullptr;
    }
    Ix->setBase(Base);
    Ix->setIdx(coerce(Idx, Ctx.getInt64()));
    Ix->setType(PT->getPointee());
    Ix->setLValue(true);
    return Ix;
  }

  Expr *checkMember(MemberExpr *M) {
    Expr *Base = check(M->getBase());
    if (!Base)
      return nullptr;
    const RecordType *R = nullptr;
    if (M->isArrow()) {
      Base = decay(Base);
      const auto *PT = dyn_cast<PointerType>(Base->getType());
      if (PT)
        R = dyn_cast<RecordType>(PT->getPointee());
    } else {
      R = dyn_cast<RecordType>(Base->getType());
    }
    if (!R || !R->isComplete()) {
      error(M->getLoc(), "member access on a non-record or incomplete type");
      return nullptr;
    }
    const auto &Fields = R->getFields();
    for (unsigned I = 0; I != Fields.size(); ++I) {
      if (Fields[I].Name == M->getField()) {
        M->setBase(Base);
        M->setResolved(R, I);
        M->setType(Fields[I].FieldType);
        M->setLValue(true);
        return M;
      }
    }
    error(M->getLoc(), "no field named '" + M->getField() + "' in record '" +
                           R->getTag() + "'");
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Statement checking
  //===--------------------------------------------------------------------===//

  void checkStmt(Stmt *S) {
    switch (S->getKind()) {
    case StmtKind::Block: {
      Scopes.emplace_back();
      for (Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        checkStmt(Sub);
      Scopes.pop_back();
      return;
    }
    case StmtKind::Decl: {
      VarDecl *V = cast<DeclStmt>(S)->getDecl();
      requireSized(V);
      if (V->getInit()) {
        Expr *Init = check(V->getInit());
        if (Init)
          V->setInit(coerce(Init, V->getType()));
      }
      Scopes.back()[V->getName()] = V;
      return;
    }
    case StmtKind::Expr: {
      auto *ES = cast<ExprStmt>(S);
      if (Expr *E = check(ES->getExpr()))
        ES->setExpr(E);
      return;
    }
    case StmtKind::If: {
      auto *If = cast<IfStmt>(S);
      if (Expr *C = check(If->getCond()))
        If->setCond(decay(C));
      checkStmt(If->getThen());
      if (If->getElse())
        checkStmt(If->getElse());
      return;
    }
    case StmtKind::While:
    case StmtKind::DoWhile: {
      auto *W = cast<WhileStmt>(S);
      if (Expr *C = check(W->getCond()))
        W->setCond(decay(C));
      checkStmt(W->getBody());
      return;
    }
    case StmtKind::For: {
      auto *F = cast<ForStmt>(S);
      Scopes.emplace_back();
      if (F->getInit())
        checkStmt(F->getInit());
      if (F->getCond())
        if (Expr *C = check(F->getCond()))
          F->setCond(decay(C));
      if (F->getInc())
        if (Expr *I = check(F->getInc()))
          F->setInc(I);
      checkStmt(F->getBody());
      Scopes.pop_back();
      return;
    }
    case StmtKind::Return: {
      auto *R = cast<ReturnStmt>(S);
      const Type *RetTy = CurFunc->getType()->getReturnType();
      if (R->getValue()) {
        if (RetTy->isVoid()) {
          error(R->getLoc(), "void function returns a value");
          return;
        }
        if (Expr *V = check(R->getValue()))
          R->setValue(coerce(V, RetTy));
      } else if (!RetTy->isVoid()) {
        error(R->getLoc(), "non-void function returns without a value");
      }
      return;
    }
    case StmtKind::Break:
    case StmtKind::Continue:
      return;
    case StmtKind::Switch: {
      auto *Sw = cast<SwitchStmt>(S);
      if (Expr *C = check(Sw->getCond()))
        Sw->setCond(coerce(C, Ctx.getInt64()));
      unsigned Defaults = 0;
      std::unordered_set<int64_t> Seen;
      for (SwitchArm &Arm : Sw->getArms()) {
        if (!Arm.Value)
          ++Defaults;
        else if (!Seen.insert(*Arm.Value).second)
          error(Sw->getLoc(), "duplicate case value");
        for (Stmt *Sub : Arm.Stmts)
          checkStmt(Sub);
      }
      if (Defaults > 1)
        error(Sw->getLoc(), "multiple default arms in switch");
      return;
    }
    case StmtKind::Goto:
      Gotos.emplace_back(cast<GotoStmt>(S)->getLabel(), S->getLoc());
      return;
    case StmtKind::Label: {
      auto *L = cast<LabelStmt>(S);
      if (!Labels.insert(L->getName()).second)
        error(L->getLoc(), "duplicate label '" + L->getName() + "'");
      return;
    }
    case StmtKind::Asm: {
      auto *A = cast<AsmStmt>(S);
      for (AsmAnnotation &Ann : A->getAnnotations()) {
        // The annotated symbol is used by code the analyses cannot see;
        // a builtin it names is declared like any other use.
        findOrDeclareFunction(Ann.Symbol);
        std::string Err;
        Ann.AnnotatedType = parseType(Ann.TypeText, Ctx, &Err);
        if (!Ann.AnnotatedType)
          error(A->getLoc(), "bad asm type annotation: " + Err);
      }
      return;
    }
    }
    mcfi_unreachable("covered switch");
  }

  Program &Prog;
  TypeContext &Ctx;
  std::vector<std::string> &Errors;
  std::vector<Scope> Scopes;
  FuncDecl *CurFunc = nullptr;
  std::unordered_set<std::string> Labels;
  std::vector<std::pair<std::string, SourceLoc>> Gotos;
  bool HadError = false;
};

} // namespace

bool mcfi::minic::analyze(Program &Prog, std::vector<std::string> &Errors) {
  return SemaImpl(Prog, Errors).run();
}
