//===- minic/AST.h - MiniC abstract syntax tree -----------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniC AST. Nodes are owned by a Program arena. Semantic analysis
/// (Sema) annotates every expression with its C type and inserts explicit
/// ImplicitCast nodes wherever a conversion happens — those nodes are
/// what the C1 analyzer (paper Sec. 6) inspects for casts involving
/// function-pointer types.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_MINIC_AST_H
#define MCFI_MINIC_AST_H

#include "ctypes/Type.h"
#include "minic/Lexer.h"
#include "support/Casting.h"

#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace mcfi {
namespace minic {

class Expr;
class Stmt;
class FuncDecl;
class VarDecl;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  NameRef,
  StrLit,
  VarRef,
  FuncRef,
  Unary,
  Binary,
  Assign,
  Cond,
  Call,
  Index,
  Member,
  Cast,
  SizeofType,
};

/// Base class of all expressions. After Sema, getType() is non-null.
class Expr {
public:
  virtual ~Expr();

  ExprKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

  const Type *getType() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  bool isLValue() const { return LValue; }
  void setLValue(bool V) { LValue = V; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
  const Type *Ty = nullptr;
  bool LValue = false;
};

/// Integer or character literal. IsNull marks the NULL keyword, which the
/// analyzer's SU (safe-update) rule treats specially.
class IntLitExpr : public Expr {
public:
  IntLitExpr(SourceLoc Loc, int64_t Value, bool IsNull = false)
      : Expr(ExprKind::IntLit, Loc), Value(Value), Null(IsNull) {}

  int64_t getValue() const { return Value; }
  bool isNull() const { return Null; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::IntLit;
  }

private:
  int64_t Value;
  bool Null;
};

/// String literal; type char*.
class StrLitExpr : public Expr {
public:
  StrLitExpr(SourceLoc Loc, std::string Value)
      : Expr(ExprKind::StrLit, Loc), Value(std::move(Value)) {}

  const std::string &getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::StrLit;
  }

private:
  std::string Value;
};

/// An unresolved identifier reference produced by the parser; Sema
/// resolves it to a VarRefExpr or FuncRefExpr.
class NameRefExpr : public Expr {
public:
  NameRefExpr(SourceLoc Loc, std::string Name)
      : Expr(ExprKind::NameRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::NameRef;
  }

private:
  std::string Name;
};

/// Reference to a variable or parameter.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, VarDecl *Decl)
      : Expr(ExprKind::VarRef, Loc), Decl(Decl) {}

  VarDecl *getDecl() const { return Decl; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::VarRef;
  }

private:
  VarDecl *Decl;
};

/// Reference to a function. When used outside a direct-call position the
/// function designator decays to a pointer and the function becomes
/// address-taken (which is exactly the set of legal indirect-call targets
/// in the paper's CFG generation).
class FuncRefExpr : public Expr {
public:
  FuncRefExpr(SourceLoc Loc, FuncDecl *Decl)
      : Expr(ExprKind::FuncRef, Loc), Decl(Decl) {}

  FuncDecl *getDecl() const { return Decl; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::FuncRef;
  }

private:
  FuncDecl *Decl;
};

enum class UnaryOp : uint8_t { Neg, LogicalNot, BitNot, Deref, AddrOf };

class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Sub)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}

  UnaryOp getOp() const { return Op; }
  Expr *getSub() const { return Sub; }
  void setSub(Expr *E) { Sub = E; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  Expr *Sub;
};

enum class BinaryOp : uint8_t {
  Add, Sub, Mul, Div, Mod,
  And, Or, Xor, Shl, Shr,
  Eq, Ne, Lt, Le, Gt, Ge,
  LogicalAnd, LogicalOr,
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Binary;
  }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// Simple assignment; compound assignments are desugared by the parser.
class AssignExpr : public Expr {
public:
  AssignExpr(SourceLoc Loc, Expr *LHS, Expr *RHS)
      : Expr(ExprKind::Assign, Loc), LHS(LHS), RHS(RHS) {}

  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Assign;
  }

private:
  Expr *LHS;
  Expr *RHS;
};

/// The ?: conditional operator.
class CondExpr : public Expr {
public:
  CondExpr(SourceLoc Loc, Expr *Cond, Expr *Then, Expr *Else)
      : Expr(ExprKind::Cond, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *getCond() const { return Cond; }
  Expr *getThen() const { return Then; }
  Expr *getElse() const { return Else; }
  void setCond(Expr *E) { Cond = E; }
  void setThen(Expr *E) { Then = E; }
  void setElse(Expr *E) { Else = E; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Cond; }

private:
  Expr *Cond;
  Expr *Then;
  Expr *Else;
};

/// Function call. After Sema, isDirect() distinguishes direct calls
/// (callee is a FuncRef) from calls through function pointers — the
/// latter are the indirect-call sites MCFI instruments.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, Expr *Callee, std::vector<Expr *> Args)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}

  Expr *getCallee() const { return Callee; }
  void setCallee(Expr *E) { Callee = E; }
  const std::vector<Expr *> &getArgs() const { return Args; }
  void setArg(size_t I, Expr *E) { Args[I] = E; }

  /// Direct call: callee is a plain function reference.
  bool isDirect() const { return isa<FuncRefExpr>(Callee); }

  /// For direct calls, the callee declaration.
  FuncDecl *getDirectCallee() const {
    return cast<FuncRefExpr>(Callee)->getDecl();
  }

  /// The function type invoked (set by Sema: the pointee type for
  /// indirect calls, the function type for direct calls).
  const FunctionType *getCalleeFnType() const { return FnTy; }
  void setCalleeFnType(const FunctionType *T) { FnTy = T; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Call; }

private:
  Expr *Callee;
  std::vector<Expr *> Args;
  const FunctionType *FnTy = nullptr;
};

/// Array indexing base[idx].
class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, Expr *Base, Expr *Idx)
      : Expr(ExprKind::Index, Loc), Base(Base), Idx(Idx) {}

  Expr *getBase() const { return Base; }
  Expr *getIdx() const { return Idx; }
  void setBase(Expr *E) { Base = E; }
  void setIdx(Expr *E) { Idx = E; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Index; }

private:
  Expr *Base;
  Expr *Idx;
};

/// Member access: base.field or base->field.
class MemberExpr : public Expr {
public:
  MemberExpr(SourceLoc Loc, Expr *Base, std::string Field, bool Arrow)
      : Expr(ExprKind::Member, Loc), Base(Base), Field(std::move(Field)),
        Arrow(Arrow) {}

  Expr *getBase() const { return Base; }
  void setBase(Expr *E) { Base = E; }
  const std::string &getField() const { return Field; }
  bool isArrow() const { return Arrow; }

  /// Set by Sema: the record accessed and the field's index within it.
  const RecordType *getRecord() const { return Record; }
  unsigned getFieldIndex() const { return FieldIndex; }
  void setResolved(const RecordType *R, unsigned Index) {
    Record = R;
    FieldIndex = Index;
  }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Member;
  }

private:
  Expr *Base;
  std::string Field;
  bool Arrow;
  const RecordType *Record = nullptr;
  unsigned FieldIndex = 0;
};

/// A cast. Explicit casts come from the parser; Sema materializes every
/// implicit conversion as a CastExpr with Implicit=true so the C1
/// analyzer sees *all* conversions, as LLVM's IR makes them explicit for
/// the paper's checker.
class CastExpr : public Expr {
public:
  CastExpr(SourceLoc Loc, const Type *To, Expr *Sub, bool Implicit)
      : Expr(ExprKind::Cast, Loc), Sub(Sub), Implicit(Implicit) {
    setType(To);
  }

  Expr *getSub() const { return Sub; }
  void setSub(Expr *E) { Sub = E; }
  bool isImplicit() const { return Implicit; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Cast; }

private:
  Expr *Sub;
  bool Implicit;
};

/// sizeof(type-name).
class SizeofExpr : public Expr {
public:
  SizeofExpr(SourceLoc Loc, const Type *Operand)
      : Expr(ExprKind::SizeofType, Loc), Operand(Operand) {}

  const Type *getOperand() const { return Operand; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::SizeofType;
  }

private:
  const Type *Operand;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  Decl,
  Expr,
  If,
  While,
  DoWhile,
  For,
  Return,
  Break,
  Continue,
  Switch,
  Goto,
  Label,
  Asm,
};

class Stmt {
public:
  virtual ~Stmt();

  StmtKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
};

class BlockStmt : public Stmt {
public:
  BlockStmt(SourceLoc Loc, std::vector<Stmt *> Stmts)
      : Stmt(StmtKind::Block, Loc), Stmts(std::move(Stmts)) {}

  const std::vector<Stmt *> &getStmts() const { return Stmts; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Block; }

private:
  std::vector<Stmt *> Stmts;
};

class DeclStmt : public Stmt {
public:
  DeclStmt(SourceLoc Loc, VarDecl *Decl)
      : Stmt(StmtKind::Decl, Loc), Decl(Decl) {}

  VarDecl *getDecl() const { return Decl; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Decl; }

private:
  VarDecl *Decl;
};

class ExprStmt : public Stmt {
public:
  ExprStmt(SourceLoc Loc, Expr *E) : Stmt(StmtKind::Expr, Loc), E(E) {}

  Expr *getExpr() const { return E; }
  void setExpr(Expr *NewE) { E = NewE; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Expr; }

private:
  Expr *E;
};

class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *getCond() const { return Cond; }
  void setCond(Expr *E) { Cond = E; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; } ///< may be null

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body, bool IsDoWhile)
      : Stmt(IsDoWhile ? StmtKind::DoWhile : StmtKind::While, Loc), Cond(Cond),
        Body(Body) {}

  Expr *getCond() const { return Cond; }
  void setCond(Expr *E) { Cond = E; }
  Stmt *getBody() const { return Body; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::While || S->getKind() == StmtKind::DoWhile;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, Stmt *Init, Expr *Cond, Expr *Inc, Stmt *Body)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Inc(Inc),
        Body(Body) {}

  Stmt *getInit() const { return Init; } ///< may be null
  Expr *getCond() const { return Cond; } ///< may be null
  Expr *getInc() const { return Inc; }   ///< may be null
  Stmt *getBody() const { return Body; }
  void setCond(Expr *E) { Cond = E; }
  void setInc(Expr *E) { Inc = E; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Inc;
  Stmt *Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, Expr *Value)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}

  Expr *getValue() const { return Value; } ///< may be null
  void setValue(Expr *E) { Value = E; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Return;
  }

private:
  Expr *Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}
  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Continue;
  }
};

/// One arm of a switch: either a case with a constant value or the
/// default arm. Arms fall through in order, as in C.
struct SwitchArm {
  std::optional<int64_t> Value; ///< nullopt = default
  std::vector<Stmt *> Stmts;
};

/// switch statement. Dense switches lower to jump tables — the
/// intraprocedural indirect jumps of Sec. 6.
class SwitchStmt : public Stmt {
public:
  SwitchStmt(SourceLoc Loc, Expr *Cond, std::vector<SwitchArm> Arms)
      : Stmt(StmtKind::Switch, Loc), Cond(Cond), Arms(std::move(Arms)) {}

  Expr *getCond() const { return Cond; }
  void setCond(Expr *E) { Cond = E; }
  const std::vector<SwitchArm> &getArms() const { return Arms; }
  std::vector<SwitchArm> &getArms() { return Arms; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Switch;
  }

private:
  Expr *Cond;
  std::vector<SwitchArm> Arms;
};

class GotoStmt : public Stmt {
public:
  GotoStmt(SourceLoc Loc, std::string Label)
      : Stmt(StmtKind::Goto, Loc), Label(std::move(Label)) {}

  const std::string &getLabel() const { return Label; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Goto; }

private:
  std::string Label;
};

class LabelStmt : public Stmt {
public:
  LabelStmt(SourceLoc Loc, std::string Name)
      : Stmt(StmtKind::Label, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Label; }

private:
  std::string Name;
};

/// One type annotation attached to an __asm__ block (paper Sec. 6:
/// violations of C2 require adding type annotations so the same
/// type-matching approach covers the assembly's functions and function
/// pointers).
struct AsmAnnotation {
  std::string Symbol;
  std::string TypeText;
  const Type *AnnotatedType = nullptr; ///< resolved by Sema
};

/// __asm__("text") or __asm__("text" : sym1 = "type1", ...).
class AsmStmt : public Stmt {
public:
  AsmStmt(SourceLoc Loc, std::string Text,
          std::vector<AsmAnnotation> Annotations)
      : Stmt(StmtKind::Asm, Loc), Text(std::move(Text)),
        Annotations(std::move(Annotations)) {}

  const std::string &getText() const { return Text; }
  const std::vector<AsmAnnotation> &getAnnotations() const {
    return Annotations;
  }
  std::vector<AsmAnnotation> &getAnnotations() { return Annotations; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Asm; }

private:
  std::string Text;
  std::vector<AsmAnnotation> Annotations;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A variable: global, local, or parameter.
class VarDecl {
public:
  VarDecl(SourceLoc Loc, std::string Name, const Type *Ty, bool Global)
      : Loc(Loc), Name(std::move(Name)), Ty(Ty), Global(Global) {}

  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }
  const Type *getType() const { return Ty; }
  bool isGlobal() const { return Global; }

  Expr *getInit() const { return Init; }
  void setInit(Expr *E) { Init = E; }

private:
  SourceLoc Loc;
  std::string Name;
  const Type *Ty;
  bool Global;
  Expr *Init = nullptr;
};

/// The runtime services MiniC exposes as builtin functions; calls to
/// them compile to VM syscalls (the runtime's syscall-interposition API,
/// paper Sec. 7).
enum class BuiltinKind : uint8_t {
  None,
  Malloc,
  Free,
  Setjmp,
  Longjmp,
  Signal,
  Raise,
  PrintInt,
  PrintStr,
  Exit,
  Dlopen,
  Dlsym,
  Dlclose,
};

/// A function declaration or definition.
class FuncDecl {
public:
  FuncDecl(SourceLoc Loc, std::string Name, const FunctionType *Ty,
           std::vector<VarDecl *> Params)
      : Loc(Loc), Name(std::move(Name)), Ty(Ty), Params(std::move(Params)) {}

  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }
  const FunctionType *getType() const { return Ty; }
  const std::vector<VarDecl *> &getParams() const { return Params; }

  BlockStmt *getBody() const { return Body; }
  void setBody(BlockStmt *B) { Body = B; }
  bool isDefined() const { return Body != nullptr; }

  BuiltinKind getBuiltin() const { return Builtin; }
  void setBuiltin(BuiltinKind K) { Builtin = K; }
  bool isBuiltin() const { return Builtin != BuiltinKind::None; }

  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

private:
  SourceLoc Loc;
  std::string Name;
  const FunctionType *Ty;
  std::vector<VarDecl *> Params;
  BlockStmt *Body = nullptr;
  BuiltinKind Builtin = BuiltinKind::None;
  bool AddressTaken = false;
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// A parsed translation unit. Owns all AST nodes and the TypeContext the
/// module's types live in.
class Program {
public:
  Program() : Types(std::make_unique<TypeContext>()) {}
  ~Program();
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  TypeContext &getTypes() { return *Types; }

  /// Creates and owns an expression node.
  template <typename T, typename... Args> T *makeExpr(Args &&...As) {
    return own<T>(Exprs, std::forward<Args>(As)...);
  }

  /// Creates and owns a statement node.
  template <typename T, typename... Args> T *makeStmt(Args &&...As) {
    return own<T>(Stmts, std::forward<Args>(As)...);
  }

  VarDecl *makeVar(SourceLoc Loc, std::string Name, const Type *Ty,
                   bool Global) {
    return own<VarDecl>(Vars, Loc, std::move(Name), Ty, Global);
  }

  FuncDecl *makeFunc(SourceLoc Loc, std::string Name, const FunctionType *Ty,
                     std::vector<VarDecl *> Params) {
    return own<FuncDecl>(Funcs, Loc, std::move(Name), Ty, std::move(Params));
  }

  std::vector<FuncDecl *> Functions; ///< in declaration order
  std::vector<VarDecl *> Globals;    ///< in declaration order

  /// Finds a function by name, or nullptr.
  FuncDecl *findFunction(const std::string &Name) const {
    for (FuncDecl *F : Functions)
      if (F->getName() == Name)
        return F;
    return nullptr;
  }

private:
  /// Constructs a node in the arena and records it in \p List, whose
  /// entries ~Program destroys.
  template <typename T, typename Base, typename... Args>
  T *own(std::vector<Base *> &List, Args &&...As) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (List.size() == List.capacity()) // so the push_back cannot throw
      List.reserve(2 * List.size() + 16);
    T *Node = new (allocate(sizeof(T))) T(std::forward<Args>(As)...);
    List.push_back(Node);
    return Node;
  }

  /// Bump-allocates \p Size bytes: nodes share arena blocks instead of
  /// taking one heap allocation each.
  void *allocate(size_t Size);

  std::unique_ptr<TypeContext> Types;
  /// Arena blocks: a new[] byte array provides storage for any object of
  /// fundamental alignment at offsets that are multiples of it.
  std::vector<std::unique_ptr<std::byte[]>> Blocks;
  size_t BlockUsed = 0, BlockSize = 0; ///< bytes of Blocks.back()
  std::vector<Expr *> Exprs;
  std::vector<Stmt *> Stmts;
  std::vector<VarDecl *> Vars;
  std::vector<FuncDecl *> Funcs;
};

} // namespace minic
} // namespace mcfi

#endif // MCFI_MINIC_AST_H
