//===- minic/Parser.cpp - MiniC parser -------------------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/Parser.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

/// Two's-complement negation, defined for INT64_MIN too: literals come
/// from untrusted source and wrap modulo 2^64.
int64_t negate(int64_t V) {
  return static_cast<int64_t>(-static_cast<uint64_t>(V));
}

/// A parsed declarator: the declared name plus the full type after
/// applying pointer/array/function derivations to a base type.
struct Declarator {
  std::string Name;
  const Type *Ty = nullptr;
  /// If the declarator is a function declarator (e.g. "f(int a, int b)"),
  /// the parameter declarations in order.
  std::vector<std::pair<std::string, const Type *>> Params;
  bool IsFunction = false;
  bool Variadic = false;
  std::vector<SourceLoc> ParamLocs;
};

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Tokens, std::vector<std::string> &Errors)
      : Tokens(std::move(Tokens)), Errors(Errors),
        Prog(std::make_unique<Program>()) {}

  std::unique_ptr<Program> run() {
    while (!at(TokKind::Eof)) {
      if (!parseTopLevel())
        return nullptr;
    }
    return HadError ? nullptr : std::move(Prog);
  }

private:
  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  bool at(TokKind K) const { return peek().Kind == K; }

  const Token &advance() {
    return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos];
  }

  bool consumeIf(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (consumeIf(K))
      return true;
    error(formatString("expected %s", What));
    return false;
  }

  void error(const std::string &Msg) {
    HadError = true;
    Errors.push_back(
        formatString("line %u: %s", peek().Loc.Line, Msg.c_str()));
  }

  SourceLoc loc() const { return peek().Loc; }

  //===--------------------------------------------------------------------===//
  // Nesting bound
  //===--------------------------------------------------------------------===//

  /// The deepest nesting the parser accepts. A statement, a declarator, a
  /// record body and an expression level (a unary operator, cast or
  /// parenthesis, and each operator of a binary, postfix, assignment or
  /// conditional chain) count one level each. Sema and lowering recurse
  /// over the tree built here, so this one bound keeps all three inside
  /// the host stack on any source. The workload profiles, rt and the
  /// examples nest at most 10 levels deep.
  static constexpr unsigned MaxNesting = 256;

  /// The levels one parse function enters; it leaves them on return.
  class Nesting {
  public:
    explicit Nesting(ParserImpl &P) : P(P) {}
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;
    ~Nesting() { P.Depth -= Levels; }

    /// Enters one more level; false, with a parse error, past MaxNesting.
    bool deepen() {
      ++Levels;
      if (++P.Depth <= MaxNesting)
        return true;
      P.error(formatString("nesting deeper than %u levels", MaxNesting));
      return false;
    }

  private:
    ParserImpl &P;
    unsigned Levels = 0;
  };

  //===--------------------------------------------------------------------===//
  // Types and declarators
  //===--------------------------------------------------------------------===//

  bool atTypeStart() const {
    switch (peek().Kind) {
    case TokKind::KwVoid:
    case TokKind::KwChar:
    case TokKind::KwShort:
    case TokKind::KwInt:
    case TokKind::KwLong:
    case TokKind::KwUnsigned:
    case TokKind::KwFloat:
    case TokKind::KwDouble:
    case TokKind::KwStruct:
    case TokKind::KwUnion:
    case TokKind::KwEnum:
    case TokKind::KwConst:
      return true;
    case TokKind::Ident:
      return Typedefs.count(peek().Text) != 0;
    default:
      return false;
    }
  }

  /// Parses a declaration specifier (the base type).
  const Type *parseDeclSpec() {
    TypeContext &Ctx = Prog->getTypes();
    consumeIf(TokKind::KwConst); // const is accepted and ignored
    bool Unsigned = consumeIf(TokKind::KwUnsigned);
    switch (peek().Kind) {
    case TokKind::KwVoid:
      advance();
      return Ctx.getVoid();
    case TokKind::KwChar:
      advance();
      return Ctx.getInt(8, !Unsigned);
    case TokKind::KwShort:
      advance();
      return Ctx.getInt(16, !Unsigned);
    case TokKind::KwInt:
      advance();
      return Ctx.getInt(32, !Unsigned);
    case TokKind::KwLong:
      advance();
      consumeIf(TokKind::KwLong); // accept "long long"
      return Ctx.getInt(64, !Unsigned);
    case TokKind::KwFloat:
      advance();
      return Ctx.getFloat(32);
    case TokKind::KwDouble:
      advance();
      return Ctx.getFloat(64);
    case TokKind::KwStruct:
    case TokKind::KwUnion: {
      bool IsUnion = peek().Kind == TokKind::KwUnion;
      advance();
      if (!at(TokKind::Ident)) {
        error("expected record tag");
        return nullptr;
      }
      std::string Tag = advance().Text;
      RecordType *R = Ctx.getRecord(Tag, IsUnion);
      if (at(TokKind::LBrace)) {
        if (!parseRecordBody(R))
          return nullptr;
      }
      return R;
    }
    case TokKind::KwEnum: {
      advance();
      if (at(TokKind::Ident))
        advance(); // tag ignored: enums are int
      if (at(TokKind::LBrace)) {
        advance();
        int64_t Next = 0;
        while (!at(TokKind::RBrace)) {
          if (!at(TokKind::Ident)) {
            error("expected enumerator name");
            return nullptr;
          }
          std::string Name = advance().Text;
          if (consumeIf(TokKind::Assign)) {
            bool Negative = consumeIf(TokKind::Minus);
            if (!at(TokKind::IntLit)) {
              error("expected enumerator value");
              return nullptr;
            }
            Next = Negative ? negate(advance().IntValue) : advance().IntValue;
          }
          EnumConstants[Name] = Next;
          Next = static_cast<int64_t>(static_cast<uint64_t>(Next) + 1);
          if (!consumeIf(TokKind::Comma))
            break;
        }
        if (!expect(TokKind::RBrace, "'}' after enumerators"))
          return nullptr;
      }
      return Ctx.getInt32();
    }
    case TokKind::Ident: {
      auto It = Typedefs.find(peek().Text);
      if (It != Typedefs.end()) {
        advance();
        return It->second;
      }
      error("unknown type name '" + peek().Text + "'");
      return nullptr;
    }
    default:
      if (Unsigned)
        return Ctx.getInt(32, false);
      error("expected type");
      return nullptr;
    }
  }

  bool parseRecordBody(RecordType *R) {
    Nesting N(*this);
    if (!N.deepen())
      return false;
    advance(); // '{'
    if (R->isComplete()) {
      error("redefinition of record '" + R->getTag() + "'");
      return false;
    }
    std::vector<RecordField> Fields;
    while (!at(TokKind::RBrace)) {
      const Type *Base = parseDeclSpec();
      if (!Base)
        return false;
      for (;;) {
        Declarator D;
        if (!parseDeclarator(Base, D, /*RequireName=*/true))
          return false;
        if (D.IsFunction) {
          error("record field cannot have bare function type");
          return false;
        }
        Fields.push_back({D.Name, D.Ty});
        if (!consumeIf(TokKind::Comma))
          break;
      }
      if (!expect(TokKind::Semi, "';' after field"))
        return false;
    }
    advance(); // '}'
    R->setFields(std::move(Fields));
    return true;
  }

  /// Parses a parameter list after '(' up to and including ')'.
  bool parseParamList(Declarator &D) {
    TypeContext &Ctx = Prog->getTypes();
    if (consumeIf(TokKind::RParen))
      return true;
    if (at(TokKind::KwVoid) && peek(1).Kind == TokKind::RParen) {
      advance();
      advance();
      return true;
    }
    for (;;) {
      if (consumeIf(TokKind::Ellipsis)) {
        D.Variadic = true;
        break;
      }
      const Type *Base = parseDeclSpec();
      if (!Base)
        return false;
      Declarator P;
      if (!parseDeclarator(Base, P, /*RequireName=*/false))
        return false;
      // Arrays decay to pointers in parameter position.
      if (const auto *AT = dyn_cast<ArrayType>(P.Ty))
        P.Ty = Ctx.getPointer(AT->getElement());
      D.ParamLocs.push_back(loc());
      D.Params.emplace_back(P.Name, P.Ty);
      if (!consumeIf(TokKind::Comma))
        break;
    }
    return expect(TokKind::RParen, "')' after parameters");
  }

  /// Parses a declarator over \p Base:
  ///   '*'* ( IDENT | '(' '*' IDENT? ('[' N ']')? ')' '(' params ')' )
  ///   ('[' N ']' | '(' params ')')?
  bool parseDeclarator(const Type *Base, Declarator &D, bool RequireName) {
    Nesting N(*this);
    if (!N.deepen())
      return false;
    TypeContext &Ctx = Prog->getTypes();
    const Type *T = Base;
    while (consumeIf(TokKind::Star)) {
      consumeIf(TokKind::KwConst);
      T = Ctx.getPointer(T);
    }

    // Function-pointer declarator: (*name)(params), (*name[N])(params),
    // or with extra indirection levels, (**name)(params) etc.
    if (at(TokKind::LParen) && peek(1).Kind == TokKind::Star) {
      advance(); // '('
      advance(); // '*'
      unsigned ExtraStars = 0;
      while (consumeIf(TokKind::Star))
        ++ExtraStars;
      if (at(TokKind::Ident))
        D.Name = advance().Text;
      else if (RequireName) {
        error("expected name in function-pointer declarator");
        return false;
      }
      uint64_t ArrayCount = 0;
      bool IsArray = false;
      if (consumeIf(TokKind::LBracket)) {
        if (!at(TokKind::IntLit)) {
          error("expected array bound");
          return false;
        }
        ArrayCount = static_cast<uint64_t>(advance().IntValue);
        IsArray = true;
        if (!expect(TokKind::RBracket, "']'"))
          return false;
      }
      if (!expect(TokKind::RParen, "')' in function-pointer declarator") ||
          !expect(TokKind::LParen, "'(' starting parameter list"))
        return false;
      Declarator Inner;
      if (!parseParamList(Inner))
        return false;
      std::vector<const Type *> ParamTys;
      for (auto &[Name, Ty] : Inner.Params)
        ParamTys.push_back(Ty);
      const Type *FnPtr = Ctx.getPointer(
          Ctx.getFunction(T, std::move(ParamTys), Inner.Variadic));
      for (unsigned S = 0; S != ExtraStars; ++S)
        FnPtr = Ctx.getPointer(FnPtr);
      D.Ty = IsArray ? static_cast<const Type *>(Ctx.getArray(FnPtr, ArrayCount))
                     : FnPtr;
      return true;
    }

    if (at(TokKind::Ident))
      D.Name = advance().Text;
    else if (RequireName) {
      error("expected declarator name");
      return false;
    }

    if (consumeIf(TokKind::LBracket)) {
      if (!at(TokKind::IntLit)) {
        error("expected array bound");
        return false;
      }
      uint64_t N = static_cast<uint64_t>(advance().IntValue);
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      D.Ty = Ctx.getArray(T, N);
      return true;
    }

    if (at(TokKind::LParen)) {
      advance();
      if (!parseParamList(D))
        return false;
      D.IsFunction = true;
      std::vector<const Type *> ParamTys;
      for (auto &[Name, Ty] : D.Params)
        ParamTys.push_back(Ty);
      D.Ty = Ctx.getFunction(T, std::move(ParamTys), D.Variadic);
      return true;
    }

    D.Ty = T;
    return true;
  }

  /// Parses a type-name (declaration specifier + abstract declarator),
  /// as used in casts and sizeof.
  const Type *parseTypeName() {
    const Type *Base = parseDeclSpec();
    if (!Base)
      return nullptr;
    Declarator D;
    if (!parseDeclarator(Base, D, /*RequireName=*/false))
      return nullptr;
    if (!D.Name.empty())
      error("unexpected name in type-name");
    if (D.IsFunction)
      return Prog->getTypes().getPointer(D.Ty); // fn type-name decays
    return D.Ty;
  }

  //===--------------------------------------------------------------------===//
  // Top level
  //===--------------------------------------------------------------------===//

  bool parseTopLevel() {
    if (consumeIf(TokKind::KwTypedef)) {
      const Type *Base = parseDeclSpec();
      if (!Base)
        return false;
      Declarator D;
      if (!parseDeclarator(Base, D, /*RequireName=*/true))
        return false;
      const Type *T = D.Ty;
      if (D.IsFunction)
        T = Prog->getTypes().getPointer(D.Ty);
      Typedefs[D.Name] = T;
      return expect(TokKind::Semi, "';' after typedef");
    }

    consumeIf(TokKind::KwStatic); // accepted and ignored

    const Type *Base = parseDeclSpec();
    if (!Base)
      return false;

    // Bare record/enum declaration: "struct S { ... };"
    if (consumeIf(TokKind::Semi))
      return true;

    Declarator D;
    if (!parseDeclarator(Base, D, /*RequireName=*/true))
      return false;

    if (D.IsFunction) {
      FuncDecl *Existing = Prog->findFunction(D.Name);
      std::vector<VarDecl *> Params;
      for (auto &[Name, Ty] : D.Params)
        Params.push_back(Prog->makeVar(loc(), Name, Ty, /*Global=*/false));
      FuncDecl *F;
      if (Existing) {
        if (Existing->getType() != D.Ty) {
          error("conflicting declaration of '" + D.Name + "'");
          return false;
        }
        F = Existing;
      } else {
        F = Prog->makeFunc(loc(), D.Name, cast<FunctionType>(D.Ty),
                           std::move(Params));
        Prog->Functions.push_back(F);
      }
      if (at(TokKind::LBrace)) {
        if (F->isDefined()) {
          error("redefinition of function '" + D.Name + "'");
          return false;
        }
        if (Existing) {
          // Rebind parameter declarations from the defining declaration.
          std::vector<VarDecl *> DefParams;
          for (auto &[Name, Ty] : D.Params)
            DefParams.push_back(
                Prog->makeVar(loc(), Name, Ty, /*Global=*/false));
          F = Prog->makeFunc(F->getLoc(), D.Name, F->getType(),
                             std::move(DefParams));
          // Replace the prototype in place so lookups see the definition.
          for (FuncDecl *&Slot : Prog->Functions)
            if (Slot == Existing)
              Slot = F;
        }
        BlockStmt *Body = parseBlock();
        if (!Body)
          return false;
        F->setBody(Body);
        return true;
      }
      return expect(TokKind::Semi, "';' after function declaration");
    }

    // Global variable(s).
    for (;;) {
      VarDecl *V = Prog->makeVar(loc(), D.Name, D.Ty, /*Global=*/true);
      if (consumeIf(TokKind::Assign)) {
        Expr *Init = parseAssignment();
        if (!Init)
          return false;
        V->setInit(Init);
      }
      Prog->Globals.push_back(V);
      if (!consumeIf(TokKind::Comma))
        break;
      D = Declarator();
      if (!parseDeclarator(Base, D, /*RequireName=*/true))
        return false;
    }
    return expect(TokKind::Semi, "';' after declaration");
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  BlockStmt *parseBlock() {
    SourceLoc L = loc();
    if (!expect(TokKind::LBrace, "'{'"))
      return nullptr;
    std::vector<Stmt *> Stmts;
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      Stmt *S = parseStmt();
      if (!S)
        return nullptr;
      Stmts.push_back(S);
    }
    if (!expect(TokKind::RBrace, "'}'"))
      return nullptr;
    return Prog->makeStmt<BlockStmt>(L, std::move(Stmts));
  }

  Stmt *parseStmt() {
    Nesting N(*this);
    if (!N.deepen())
      return nullptr;
    SourceLoc L = loc();
    switch (peek().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwIf: {
      advance();
      if (!expect(TokKind::LParen, "'(' after if"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      Stmt *Then = parseStmt();
      if (!Then)
        return nullptr;
      Stmt *Else = nullptr;
      if (consumeIf(TokKind::KwElse)) {
        Else = parseStmt();
        if (!Else)
          return nullptr;
      }
      return Prog->makeStmt<IfStmt>(L, Cond, Then, Else);
    }
    case TokKind::KwWhile: {
      advance();
      if (!expect(TokKind::LParen, "'(' after while"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      Stmt *Body = parseStmt();
      if (!Body)
        return nullptr;
      return Prog->makeStmt<WhileStmt>(L, Cond, Body, /*IsDoWhile=*/false);
    }
    case TokKind::KwDo: {
      advance();
      Stmt *Body = parseStmt();
      if (!Body)
        return nullptr;
      if (!expect(TokKind::KwWhile, "'while' after do body") ||
          !expect(TokKind::LParen, "'('"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'") ||
          !expect(TokKind::Semi, "';'"))
        return nullptr;
      return Prog->makeStmt<WhileStmt>(L, Cond, Body, /*IsDoWhile=*/true);
    }
    case TokKind::KwFor: {
      advance();
      if (!expect(TokKind::LParen, "'(' after for"))
        return nullptr;
      Stmt *Init = nullptr;
      if (!consumeIf(TokKind::Semi)) {
        if (atTypeStart()) {
          Init = parseLocalDecl();
        } else {
          Expr *E = parseExpr();
          if (!E || !expect(TokKind::Semi, "';'"))
            return nullptr;
          Init = Prog->makeStmt<ExprStmt>(L, E);
        }
        if (!Init)
          return nullptr;
      }
      Expr *Cond = nullptr;
      if (!at(TokKind::Semi)) {
        Cond = parseExpr();
        if (!Cond)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      Expr *Inc = nullptr;
      if (!at(TokKind::RParen)) {
        Inc = parseExpr();
        if (!Inc)
          return nullptr;
      }
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      Stmt *Body = parseStmt();
      if (!Body)
        return nullptr;
      return Prog->makeStmt<ForStmt>(L, Init, Cond, Inc, Body);
    }
    case TokKind::KwReturn: {
      advance();
      Expr *Value = nullptr;
      if (!at(TokKind::Semi)) {
        Value = parseExpr();
        if (!Value)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "';' after return"))
        return nullptr;
      return Prog->makeStmt<ReturnStmt>(L, Value);
    }
    case TokKind::KwBreak:
      advance();
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return Prog->makeStmt<BreakStmt>(L);
    case TokKind::KwContinue:
      advance();
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return Prog->makeStmt<ContinueStmt>(L);
    case TokKind::KwGoto: {
      advance();
      if (!at(TokKind::Ident)) {
        error("expected label after goto");
        return nullptr;
      }
      std::string Label = advance().Text;
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return Prog->makeStmt<GotoStmt>(L, std::move(Label));
    }
    case TokKind::KwSwitch:
      return parseSwitch();
    case TokKind::KwAsm:
      return parseAsm();
    case TokKind::Semi:
      advance();
      return Prog->makeStmt<BlockStmt>(L, std::vector<Stmt *>());
    default:
      break;
    }

    // Label: IDENT ':' (when not a typedef name).
    if (at(TokKind::Ident) && peek(1).Kind == TokKind::Colon &&
        !Typedefs.count(peek().Text)) {
      std::string Name = advance().Text;
      advance(); // ':'
      return Prog->makeStmt<LabelStmt>(L, std::move(Name));
    }

    if (atTypeStart())
      return parseLocalDecl();

    Expr *E = parseExpr();
    if (!E || !expect(TokKind::Semi, "';' after expression"))
      return nullptr;
    return Prog->makeStmt<ExprStmt>(L, E);
  }

  /// Local declaration: one declarator (MiniC allows one per statement),
  /// with optional initializer.
  Stmt *parseLocalDecl() {
    SourceLoc L = loc();
    const Type *Base = parseDeclSpec();
    if (!Base)
      return nullptr;
    Declarator D;
    if (!parseDeclarator(Base, D, /*RequireName=*/true))
      return nullptr;
    if (D.IsFunction) {
      error("local function declarations are not supported");
      return nullptr;
    }
    VarDecl *V = Prog->makeVar(L, D.Name, D.Ty, /*Global=*/false);
    if (consumeIf(TokKind::Assign)) {
      Expr *Init = parseAssignment();
      if (!Init)
        return nullptr;
      V->setInit(Init);
    }
    if (!expect(TokKind::Semi, "';' after declaration"))
      return nullptr;
    return Prog->makeStmt<DeclStmt>(L, V);
  }

  Stmt *parseSwitch() {
    SourceLoc L = loc();
    advance(); // switch
    if (!expect(TokKind::LParen, "'(' after switch"))
      return nullptr;
    Expr *Cond = parseExpr();
    if (!Cond || !expect(TokKind::RParen, "')'") ||
        !expect(TokKind::LBrace, "'{' starting switch body"))
      return nullptr;

    std::vector<SwitchArm> Arms;
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      SwitchArm Arm;
      if (consumeIf(TokKind::KwCase)) {
        bool Negative = consumeIf(TokKind::Minus);
        int64_t V;
        if (at(TokKind::IntLit) || at(TokKind::CharLit)) {
          V = advance().IntValue;
        } else if (at(TokKind::Ident) && EnumConstants.count(peek().Text)) {
          V = EnumConstants[advance().Text];
        } else {
          error("expected constant after case");
          return nullptr;
        }
        Arm.Value = Negative ? negate(V) : V;
      } else if (consumeIf(TokKind::KwDefault)) {
        Arm.Value = std::nullopt;
      } else {
        error("expected case or default in switch body");
        return nullptr;
      }
      if (!expect(TokKind::Colon, "':'"))
        return nullptr;
      while (!at(TokKind::KwCase) && !at(TokKind::KwDefault) &&
             !at(TokKind::RBrace) && !at(TokKind::Eof)) {
        Stmt *S = parseStmt();
        if (!S)
          return nullptr;
        Arm.Stmts.push_back(S);
      }
      Arms.push_back(std::move(Arm));
    }
    if (!expect(TokKind::RBrace, "'}' closing switch"))
      return nullptr;
    return Prog->makeStmt<SwitchStmt>(L, Cond, std::move(Arms));
  }

  /// __asm__("text") or __asm__("text" : name = "type", ...) ';'
  Stmt *parseAsm() {
    SourceLoc L = loc();
    advance(); // __asm__
    if (!expect(TokKind::LParen, "'(' after __asm__"))
      return nullptr;
    if (!at(TokKind::StrLit)) {
      error("expected assembly string");
      return nullptr;
    }
    std::string Text = advance().Text;
    std::vector<AsmAnnotation> Annotations;
    if (consumeIf(TokKind::Colon)) {
      for (;;) {
        if (!at(TokKind::Ident)) {
          error("expected annotated symbol name");
          return nullptr;
        }
        AsmAnnotation A;
        A.Symbol = advance().Text;
        if (!expect(TokKind::Assign, "'=' in asm annotation"))
          return nullptr;
        if (!at(TokKind::StrLit)) {
          error("expected type string in asm annotation");
          return nullptr;
        }
        A.TypeText = advance().Text;
        Annotations.push_back(std::move(A));
        if (!consumeIf(TokKind::Comma))
          break;
      }
    }
    if (!expect(TokKind::RParen, "')'") || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return Prog->makeStmt<AsmStmt>(L, std::move(Text), std::move(Annotations));
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Expr *parseExpr() { return parseAssignment(); }

  Expr *parseAssignment() {
    unsigned Before = Assignments;
    Expr *LHS = parseConditional();
    if (!LHS)
      return nullptr;
    SourceLoc L = loc();
    BinaryOp CompoundOp = BinaryOp::Add;
    bool Compound = true;
    switch (peek().Kind) {
    case TokKind::Assign:
      Compound = false;
      break;
    case TokKind::PlusAssign:
      CompoundOp = BinaryOp::Add;
      break;
    case TokKind::MinusAssign:
      CompoundOp = BinaryOp::Sub;
      break;
    case TokKind::StarAssign:
      CompoundOp = BinaryOp::Mul;
      break;
    case TokKind::SlashAssign:
      CompoundOp = BinaryOp::Div;
      break;
    default:
      return LHS;
    }
    advance();
    if (Compound && !singleUse(Before, "a compound assignment"))
      return nullptr;
    Nesting N(*this);
    if (!N.deepen())
      return nullptr;
    Expr *RHS = parseAssignment();
    if (!RHS)
      return nullptr;
    if (Compound)
      RHS = Prog->makeExpr<BinaryExpr>(L, CompoundOp, LHS, RHS);
    return makeAssign(L, LHS, RHS);
  }

  Expr *parseConditional() {
    Expr *Cond = parseBinary(0);
    if (!Cond)
      return nullptr;
    if (!consumeIf(TokKind::Question))
      return Cond;
    Nesting N(*this);
    if (!N.deepen())
      return nullptr;
    SourceLoc L = loc();
    Expr *Then = parseExpr();
    if (!Then || !expect(TokKind::Colon, "':' in conditional"))
      return nullptr;
    Expr *Else = parseConditional();
    if (!Else)
      return nullptr;
    return Prog->makeExpr<CondExpr>(L, Cond, Then, Else);
  }

  /// Precedence-climbing over binary operators.
  static int binPrec(TokKind K) {
    switch (K) {
    case TokKind::PipePipe:
      return 1;
    case TokKind::AmpAmp:
      return 2;
    case TokKind::Pipe:
      return 3;
    case TokKind::Caret:
      return 4;
    case TokKind::Amp:
      return 5;
    case TokKind::EqEq:
    case TokKind::NotEq:
      return 6;
    case TokKind::Lt:
    case TokKind::Gt:
    case TokKind::Le:
    case TokKind::Ge:
      return 7;
    case TokKind::Shl:
    case TokKind::Shr:
      return 8;
    case TokKind::Plus:
    case TokKind::Minus:
      return 9;
    case TokKind::Star:
    case TokKind::Slash:
    case TokKind::Percent:
      return 10;
    default:
      return -1;
    }
  }

  static BinaryOp binOp(TokKind K) {
    switch (K) {
    case TokKind::PipePipe:
      return BinaryOp::LogicalOr;
    case TokKind::AmpAmp:
      return BinaryOp::LogicalAnd;
    case TokKind::Pipe:
      return BinaryOp::Or;
    case TokKind::Caret:
      return BinaryOp::Xor;
    case TokKind::Amp:
      return BinaryOp::And;
    case TokKind::EqEq:
      return BinaryOp::Eq;
    case TokKind::NotEq:
      return BinaryOp::Ne;
    case TokKind::Lt:
      return BinaryOp::Lt;
    case TokKind::Gt:
      return BinaryOp::Gt;
    case TokKind::Le:
      return BinaryOp::Le;
    case TokKind::Ge:
      return BinaryOp::Ge;
    case TokKind::Shl:
      return BinaryOp::Shl;
    case TokKind::Shr:
      return BinaryOp::Shr;
    case TokKind::Plus:
      return BinaryOp::Add;
    case TokKind::Minus:
      return BinaryOp::Sub;
    case TokKind::Star:
      return BinaryOp::Mul;
    case TokKind::Slash:
      return BinaryOp::Div;
    case TokKind::Percent:
      return BinaryOp::Mod;
    default:
      mcfi_unreachable("not a binary operator");
    }
  }

  Expr *parseBinary(int MinPrec) {
    Expr *LHS = parseUnary();
    if (!LHS)
      return nullptr;
    // Each operator deepens the left-leaning tree by one.
    Nesting N(*this);
    for (;;) {
      int Prec = binPrec(peek().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return LHS;
      if (!N.deepen())
        return nullptr;
      SourceLoc L = loc();
      BinaryOp Op = binOp(advance().Kind);
      Expr *RHS = parseBinary(Prec + 1);
      if (!RHS)
        return nullptr;
      LHS = Prog->makeExpr<BinaryExpr>(L, Op, LHS, RHS);
    }
  }

  Expr *parseUnary() {
    Nesting N(*this);
    if (!N.deepen())
      return nullptr;
    SourceLoc L = loc();
    switch (peek().Kind) {
    case TokKind::Minus:
      advance();
      return wrapUnary(L, UnaryOp::Neg);
    case TokKind::Bang:
      advance();
      return wrapUnary(L, UnaryOp::LogicalNot);
    case TokKind::Tilde:
      advance();
      return wrapUnary(L, UnaryOp::BitNot);
    case TokKind::Star:
      advance();
      return wrapUnary(L, UnaryOp::Deref);
    case TokKind::Amp:
      advance();
      return wrapUnary(L, UnaryOp::AddrOf);
    case TokKind::PlusPlus:
    case TokKind::MinusMinus: {
      // Pre-increment/decrement desugars to an assignment.
      BinaryOp Op =
          peek().Kind == TokKind::PlusPlus ? BinaryOp::Add : BinaryOp::Sub;
      advance();
      unsigned Before = Assignments;
      Expr *Sub = parseUnary();
      if (!Sub || !singleUse(Before, "'++' or '--'"))
        return nullptr;
      Expr *One = Prog->makeExpr<IntLitExpr>(L, 1);
      Expr *Sum = Prog->makeExpr<BinaryExpr>(L, Op, Sub, One);
      return makeAssign(L, Sub, Sum);
    }
    case TokKind::KwSizeof: {
      advance();
      if (!expect(TokKind::LParen, "'(' after sizeof"))
        return nullptr;
      const Type *T = parseTypeName();
      if (!T || !expect(TokKind::RParen, "')'"))
        return nullptr;
      return Prog->makeExpr<SizeofExpr>(L, T);
    }
    case TokKind::LParen:
      // Cast or parenthesized expression.
      if (isTypeStartAt(1)) {
        advance();
        const Type *T = parseTypeName();
        if (!T || !expect(TokKind::RParen, "')' after cast type"))
          return nullptr;
        Expr *Sub = parseUnary();
        if (!Sub)
          return nullptr;
        return Prog->makeExpr<CastExpr>(L, T, Sub, /*Implicit=*/false);
      }
      break;
    default:
      break;
    }
    return parsePostfix();
  }

  bool isTypeStartAt(size_t Ahead) const {
    switch (peek(Ahead).Kind) {
    case TokKind::KwVoid:
    case TokKind::KwChar:
    case TokKind::KwShort:
    case TokKind::KwInt:
    case TokKind::KwLong:
    case TokKind::KwUnsigned:
    case TokKind::KwFloat:
    case TokKind::KwDouble:
    case TokKind::KwStruct:
    case TokKind::KwUnion:
    case TokKind::KwEnum:
    case TokKind::KwConst:
      return true;
    case TokKind::Ident:
      return Typedefs.count(peek(Ahead).Text) != 0;
    default:
      return false;
    }
  }

  Expr *makeAssign(SourceLoc L, Expr *LHS, Expr *RHS) {
    ++Assignments;
    return Prog->makeExpr<AssignExpr>(L, LHS, RHS);
  }

  /// The ++, -- and op= desugarings use their operand twice, as the
  /// target and inside the value. An operand that assigns (one parsed
  /// since \p Before) would run that assignment twice, and nested it
  /// would make a tree exponential in the source's length. Reports a
  /// parse error for \p What when it does.
  bool singleUse(unsigned Before, const char *What) {
    if (Assignments == Before)
      return true;
    error(formatString("the operand of %s may not itself assign", What));
    return false;
  }

  Expr *wrapUnary(SourceLoc L, UnaryOp Op) {
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return Prog->makeExpr<UnaryExpr>(L, Op, Sub);
  }

  Expr *parsePostfix() {
    unsigned Before = Assignments;
    Expr *E = parsePrimary();
    if (!E)
      return nullptr;
    Nesting N(*this); // each postfix operator deepens the tree by one
    for (;;) {
      SourceLoc L = loc();
      if (consumeIf(TokKind::LParen)) {
        if (!N.deepen())
          return nullptr;
        std::vector<Expr *> Args;
        if (!at(TokKind::RParen)) {
          for (;;) {
            Expr *Arg = parseAssignment();
            if (!Arg)
              return nullptr;
            Args.push_back(Arg);
            if (!consumeIf(TokKind::Comma))
              break;
          }
        }
        if (!expect(TokKind::RParen, "')' after arguments"))
          return nullptr;
        E = Prog->makeExpr<CallExpr>(L, E, std::move(Args));
        continue;
      }
      if (consumeIf(TokKind::LBracket)) {
        if (!N.deepen())
          return nullptr;
        Expr *Idx = parseExpr();
        if (!Idx || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        E = Prog->makeExpr<IndexExpr>(L, E, Idx);
        continue;
      }
      if (at(TokKind::Dot) || at(TokKind::Arrow)) {
        bool Arrow = at(TokKind::Arrow);
        advance();
        if (!N.deepen())
          return nullptr;
        if (!at(TokKind::Ident)) {
          error("expected field name");
          return nullptr;
        }
        std::string Field = advance().Text;
        E = Prog->makeExpr<MemberExpr>(L, E, std::move(Field), Arrow);
        continue;
      }
      if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
        // Post-increment desugars to assignment; MiniC restricts its use
        // to statement contexts where the value is unused.
        BinaryOp Op =
            peek().Kind == TokKind::PlusPlus ? BinaryOp::Add : BinaryOp::Sub;
        advance();
        if (!N.deepen() || !singleUse(Before, "'++' or '--'"))
          return nullptr;
        Expr *One = Prog->makeExpr<IntLitExpr>(L, 1);
        Expr *Sum = Prog->makeExpr<BinaryExpr>(L, Op, E, One);
        E = makeAssign(L, E, Sum);
        continue;
      }
      return E;
    }
  }

  Expr *parsePrimary() {
    SourceLoc L = loc();
    switch (peek().Kind) {
    case TokKind::IntLit:
    case TokKind::CharLit:
      return Prog->makeExpr<IntLitExpr>(L, advance().IntValue);
    case TokKind::KwNull:
      advance();
      return Prog->makeExpr<IntLitExpr>(L, 0, /*IsNull=*/true);
    case TokKind::StrLit:
      return Prog->makeExpr<StrLitExpr>(L, advance().Text);
    case TokKind::Ident: {
      std::string Name = peek().Text;
      if (EnumConstants.count(Name)) {
        advance();
        return Prog->makeExpr<IntLitExpr>(L, EnumConstants[Name]);
      }
      advance();
      return Prog->makeExpr<NameRefExpr>(L, std::move(Name));
    }
    case TokKind::LParen: {
      advance();
      Expr *E = parseExpr();
      if (!E || !expect(TokKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    default:
      error("expected expression");
      return nullptr;
    }
  }

  std::vector<Token> Tokens;
  std::vector<std::string> &Errors;
  std::unique_ptr<Program> Prog;
  size_t Pos = 0;
  bool HadError = false;
  unsigned Depth = 0;       ///< levels entered (see Nesting)
  unsigned Assignments = 0; ///< AssignExprs built (see singleUse)

  std::unordered_map<std::string, const Type *> Typedefs;
  std::unordered_map<std::string, int64_t> EnumConstants;
};

} // namespace

std::unique_ptr<Program>
mcfi::minic::parseProgram(const std::string &Source,
                          std::vector<std::string> &Errors) {
  std::vector<Token> Tokens = lex(Source, Errors);
  if (!Errors.empty())
    return nullptr;
  return ParserImpl(std::move(Tokens), Errors).run();
}
