//===- tests/MinicTest.cpp - MiniC frontend tests --------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ctypes/TypeParser.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "module/MCFIObject.h"
#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Src) {
  std::vector<std::string> Errors;
  auto P = parseProgram(Src, Errors);
  EXPECT_TRUE(P) << (Errors.empty() ? "?" : Errors.front());
  return P;
}

std::unique_ptr<Program> checkOk(const std::string &Src) {
  std::vector<std::string> Errors;
  auto P = parseProgram(Src, Errors);
  EXPECT_TRUE(P) << (Errors.empty() ? "?" : Errors.front());
  if (!P)
    return nullptr;
  EXPECT_TRUE(analyze(*P, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return P;
}

void expectError(const std::string &Src, const std::string &Needle) {
  std::vector<std::string> Errors;
  auto P = parseProgram(Src, Errors);
  bool Failed = !P;
  if (P)
    Failed = !analyze(*P, Errors);
  EXPECT_TRUE(Failed) << "expected failure containing '" << Needle << "'";
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "no error mentions '" << Needle << "'; got: "
                     << (Errors.empty() ? "(none)" : Errors.front());
}

//===----------------------------------------------------------------------===//
// Lexing
//===----------------------------------------------------------------------===//

TEST(Lexer, LongRunOfUnexpectedCharactersIsReportedWithoutRecursion) {
  // Each unexpected character is reported and skipped. Recursing once per
  // skipped character would overflow the stack at about 50 KB of them.
  std::vector<std::string> Errors;
  std::vector<Token> Tokens = lex(std::string(100000, '@') + " x", Errors);
  EXPECT_EQ(Errors.size(), 100001u); // the '@'s and the space after them
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Kind, TokKind::Ident);
  EXPECT_EQ(Tokens[0].Text, "x");
  EXPECT_EQ(Tokens[1].Kind, TokKind::Eof);
}

TEST(Lexer, OverlongIntegerLiteralsWrapModulo2To64) {
  // Digits accumulate in 64 unsigned bits, so untrusted source cannot
  // drive the lexer into signed overflow.
  std::vector<std::string> Errors;
  std::vector<Token> Tokens =
      lex("0x1ffffffffffffffff 99999999999999999999 0x7fffffffffffffff",
          Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, -1);
  EXPECT_EQ(Tokens[1].IntValue, 7766279631452241919);
  EXPECT_EQ(Tokens[2].IntValue, INT64_MAX);
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

TEST(Parser, DeclaratorZoo) {
  auto P = parseOk(R"(
    typedef long (*Handler)(long);
    struct Node { long v; struct Node *next; };
    union Mix { long i; char *s; };
    enum Color { RED, GREEN = 5, BLUE };
    long table(long (*cbs[4])(long), int n);
    long g_arr[16];
    long (*g_fp)(long, char *);
    Handler g_h;
    unsigned int bits;
    long f(struct Node *n, Handler h) { return h(n->v); }
  )");
  ASSERT_TRUE(P);
  EXPECT_TRUE(P->findFunction("f"));
  EXPECT_TRUE(P->findFunction("table"));
}

TEST(Parser, EnumConstantsFoldInSwitchAndExpr) {
  auto P = checkOk(R"(
    enum Kind { A, B = 10, C };
    long f(long k) {
      switch (k) {
      case 0: return 100;
      case 10: return 200;
      default: break;
      }
      return B + C; /* 10 + 11 */
    }
  )");
  ASSERT_TRUE(P);
}

TEST(Parser, NegatedMinimumLiteralWraps) {
  // -0x8000000000000000 is INT64_MIN negated: it wraps to itself, as every
  // literal arithmetic on untrusted source wraps modulo 2^64.
  auto P = parseOk(R"(
    enum E { LO = -0x8000000000000000, HI = 0x7fffffffffffffff, PAST };
    long f(long x) {
      switch (x) {
      case -0x8000000000000000: return LO;
      default: return PAST;
      }
    }
  )");
  ASSERT_TRUE(P);
  const Stmt *Body = P->findFunction("f")->getBody()->getStmts()[0];
  const auto &Arms = cast<SwitchStmt>(Body)->getArms();
  ASSERT_EQ(Arms.size(), 2u);
  EXPECT_EQ(Arms[0].Value, INT64_MIN);
  auto returned = [](const SwitchArm &A) {
    return cast<IntLitExpr>(cast<ReturnStmt>(A.Stmts[0])->getValue())
        ->getValue();
  };
  EXPECT_EQ(returned(Arms[0]), INT64_MIN);
  EXPECT_EQ(returned(Arms[1]), INT64_MIN); // PAST = HI + 1 wraps

  CompileResult CR = compileModule("long g = -0x8000000000000000;",
                                   {.ModuleName = "negmin"});
  ASSERT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
  ASSERT_EQ(CR.Obj.DataInit.size(), 1u);
  const std::vector<uint8_t> &Bytes = CR.Obj.DataInit[0].second;
  ASSERT_EQ(Bytes.size(), 8u);
  EXPECT_EQ(Bytes[7], 0x80);
}

TEST(Parser, RejectsGarbage) {
  std::vector<std::string> Errors;
  EXPECT_FALSE(parseProgram("int f( {", Errors));
  Errors.clear();
  EXPECT_FALSE(parseProgram("int x = ;", Errors));
  Errors.clear();
  EXPECT_FALSE(parseProgram("struct S { int; };", Errors));
  Errors.clear();
  EXPECT_FALSE(parseProgram("int f() { return 1 }", Errors));
}

TEST(Parser, CastVsParenDisambiguation) {
  auto P = checkOk(R"(
    typedef long MyInt;
    long f(long x) {
      long a = (MyInt)x;       /* cast via typedef */
      long b = (x) + 1;        /* parenthesized expr */
      char *p = (char *)x;     /* cast */
      return a + b + (long)p;
    }
  )");
  ASSERT_TRUE(P);
}

TEST(Parser, StringEscapes) {
  auto P = parseOk(R"(char *s = "a\tb\n\"q\"\\";)");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Globals.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Sema diagnostics
//===----------------------------------------------------------------------===//

TEST(Sema, UndeclaredIdentifier) {
  expectError("int main() { return nope; }", "undeclared");
}

TEST(Sema, UndefinedGotoLabel) {
  expectError("int main() { goto missing; return 0; }", "undefined label");
}

TEST(Sema, DuplicateLabel) {
  expectError("int main() { l: ; l: ; return 0; }", "duplicate label");
}

TEST(Sema, ArgumentCountMismatch) {
  expectError("long f(long a, long b) { return a + b; }"
              "int main() { return (int)f(1); }",
              "argument");
}

TEST(Sema, VoidReturnWithValue) {
  expectError("void f(void) { return 3; }", "void function returns a value");
}

TEST(Sema, NonVoidReturnWithoutValue) {
  expectError("long f(void) { return; }", "without a value");
}

TEST(Sema, AssignToRValue) {
  expectError("int main() { 3 = 4; return 0; }", "not an lvalue");
}

TEST(Sema, MemberOfNonStruct) {
  expectError("int main() { long x; return x.field; }", "member access");
}

TEST(Sema, UnknownField) {
  expectError("struct S { long a; };"
              "int main() { struct S s; return (int)s.b; }",
              "no field named");
}

TEST(Sema, CallNonFunction) {
  expectError("int main() { long x; return (int)x(); }",
              "not a function");
}

TEST(Sema, StructAssignRejected) {
  expectError("struct S { long a; };"
              "int main() { struct S a; struct S b; a = b; return 0; }",
              "struct assignment");
}

TEST(Sema, SizelessOperandsAreRefused) {
  // Stepping over, subscripting, sizing or declaring something with no
  // size (a function, an incomplete record) is a diagnostic, not an
  // abort in layout.
  const char *Fn = "long f(long x) { return x; }";
  expectError(std::string(Fn) +
                  "int main() { long (*p)(long) = f; p = p + 1; return 0; }",
              "invalid operands");
  expectError(std::string(Fn) + "int main() { return (int)(f + 1 - f); }",
              "invalid operands");
  expectError(std::string(Fn) +
                  "int main() { long (*p)(long) = f; return (int)p[1](2); }",
              "subscripted value");
  expectError("struct X; struct X *p;"
              "int main() { p = p + 1; return (int)(long)p[0]; }",
              "invalid operands");
  expectError("struct X; int main() { return (int)sizeof(struct X); }",
              "no size");
  expectError("struct X; struct X g; int main() { return 0; }", "no size");
  expectError("struct X; int main() { struct X v[2]; return 0; }",
              "no size");
  expectError("struct X; long h(struct X v) { return 0; }", "no size");
  expectError("struct X; struct Y { long a; struct X x; };", "incomplete");
  expectError("struct S { long a; struct S s; };", "incomplete");
}

//===----------------------------------------------------------------------===//
// Typing and decay
//===----------------------------------------------------------------------===//

TEST(Sema, FunctionDesignatorDecayMarksAddressTaken) {
  auto P = checkOk(R"(
    long cb(long x) { return x; }
    long direct_only(long x) { return x; }
    int main() {
      long (*p)(long) = cb;
      direct_only(3);
      return (int)p(1);
    }
  )");
  ASSERT_TRUE(P);
  EXPECT_TRUE(P->findFunction("cb")->isAddressTaken());
  // Direct calls do NOT take the address (critical for the CFG: only
  // genuinely address-taken functions are indirect-call targets).
  EXPECT_FALSE(P->findFunction("direct_only")->isAddressTaken());
}

TEST(Sema, AddrOfFunctionAlsoMarks) {
  auto P = checkOk(R"(
    long cb(long x) { return x; }
    long (*p)(long) = &cb;
    int main() { return 0; }
  )");
  ASSERT_TRUE(P);
  EXPECT_TRUE(P->findFunction("cb")->isAddressTaken());
}

TEST(Sema, ImplicitConversionsMaterializeAsCasts) {
  auto P = checkOk(R"(
    long f(long x) { return x; }
    int main() {
      int small = 3;
      long wide = small;  /* int -> long */
      char *p = NULL;     /* 0 -> char* */
      return (int)f(small) + (int)wide + (p == NULL);
    }
  )");
  ASSERT_TRUE(P);
}

TEST(Sema, AsmAnnotationsResolve) {
  auto P = checkOk(R"MC(
    void copy(char *d, char *s, long n) {
      __asm__("rep movsb" : copy = "void(char*,char*,long)");
      long i;
      for (i = 0; i < n; i = i + 1) d[i] = s[i];
    }
  )MC");
  ASSERT_TRUE(P);
}

TEST(Sema, BadAsmAnnotationRejected) {
  expectError(R"MC(
    void f(void) { __asm__("nop" : f = "not a type"); }
  )MC",
              "asm type annotation");
}

TEST(Sema, BuiltinsAreDeclared) {
  auto P = checkOk(R"(
    int main() {
      long *p = (long *)malloc(64);
      p[0] = 1;
      free(p);
      print_int(p[0]);
      return 0;
    }
  )");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->findFunction("malloc")->getBuiltin(), BuiltinKind::Malloc);
}

/// The declarations of \p Name in \p P (a name is declared at most once).
size_t declarationsOf(const Program &P, const std::string &Name) {
  size_t N = 0;
  for (const FuncDecl *F : P.Functions)
    N += F->getName() == Name;
  return N;
}

TEST(Sema, ProgramNamingNoBuiltinDeclaresNone) {
  // Builtins are declared on the first lookup that misses, so a program
  // that names none of them pays for none: no per-compile prelude.
  auto P = checkOk("int main() { return 0; }");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Functions.size(), 1u);

  auto Q = checkOk("int main() { exit(1); return 0; }");
  ASSERT_TRUE(Q);
  ASSERT_EQ(Q->Functions.size(), 2u);
  EXPECT_EQ(Q->Functions[1]->getBuiltin(), BuiltinKind::Exit);
}

TEST(Sema, BuiltinReferencedOnlyFromGlobalInitializer) {
  auto P = checkOk(R"(
    void *(*alloc)(long) = malloc;
    int main() { return 0; }
  )");
  ASSERT_TRUE(P);
  FuncDecl *F = P->findFunction("malloc");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->getBuiltin(), BuiltinKind::Malloc);
  EXPECT_TRUE(F->isAddressTaken());
  const Expr *Init = P->Globals[0]->getInit();
  while (const auto *C = dyn_cast<CastExpr>(Init))
    Init = C->getSub();
  ASSERT_TRUE(isa<FuncRefExpr>(Init));
  EXPECT_EQ(cast<FuncRefExpr>(Init)->getDecl(), F);
}

TEST(Sema, BuiltinWhoseAddressIsTaken) {
  auto P = checkOk(R"(
    int main() {
      void (*h)(int) = exit;
      void (*g)(void *) = &free;
      g(NULL);
      h(0);
      return 0;
    }
  )");
  ASSERT_TRUE(P);
  for (const char *Name : {"exit", "free"}) {
    FuncDecl *F = P->findFunction(Name);
    ASSERT_TRUE(F) << Name;
    EXPECT_TRUE(F->isBuiltin()) << Name;
    EXPECT_TRUE(F->isAddressTaken()) << Name;
  }
}

TEST(Sema, UserPrototypeOfBuiltinKeepsBuiltinKind) {
  auto P = checkOk(R"(
    void *malloc(int n);
    int main() { free(malloc(8)); return 0; }
  )");
  ASSERT_TRUE(P);
  FuncDecl *F = P->findFunction("malloc");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->getBuiltin(), BuiltinKind::Malloc);
  // The user's declaration, with the user's type, is the one kept.
  EXPECT_EQ(F->getLoc().Line, 2u);
  EXPECT_EQ(F->getType()->print(), "void*(int)");
  EXPECT_EQ(declarationsOf(*P, "malloc"), 1u);
  EXPECT_EQ(P->Functions.size(), 3u); // malloc, main, free
}

TEST(Sema, UserDefinitionWithBuiltinNameWins) {
  CompileResult CR = compileModule(R"(
    void exit(int code) { return; }
    int main() { exit(3); return 0; }
  )",
                                   {.ModuleName = "own_exit"});
  ASSERT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
  FuncDecl *F = CR.Prog->findFunction("exit");
  ASSERT_TRUE(F);
  EXPECT_FALSE(F->isBuiltin());
  EXPECT_TRUE(F->isDefined());
  // A direct call to the user's function, and no syscall anywhere.
  bool DirectCallToExit = false;
  for (const CallSiteInfo &CS : CR.Obj.Aux.CallSites)
    DirectCallToExit |= CS.Direct && CS.Callee == "exit";
  EXPECT_TRUE(DirectCallToExit);
  visa::Disassembly D =
      disassembleModule(CR.Obj.Code.data(), CR.Obj.Code.size(), CR.Obj);
  for (const visa::DInstr &I : D.Instrs)
    EXPECT_NE(I.I.Op, visa::Opcode::Syscall);
}

TEST(Sema, BuiltinCalledFromTwoFunctionsIsDeclaredOnce) {
  auto P = checkOk(R"(
    void a(long x) { print_int(x); }
    void b(long x) { print_int(x + 1); }
    int main() { a(1); b(2); return 0; }
  )");
  ASSERT_TRUE(P);
  EXPECT_EQ(declarationsOf(*P, "print_int"), 1u);
  EXPECT_EQ(P->Functions.size(), 4u);
}

TEST(Sema, AsmAnnotationNamingABuiltinDeclaresIt) {
  // Annotated symbols are used by code the analyses cannot see, so a
  // builtin an annotation names is declared like any other use.
  auto P = checkOk(R"MC(
    int main() { __asm__("nop" : free = "void(void*)"); return 0; }
  )MC");
  ASSERT_TRUE(P);
  FuncDecl *F = P->findFunction("free");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->getBuiltin(), BuiltinKind::Free);
}

TEST(Sema, BuiltinTypesMatchTheirCSpelling) {
  auto P = checkOk(R"(
    int main() {
      void *p;
      p = malloc; p = free; p = setjmp; p = longjmp; p = signal;
      p = raise; p = print_int; p = print_str; p = exit; p = dlopen;
      p = dlsym; p = dlclose;
      return 0;
    }
  )");
  ASSERT_TRUE(P);
  const std::pair<const char *, const char *> Spelling[] = {
      {"malloc", "void*(long)"},         {"free", "void(void*)"},
      {"setjmp", "int(long*)"},          {"longjmp", "void(long*,int)"},
      {"signal", "void(int,void(*)(int))"}, {"raise", "void(int)"},
      {"print_int", "void(long)"},       {"print_str", "void(char*)"},
      {"exit", "void(int)"},             {"dlopen", "long(int)"},
      {"dlsym", "void*(long,char*)"},    {"dlclose", "int(long)"},
  };
  EXPECT_EQ(P->Functions.size(), 13u);
  for (const auto &[Name, Text] : Spelling) {
    FuncDecl *F = P->findFunction(Name);
    ASSERT_TRUE(F) << Name;
    EXPECT_TRUE(F->isBuiltin()) << Name;
    std::string Err;
    EXPECT_EQ(F->getType(), parseType(Text, P->getTypes(), &Err))
        << Name << " " << Err;
  }
}

//===----------------------------------------------------------------------===//
// Nesting bound
//===----------------------------------------------------------------------===//

std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// Compiles \p Src end to end and expects a nesting error, not a crash.
void expectTooDeep(const std::string &Src) {
  CompileResult CR = compileModule(Src);
  EXPECT_FALSE(CR.Ok);
  ASSERT_FALSE(CR.Errors.empty());
  EXPECT_NE(CR.Errors.front().find("nesting deeper than"), std::string::npos)
      << CR.Errors.front();
}

constexpr size_t Deep = 100000;

TEST(Nesting, HundredThousandParenthesesAreAnError) {
  expectTooDeep("int main() { return " + repeat("(", Deep) + "0" +
                repeat(")", Deep) + "; }");
}

TEST(Nesting, HundredThousandUnaryMinusesAreAnError) {
  expectTooDeep("int main() { return " + repeat("- ", Deep) + "0; }");
  // Unspaced, the minus signs lex as nested pre-decrements.
  expectTooDeep("int main() { return " + repeat("-", Deep) + "0; }");
}

TEST(Nesting, HundredThousandNestedBlocksAreAnError) {
  expectTooDeep("int main() { " + repeat("{", Deep) + repeat("}", Deep) +
                " return 0; }");
}

TEST(Nesting, EveryRecursiveConstructIsBounded) {
  // Each of these built a tree, or recursed in the parser, as deep as
  // the source is long.
  expectTooDeep("int main() { return " + repeat("1 + ", Deep) + "1; }");
  expectTooDeep("int main() { long a; return " + repeat("a = ", Deep) +
                "0; }");
  expectTooDeep("int main() { long a = 1; return " + repeat("a ? 1 : ", Deep) +
                "0; }");
  expectTooDeep("int main() { long a = 1; return " + repeat("a ? ", Deep) +
                "1" + repeat(" : 0", Deep) + "; }");
  expectTooDeep("int main() { return " + repeat("(long)", Deep) + "0; }");
  expectTooDeep("long a[4];\nint main() { return (int)a" +
                repeat("[0]", Deep) + "; }");
  expectTooDeep("int main() { long a = 0; " +
                repeat("if (a) a = 2; else ", Deep) + "a = 3; return 0; }");
  expectTooDeep("void g(" + repeat("void (*)(", Deep) + "void" +
                repeat(")", Deep) + ");\nint main() { return 0; }");
  std::string Structs;
  for (size_t I = 0; I != 1000; ++I)
    Structs += "struct S" + std::to_string(I) + " { ";
  expectTooDeep(Structs + "long x; " + repeat("} m; ", 999) +
                "};\nint main() { return 0; }");
}

TEST(Nesting, DeepButBoundedProgramsCompile) {
  // Well past anything the workload profiles, rt or the examples nest
  // (10 levels), each construct still compiles through lowering.
  constexpr size_t Depth = 200;
  for (const std::string &Src :
       {"int main() { return " + repeat("(", Depth) + "0" +
            repeat(")", Depth) + "; }",
        "int main() { return " + repeat("- ", Depth) + "1; }",
        "int main() { " + repeat("{", Depth) + repeat("}", Depth) +
            " return 0; }",
        "int main() { return " + repeat("1 + ", Depth) + "1; }"}) {
    CompileResult CR = compileModule(Src);
    EXPECT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
  }
}

TEST(Nesting, OperandsUsedTwiceMayNotAssign) {
  // ++, -- and op= use their operand as target and value; an operand
  // that assigns would do it twice, and nested, exponentially often.
  expectError("int main() { long a = 1; a++++; return 0; }",
              "may not itself assign");
  expectError("int main() { long a = 1; ++(++a); return 0; }",
              "may not itself assign");
  expectError("long v[4];\nint main() { long i = 0; v[i++] += 1; return 0; }",
              "may not itself assign");
  expectError("int main() { return " + repeat("-", 200) + "1; }",
              "may not itself assign");
  checkOk("long v[4];\nint main() { long i = 0; v[i] += i++; ++v[i]; "
          "v[i]++; return 0; }");
}

} // namespace
