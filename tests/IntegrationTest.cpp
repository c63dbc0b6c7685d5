//===- tests/IntegrationTest.cpp - End-to-end pipeline tests --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests of the full pipeline: MiniC source -> instrumented
/// module -> link (CFG generation + verification + table install) -> run
/// on the VM. These are the "does the whole system work" tests; each
/// subsystem also has its own focused suite.
///
//===----------------------------------------------------------------------===//

#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

using namespace mcfi;

namespace {

/// Compiles, links, runs; returns the run result and program output.
struct Executed {
  RunResult Result;
  std::string Output;
  CFGPolicy Policy;
};

Executed runSource(const std::string &Source, bool Instrument = true,
                   uint64_t Fuel = 50'000'000) {
  CompileOptions CO;
  CO.Instrument = Instrument;
  CompileResult CR = compileModule(Source, CO);
  EXPECT_TRUE(CR.Ok) << (CR.Errors.empty() ? "?" : CR.Errors.front());
  if (!CR.Ok)
    return {};

  Machine M;
  LinkOptions LO;
  LO.Verify = Instrument;
  LO.InstallPolicy = Instrument;
  LO.InstrumentBootstrap = Instrument;
  Linker L(M, LO);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(CR.Obj));
  EXPECT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;

  Executed E;
  E.Result = runProgram(M, Fuel);
  E.Output = M.takeOutput();
  E.Policy = L.policy();
  return E;
}

TEST(Integration, HelloWorldExitCode) {
  Executed E = runSource(R"(
    int main() {
      print_str("hello, mcfi\n");
      return 42;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Result.ExitCode, 42);
  EXPECT_EQ(E.Output, "hello, mcfi\n");
}

TEST(Integration, ArithmeticAndLoops) {
  Executed E = runSource(R"(
    int main() {
      long sum = 0;
      int i;
      for (i = 1; i <= 100; i = i + 1)
        sum = sum + i;
      print_int(sum);
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "5050\n");
}

TEST(Integration, DirectCallsAndRecursion) {
  Executed E = runSource(R"(
    long fib(int n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      print_int(fib(20));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "6765\n");
}

TEST(Integration, IndirectCallThroughFunctionPointer) {
  Executed E = runSource(R"(
    int add(int a, int b) { return a + b; }
    int mul(int a, int b) { return a * b; }
    int apply(int (*op)(int, int), int a, int b) { return op(a, b); }
    int main() {
      print_int(apply(add, 3, 4));
      print_int(apply(mul, 3, 4));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "7\n12\n");
  // Both targets share one equivalence class; policy has >= 1 class.
  EXPECT_GE(E.Policy.NumEQCs, 1u);
}

TEST(Integration, UninstrumentedBaselineRuns) {
  Executed E = runSource(R"(
    int twice(int x) { return x + x; }
    int main() {
      int (*f)(int) = twice;
      print_int(f(21));
      return 0;
    }
  )",
                         /*Instrument=*/false);
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "42\n");
}

TEST(Integration, OptimizeOptionIsRefused) {
  // There is one instrumentation, the Fig. 4 order; the option survives
  // only as a field other code still sets, and setting it is an error.
  CompileOptions CO;
  CO.Optimize = true;
  CompileResult CR = compileModule("int main() { return 0; }", CO);
  EXPECT_FALSE(CR.Ok);
  ASSERT_EQ(CR.Errors.size(), 1u);
  EXPECT_EQ(CR.Errors.front(), "CompileOptions::Optimize is not supported");
}

TEST(Integration, StructsAndPointers) {
  Executed E = runSource(R"(
    struct Point { long x; long y; };
    long dot(struct Point *a, struct Point *b) {
      return a->x * b->x + a->y * b->y;
    }
    int main() {
      struct Point p;
      struct Point q;
      p.x = 3; p.y = 4;
      q.x = 5; q.y = 6;
      print_int(dot(&p, &q));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "39\n");
}

TEST(Integration, MallocAndArrays) {
  Executed E = runSource(R"(
    int main() {
      long *a = (long *)malloc(10 * sizeof(long));
      int i;
      for (i = 0; i < 10; i = i + 1)
        a[i] = i * i;
      long sum = 0;
      for (i = 0; i < 10; i = i + 1)
        sum = sum + a[i];
      print_int(sum);
      free(a);
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "285\n");
}

TEST(Integration, SwitchJumpTable) {
  Executed E = runSource(R"(
    int classify(int x) {
      switch (x) {
      case 0: return 100;
      case 1: return 101;
      case 2: return 102;
      case 3: return 103;
      case 4: return 104;
      case 5: return 105;
      default: return -1;
      }
    }
    int main() {
      int i;
      for (i = -1; i <= 6; i = i + 1)
        print_int(classify(i));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "-1\n100\n101\n102\n103\n104\n105\n-1\n");
}

TEST(Integration, GlobalsAndStrings) {
  Executed E = runSource(R"(
    long counter = 7;
    char *greeting = "hi";
    long bump(long by) { counter = counter + by; return counter; }
    int main() {
      print_str(greeting);
      print_str("\n");
      print_int(bump(3));
      print_int(bump(-10));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "hi\n10\n0\n");
}

TEST(Integration, GlobalFunctionPointerInitializer) {
  Executed E = runSource(R"(
    int inc(int x) { return x + 1; }
    int (*op)(int) = inc;
    int main() {
      print_int(op(41));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "42\n");
}

TEST(Integration, SetjmpLongjmp) {
  Executed E = runSource(R"(
    long buf[4];
    void deep(int n) {
      if (n == 0)
        longjmp(buf, 99);
      deep(n - 1);
    }
    int main() {
      int r = setjmp(buf);
      if (r != 0) {
        print_int(r);
        return 0;
      }
      deep(5);
      print_int(-1);
      return 1;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "99\n");
  EXPECT_EQ(E.Result.ExitCode, 0);
}

TEST(Integration, SignalHandlerDispatch) {
  Executed E = runSource(R"(
    int fired = 0;
    void on_sig(int sig) { fired = sig; }
    int main() {
      signal(7, on_sig);
      raise(7);
      print_int(fired);
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "7\n");
}

TEST(Integration, TailCallChain) {
  Executed E = runSource(R"(
    long even(long n);
    long odd(long n) {
      if (n == 0) return 0;
      return even(n - 1);
    }
    long even(long n) {
      if (n == 0) return 1;
      return odd(n - 1);
    }
    int main() {
      print_int(even(100000)); /* deep without tail calls */
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "1\n");
}

TEST(Integration, GotoAndLabels) {
  Executed E = runSource(R"(
    int main() {
      long i = 0;
      long acc = 0;
    again:
      acc = acc + i;
      i = i + 1;
      if (i < 5) goto again;
      if (acc != 10) goto fail;
      print_int(acc);
      return 0;
    fail:
      print_str("bad\n");
      return 1;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "10\n");
}

TEST(Integration, DoWhileAndNestedBreakContinue) {
  Executed E = runSource(R"(
    int main() {
      long acc = 0;
      long i = 0;
      do {
        i = i + 1;
        long j;
        for (j = 0; j < 10; j = j + 1) {
          if (j == 3) continue;
          if (j == 7) break;
          acc = acc + 1;
        }
      } while (i < 4);
      print_int(acc); /* 4 iterations * 6 counted j values */
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "24\n");
}

TEST(Integration, CharArithmeticAndSignExtension) {
  Executed E = runSource(R"(
    int main() {
      char buf[8];
      buf[0] = 'A';
      buf[1] = (char)200;   /* negative as signed char */
      buf[2] = 0;
      long a = buf[0];      /* 65 */
      long b = buf[1];      /* sign-extended: 200-256 = -56 */
      print_int(a);
      print_int(b);
      unsigned char *u = (unsigned char *)buf;
      print_int(u[1]);      /* zero-extended: 200 */
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "65\n-56\n200\n");
}

TEST(Integration, PointerArithmeticScaling) {
  Executed E = runSource(R"(
    struct Pair { long a; long b; };
    int main() {
      struct Pair v[3];
      v[0].a = 1; v[0].b = 2;
      v[1].a = 3; v[1].b = 4;
      v[2].a = 5; v[2].b = 6;
      struct Pair *p = v;
      p = p + 2;              /* scaled by sizeof(struct Pair) */
      print_int(p->a + p->b); /* 11 */
      long *q = &v[0].a;
      print_int((long)(&v[2].a - &v[0].a)); /* element distance: 4 longs */
      print_int(q[3]);        /* v[1].b */
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "11\n4\n4\n");
}

TEST(Integration, ConditionalAndShortCircuitValues) {
  Executed E = runSource(R"(
    long calls = 0;
    long bump(long v) { calls = calls + 1; return v; }
    int main() {
      long x = 5 > 3 ? 10 : 20;
      print_int(x);
      /* short circuit: bump must not run */
      if (0 && bump(1)) print_str("no\n");
      if (1 || bump(1)) print_int(calls);
      long y = !0 + !7;
      print_int(y);
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "10\n0\n1\n");
}

TEST(Integration, FunctionPointerArraysAndDoubleIndirection) {
  Executed E = runSource(R"(
    long f1(long x) { return x + 1; }
    long f2(long x) { return x + 2; }
    long (*tab[2])(long);
    long call_via(long (**slot)(long), long v) { return (*slot)(v); }
    int main() {
      tab[0] = f1;
      tab[1] = f2;
      print_int(call_via(&tab[0], 10));
      print_int(call_via(&tab[1], 10));
      return 0;
    }
  )");
  EXPECT_EQ(E.Result.Reason, StopReason::Exited) << E.Result.Message;
  EXPECT_EQ(E.Output, "11\n12\n");
}

TEST(Integration, SeparateCompilationTwoModules) {
  CompileResult LibCR = compileModule(R"(
    int helper(int x) { return x * 3; }
    int use_cb(int (*cb)(int), int v) { return cb(v); }
  )",
                                      {.ModuleName = "lib"});
  ASSERT_TRUE(LibCR.Ok) << LibCR.Errors.front();

  CompileResult MainCR = compileModule(R"(
    int helper(int x);
    int use_cb(int (*cb)(int), int v);
    int local(int x) { return x + 1; }
    int main() {
      print_int(helper(5));
      print_int(use_cb(local, 10));
      return 0;
    }
  )",
                                       {.ModuleName = "main"});
  ASSERT_TRUE(MainCR.Ok) << MainCR.Errors.front();

  Machine M;
  Linker L(M);
  std::string Err;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(MainCR.Obj));
  Objs.push_back(std::move(LibCR.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Err)) << Err;

  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited) << R.Message;
  EXPECT_EQ(M.takeOutput(), "15\n11\n");
}

} // namespace
