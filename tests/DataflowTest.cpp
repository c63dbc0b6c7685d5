//===- tests/DataflowTest.cpp - Function-pointer dataflow engine tests ----===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the interprocedural function-pointer dataflow engine: flow
/// through calls, fields, and arrays; fixpoint convergence on cyclic
/// call graphs; soundness flags (incomplete sites, havoc, escapes); and
/// the engine's share of the intersection-only CFG refinement, including
/// end-to-end refined links that still run.
///
//===----------------------------------------------------------------------===//

#include "dataflow/Dataflow.h"
#include "metrics/Metrics.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "mlta/Mlta.h"
#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

struct Parsed {
  std::vector<std::unique_ptr<Program>> Programs;
  std::vector<FlowModule> Modules;
};

/// Parses and type-checks each source as one module of a whole program.
Parsed parseModules(const std::vector<std::string> &Sources) {
  Parsed P;
  for (size_t I = 0; I < Sources.size(); ++I) {
    std::vector<std::string> Errors;
    auto Prog = parseProgram(Sources[I], Errors);
    EXPECT_TRUE(Prog) << (Errors.empty() ? "?" : Errors.front());
    if (!Prog)
      continue;
    EXPECT_TRUE(minic::analyze(*Prog, Errors))
        << (Errors.empty() ? "?" : Errors.front());
    P.Modules.push_back({Prog.get(), "m" + std::to_string(I)});
    P.Programs.push_back(std::move(Prog));
  }
  return P;
}

DataflowResult flowOf(const std::vector<std::string> &Sources) {
  Parsed P = parseModules(Sources);
  return analyzeFunctionPointerFlow(P.Modules);
}

/// The site whose caller is \p Fn, or null.
const SiteFlow *siteIn(const DataflowResult &R, const std::string &Fn) {
  for (const SiteFlow &S : R.Sites)
    if (S.Caller == Fn)
      return &S;
  return nullptr;
}

TEST(Dataflow, DirectFlowThroughCallArguments) {
  DataflowResult R = flowOf({R"(
    long apply(long (*f)(long), long x) { return f(x); }
    long inc(long x) { return x + 1; }
    long dec(long x) { return x - 1; }
    int main() { return (int)(apply(inc, 1) + apply(dec, 2)); }
  )"});
  const SiteFlow *S = siteIn(R, "apply");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"dec", "inc"}));
  EXPECT_FALSE(R.Havoc);
  // Evidence: the chain starts at the address-taking seed and ends at
  // the invoking call site.
  ASSERT_EQ(S->Chains.size(), 2u);
  ASSERT_GE(S->Chains[0].size(), 2u);
  EXPECT_NE(S->Chains[0].front().Desc.find("address of function"),
            std::string::npos);
  EXPECT_NE(S->Chains[0].back().Desc.find("invoked by indirect call"),
            std::string::npos);
}

TEST(Dataflow, FixpointConvergesOnCyclicCallGraph) {
  // even/odd pass the pointer back and forth; ping enters the cycle.
  // The engine must reach a fixpoint (terminate) and see the pointer at
  // both sites.
  DataflowResult R = flowOf({R"(
    long odd(long (*f)(long), long n);
    long even(long (*f)(long), long n) {
      if (n == 0) return f(0);
      return odd(f, n - 1);
    }
    long odd(long (*f)(long), long n) {
      if (n == 0) return 0;
      return even(f, n - 1);
    }
    long zero(long x) { return x * 0; }
    int main() { return (int)even(zero, 10); }
  )"});
  const SiteFlow *S = siteIn(R, "even");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"zero"}));
  EXPECT_GT(R.Stats.Iterations, 0u);
}

TEST(Dataflow, RecursiveSelfFeedConverges) {
  // A function that passes its own address onward: the call graph cycle
  // is discovered during the fixpoint itself.
  DataflowResult R = flowOf({R"(
    long rec(long (*f)(long), long n) {
      if (n <= 0) return 0;
      return f(n - 1);
    }
    long step(long n) { return rec(step, n); }
    int main() { return (int)rec(step, 5); }
  )"});
  const SiteFlow *S = siteIn(R, "rec");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"step"}));
}

TEST(Dataflow, StructFieldFlow) {
  DataflowResult R = flowOf({R"(
    struct Ops { long (*run)(long); long tag; };
    long twice(long x) { return 2 * x; }
    long call(struct Ops *o, long x) { return o->run(x); }
    int main() {
      struct Ops ops;
      ops.run = twice;
      ops.tag = 7;
      return (int)call(&ops, 3);
    }
  )"});
  const SiteFlow *S = siteIn(R, "call");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"twice"}));
}

TEST(Dataflow, ArrayElementFlow) {
  DataflowResult R = flowOf({R"(
    long a(long x) { return x + 1; }
    long b(long x) { return x + 2; }
    long (*table[2])(long);
    long dispatch(long i, long x) { return table[i](x); }
    int main() {
      table[0] = a;
      table[1] = b;
      return (int)dispatch(0, 1);
    }
  )"});
  const SiteFlow *S = siteIn(R, "dispatch");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"a", "b"}));
}

TEST(Dataflow, CrossModuleGlobalFlow) {
  // The pointer is set in one module and invoked in another; globals
  // unify by name across the set.
  DataflowResult R = flowOf({R"(
    long (*hook)(long);
    long fire(long x) { return hook(x); }
  )",
                             R"(
    long (*hook)(long);
    long handler(long x) { return x ^ 1; }
    int main() {
      hook = handler;
      return (int)fire(9);
    }
    long fire(long x);
  )"});
  const SiteFlow *S = siteIn(R, "fire");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"handler"}));
}

TEST(Dataflow, DlsymLiteralResolves) {
  DataflowResult R = flowOf({R"(
    long transform(long x) { return x * 3; }
    long (*keep)(long) = transform;
    int main() {
      long h = dlopen(0);
      long (*f)(long) = (long (*)(long))dlsym(h, "transform");
      return (int)f(1);
    }
  )"});
  const SiteFlow *S = siteIn(R, "main");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"transform"}));
}

TEST(Dataflow, DlsymNonLiteralIsUnknown) {
  DataflowResult R = flowOf({R"(
    long f1(long x) { return x; }
    long (*keep)(long) = f1;
    int main(int argc, char **argv) {
      long h = dlopen(0);
      long (*f)(long) = (long (*)(long))dlsym(h, argv[0]);
      return (int)f(1);
    }
  )"});
  const SiteFlow *S = siteIn(R, "main");
  ASSERT_NE(S, nullptr);
  // The engine cannot know what was asked for: the site is incomplete,
  // and the CFI type-match fallback binds the matched targets.
  EXPECT_FALSE(S->Complete);
}

TEST(Dataflow, ExternalCalleeMakesArgumentsEscape) {
  DataflowResult R = flowOf({R"(
    long cb(long x) { return x; }
    long ext(long (*f)(long));
    int main() { return (int)ext(cb); }
  )"});
  EXPECT_TRUE(R.EscapedFunctions.count("cb"));
}

TEST(Dataflow, HavocOnStoreThroughUnknownPointer) {
  DataflowResult R = flowOf({R"(
    long *mystery(void);
    int main() {
      long *p = mystery();
      *p = 4;
      return 0;
    }
  )"});
  EXPECT_TRUE(R.Havoc);
  // A layered-map result with no sites bounds no key: the flow engine's
  // contribution alone.
  CFGRefinement Ref = computeRefinement(R, mlta::MltaResult{});
  EXPECT_TRUE(Ref.Allowed.empty());
}

TEST(Dataflow, IncompatibleFlowIsReported) {
  // A two-argument function flows into a one-argument pointer via a
  // cast: the type-matching CFG would reject the edge (K1).
  DataflowResult R = flowOf({R"(
    long add(long x, long y) { return x + y; }
    int main() {
      long (*f)(long) = (long (*)(long))add;
      return (int)f(4);
    }
  )"});
  ASSERT_EQ(R.Incompatible.size(), 1u);
  EXPECT_EQ(R.Incompatible[0].Target, "add");
  EXPECT_FALSE(R.Incompatible[0].Chain.empty());
}

TEST(Dataflow, RefinementNeverWidens) {
  // Every allowed set must be a subset of what type matching permits:
  // refined classes can only shrink.
  Parsed P = parseModules({R"(
    long apply(long (*f)(long), long x) { return f(x); }
    long used(long x) { return x + 1; }
    long unused(long x) { return x + 2; }
    long (*pin)(long) = unused;  /* address-taken but never invoked */
    int main() { return (int)apply(used, 1); }
  )"});
  CFGRefinement Ref = refineProgram(P.Modules);
  auto It = Ref.Allowed.find({"apply", "(i64,)->i64"});
  ASSERT_NE(It, Ref.Allowed.end());
  EXPECT_EQ(It->second, (std::set<std::string>{"used"}));
  for (const auto &[Key, Set] : Ref.Allowed) {
    (void)Key;
    for (const std::string &T : Set) {
      bool Defined = false;
      for (const FlowModule &M : P.Modules)
        if (M.Prog->findFunction(T))
          Defined = true;
      EXPECT_TRUE(Defined) << T;
    }
  }
}

TEST(Dataflow, DuplicateDefinitionsAnalyzedAsUnion) {
  // Two apps sharing a library, each with its own main (the audit view
  // of a multi-program module set): both mains' contributions must be
  // seen, so the shared site's target set is the union.
  DataflowResult R = flowOf({R"(
    long apply(long (*f)(long), long x) { return f(x); }
  )",
                             R"(
    long apply(long (*f)(long), long x);
    long inc(long x) { return x + 1; }
    int main() { return (int)apply(inc, 41); }
  )",
                             R"(
    long apply(long (*f)(long), long x);
    long dec(long x) { return x - 1; }
    int main() { return (int)apply(dec, 100); }
  )"});
  const SiteFlow *S = siteIn(R, "apply");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->Complete);
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"dec", "inc"}));
}

TEST(Dataflow, RefinesAnalyzerResiduals) {
  std::vector<std::string> Errors;
  auto Prog = parseProgram(R"(
    long add(long x, long y) { return x + y; }
    long one(long x) { return x + 1; }
    int main() {
      long (*bad)(long) = (long (*)(long))add;  /* reaches a call: K1 */
      long (*tmp)(long, long) = (long (*)(long, long))one; /* cast away */
      long (*back)(long) = (long (*)(long))tmp; /* and back: K2 */
      long s = bad(3) + back(1);
      return (int)s;
    }
  )",
                           Errors);
  ASSERT_TRUE(Prog) << (Errors.empty() ? "?" : Errors.front());
  ASSERT_TRUE(minic::analyze(*Prog, Errors))
      << (Errors.empty() ? "?" : Errors.front());

  AnalysisReport Rep = analyzeConditions(*Prog);
  unsigned SurvivingBefore = Rep.VAE;
  ASSERT_GE(SurvivingBefore, 2u);

  std::vector<FlowModule> Mods{{Prog.get(), "m0"}};
  DataflowResult Flow = analyzeFunctionPointerFlow(Mods);
  refineResidualsWithFlow(Rep, "m0", Flow);

  EXPECT_EQ(Rep.VAE, SurvivingBefore); // the split changes, not the count
  EXPECT_EQ(Rep.VAE, Rep.K1 + Rep.K2);
  EXPECT_GE(Rep.K1, 1u);
  EXPECT_GE(Rep.K2, 1u);
  bool SawWitness = false;
  for (const C1Violation &V : Rep.C1)
    if (V.Residual == ResidualKind::K1) {
      EXPECT_FALSE(V.Witness.empty());
      SawWitness = true;
    }
  EXPECT_TRUE(SawWitness);
}

//===----------------------------------------------------------------------===//
// End-to-end: refined CFGs still link, verify, and run
//===----------------------------------------------------------------------===//

/// Compiles, refines, links with and without the refinement, runs
/// both, and returns (unrefined, refined) precision. Output must match
/// \p ExpectOutput in both configurations.
std::pair<PrecisionReport, PrecisionReport>
runRefined(const std::vector<std::string> &Sources,
           const std::string &ExpectOutput) {
  std::vector<CompileResult> CRs;
  std::vector<FlowModule> Mods;
  for (size_t I = 0; I < Sources.size(); ++I) {
    CRs.push_back(compileModule(Sources[I],
                                {.ModuleName = "m" + std::to_string(I)}));
    EXPECT_TRUE(CRs.back().Ok)
        << (CRs.back().Errors.empty() ? "?" : CRs.back().Errors.front());
    if (!CRs.back().Ok)
      return {};
    Mods.push_back({CRs.back().Prog.get(), "m" + std::to_string(I)});
  }
  CFGRefinement Ref = refineProgram(Mods);

  PrecisionReport Plain, Refined;
  for (int Pass = 0; Pass < 2; ++Pass) {
    Machine M;
    LinkOptions LO;
    LO.Refinement = Pass ? &Ref : nullptr;
    Linker L(M, LO);
    std::vector<MCFIObject> Objs;
    for (CompileResult &CR : CRs)
      Objs.push_back(CR.Obj); // copy: linked twice
    std::string Error;
    EXPECT_TRUE(L.linkProgram(std::move(Objs), Error)) << Error;
    RunResult R = runProgram(M);
    EXPECT_EQ(R.Reason, StopReason::Exited);
    EXPECT_EQ(M.takeOutput(), ExpectOutput);
    (Pass ? Refined : Plain) = computePrecision(L.policy());
  }
  return {Plain, Refined};
}

TEST(Dataflow, RefinedLinkRunsAndNeverLoosens) {
  auto [Plain, Refined] = runRefined({R"(
    long apply(long (*f)(long), long x) { return f(x); }
    long inc(long x) { return x + 1; }
    long dead(long x) { return x; }
    long (*dead_hook)(long) = dead;  /* address-taken, never invoked */
    int main() {
      print_int(apply(inc, 41));
      return 0;
    }
  )"},
                                     "42\n");
  ASSERT_GT(Plain.NumIBTs, 0u);
  EXPECT_LE(Refined.NumEQCs, Plain.NumEQCs);
  EXPECT_LT(Refined.LargestClass, Plain.LargestClass);
}

TEST(Dataflow, RefinedDlopenStaysConsistent) {
  // The refinement applies to the dlopen-time regeneration as well; the
  // plugin's dlsym'd pointer must still be invocable.
  const char *HostSrc = R"(
    long transform(long x);
    long reduce(long (*fn)(long), long n) {
      long acc = 0;
      long i;
      for (i = 0; i < n; i = i + 1)
        acc = acc + fn(i);
      return acc;
    }
    int main() {
      long h = dlopen(0);
      if (h < 0) return 1;
      long (*fn)(long) = (long (*)(long))dlsym(h, "transform");
      print_int(reduce(fn, 4));
      return 0;
    }
  )";
  const char *PluginSrc = R"(
    long transform(long x) { return x * 3 + 1; }
    long (*exported)(long) = transform;
  )";

  CompileOptions HostCO;
  HostCO.ModuleName = "host";
  HostCO.EmitPlt = true;
  CompileResult Host = compileModule(HostSrc, HostCO);
  CompileResult Plugin = compileModule(PluginSrc, {.ModuleName = "plugin"});
  ASSERT_TRUE(Host.Ok && Plugin.Ok);

  std::vector<FlowModule> Mods{{Host.Prog.get(), "host"},
                               {Plugin.Prog.get(), "plugin"}};
  CFGRefinement Ref = refineProgram(Mods);

  Machine M;
  LinkOptions LO;
  LO.Refinement = &Ref;
  Linker L(M, LO);
  std::string Error;
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(Host.Obj));
  ASSERT_TRUE(L.linkProgram(std::move(Objs), Error)) << Error;
  L.registerLibrary(std::move(Plugin.Obj));
  RunResult R = runProgram(M);
  EXPECT_EQ(R.Reason, StopReason::Exited);
  EXPECT_EQ(M.takeOutput(), "22\n"); // 1+4+7+10
}

} // namespace
