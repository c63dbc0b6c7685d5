//===- tests/MltaTest.cpp - Multi-layer type analysis tests ---------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the multi-layer type analysis: chain construction through
/// nested enclosing records, the prefix compatibility rule, escape
/// fallbacks (unions, incompatible casts, address-of-field, variadic
/// sinks, unannotated asm), struct-copy propagation, cyclic store/load
/// move fixpoints, the per-site MLTA ⊆ FLTA invariant, and end-to-end
/// MLTA-refined builds on every execution tier.
///
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "metrics/Metrics.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "mlta/Mlta.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace mcfi;
using namespace mcfi::minic;

namespace {

struct Parsed {
  std::vector<std::unique_ptr<Program>> Programs;
  std::vector<FlowModule> Modules;
};

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

mlta::MltaResult mltaOf(const std::vector<std::string> &Sources) {
  Parsed P = parseModules(Sources);
  return mlta::analyzeLayeredTypes(P.Modules);
}

const mlta::MltaSite *siteIn(const mlta::MltaResult &R,
                             const std::string &Caller) {
  for (const mlta::MltaSite &S : R.Sites)
    if (S.Caller == Caller)
      return &S;
  return nullptr;
}

bool isSubset(const std::vector<std::string> &A,
              const std::vector<std::string> &B) {
  std::set<std::string> SB(B.begin(), B.end());
  return std::all_of(A.begin(), A.end(),
                     [&](const std::string &X) { return SB.count(X) > 0; });
}

/// Every refined site's target set must sit inside its FLTA set — the
/// soundness differential, asserted wherever a result is produced.
void expectSubsetEverywhere(const mlta::MltaResult &R) {
  for (const mlta::MltaSite &S : R.Sites)
    if (S.Refined) {
      EXPECT_TRUE(isSubset(S.Targets, S.Flta))
          << S.Caller << ": MLTA set escapes the FLTA set";
    }
}

//===----------------------------------------------------------------------===//
// Chain splitting and nesting
//===----------------------------------------------------------------------===//

TEST(Mlta, SplitsCrossRegistryClasses) {
  mlta::MltaResult R = mltaOf({R"(
    struct HookA { long tag; long (*fn)(long); };
    struct HookB { long t0; long t1; long (*fn)(long); };
    long ha_one(long x) { return x + 1; }
    long hb_one(long x) { return x * 2; }
    struct HookA ha;
    struct HookB hb;
    long run_a(long x) { return ha.fn(x); }
    long run_b(long x) { return hb.fn(x); }
    int main() {
      ha.fn = ha_one;
      hb.fn = hb_one;
      return (int)(run_a(1) + run_b(2));
    }
  )"});
  EXPECT_FALSE(R.Havoc);
  const mlta::MltaSite *A = siteIn(R, "run_a");
  const mlta::MltaSite *B = siteIn(R, "run_b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  // FLTA merges both handlers (same signature); MLTA splits by chain.
  EXPECT_TRUE(A->Refined);
  EXPECT_TRUE(B->Refined);
  EXPECT_EQ(A->Flta, (std::vector<std::string>{"ha_one", "hb_one"}));
  EXPECT_EQ(A->Targets, (std::vector<std::string>{"ha_one"}));
  EXPECT_EQ(B->Targets, (std::vector<std::string>{"hb_one"}));
  // Witness chains: one per refined target, store then load.
  ASSERT_EQ(A->Witness.size(), A->Targets.size());
  ASSERT_GE(A->Witness[0].size(), 2u);
  EXPECT_NE(A->Witness[0].front().Desc.find("stored"), std::string::npos);
  expectSubsetEverywhere(R);
}

TEST(Mlta, NestedEnclosingChainsAndPrefixRule) {
  mlta::MltaResult R = mltaOf({R"(
    struct Inner { long pad; long (*f)(long); };
    struct Outer { long tag; struct Inner in; };
    long g1(long x) { return x + 1; }
    long g2(long x) { return x + 2; }
    long g3(long x) { return x + 3; }
    struct Outer o;
    struct Inner other;
    long run_nested(long x) { return o.in.f(x); }
    long run_other(long x) { return other.f(x); }
    int main() {
      o.in.f = g1;               /* two-layer chain Outer.in->Inner.f */
      struct Inner *ip = &o.in;  /* pointer into the nested instance */
      ip->f = g2;                /* one-layer chain: prefix-compatible */
      other.f = g3;              /* sibling Inner instance, var-rooted */
      return (int)(run_nested(1) + run_other(2));
    }
  )"});
  EXPECT_FALSE(R.Havoc);
  const mlta::MltaSite *N = siteIn(R, "run_nested");
  ASSERT_NE(N, nullptr);
  ASSERT_TRUE(N->Refined) << N->FallbackWhy;
  // The two-layer load observes the exact-path store AND the
  // pointer-rooted one-layer store (ip may designate o.in), AND the
  // var-rooted store into the sibling instance (a one-layer prefix:
  // `other` could be reached through a pointer the chains never see is
  // NOT the rule — var-rooted stores keep their one-layer chain, which
  // is a prefix of the nested load chain).
  EXPECT_EQ(N->Targets, (std::vector<std::string>{"g1", "g2", "g3"}));
  // The load chain is innermost-first: Inner.f, then Outer.in.
  ASSERT_EQ(N->Chain.size(), 2u);
  EXPECT_EQ(N->Chain[0].FieldIndex, 1u);
  EXPECT_EQ(N->Chain[1].FieldIndex, 1u);
  expectSubsetEverywhere(R);
}

TEST(Mlta, DistinctRecordsDoNotPrefixMatch) {
  mlta::MltaResult R = mltaOf({R"(
    struct P { long (*f)(long); long a; };
    struct Q { long a; long b; long (*f)(long); };
    long pf(long x) { return x + 1; }
    long qf(long x) { return x + 2; }
    struct P p;
    struct Q q;
    long run_p(long x) { return p.f(x); }
    int main() {
      p.f = pf;
      q.f = qf;
      return (int)run_p(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_p");
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->Refined) << S->FallbackWhy;
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"pf"}));
  EXPECT_EQ(S->Flta, (std::vector<std::string>{"pf", "qf"}));
}

//===----------------------------------------------------------------------===//
// Escape fallbacks
//===----------------------------------------------------------------------===//

TEST(Mlta, UnionFallsBackToFlta) {
  mlta::MltaResult R = mltaOf({R"(
    union U { long raw; long (*fn)(long); };
    long h1(long x) { return x + 1; }
    long h2(long x) { return x * 2; }
    union U u;
    long (*other)(long) = h2;
    long run_u(long x) { return u.fn(x); }
    int main() {
      u.fn = h1;
      return (int)run_u(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_u");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->Refined);
  EXPECT_FALSE(S->FallbackWhy.empty());
  // The FLTA set still stands: both address-taken handlers.
  EXPECT_EQ(S->Flta, (std::vector<std::string>{"h1", "h2"}));
  EXPECT_FALSE(R.EscapedRecords.empty());
}

TEST(Mlta, IncompatibleRecordCastFallsBack) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long tag; long (*fn)(long); };
    struct B { long t0; long t1; long (*fn)(long); };
    long fa(long x) { return x + 1; }
    long fb(long x) { return x * 2; }
    struct A a;
    struct B b;
    long run_a(long x) { return a.fn(x); }
    int main() {
      a.fn = fa;
      b.fn = fb;
      struct B *alias = (struct B *)&a;   /* reinterpreted view */
      return (int)run_a(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_a");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->Refined);
  EXPECT_NE(S->FallbackWhy.find("escape"), std::string::npos)
      << S->FallbackWhy;
}

TEST(Mlta, AddressOfFunctionPointerFieldFallsBack) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long tag; long (*fn)(long); };
    long fa(long x) { return x + 1; }
    long fb(long x) { return x * 2; }
    struct A a;
    long (*spare)(long) = fb;
    long run_a(long x) { return a.fn(x); }
    int main() {
      a.fn = fa;
      long (**cell)(long) = &a.fn;  /* raw view of the cell */
      return (int)run_a(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_a");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->Refined);
  // Address-of a *non*-function-pointer field must not poison anything.
  mlta::MltaResult R2 = mltaOf({R"(
    struct A { long tag; long (*fn)(long); };
    long fa(long x) { return x + 1; }
    struct A a;
    long run_a(long x) { return a.fn(x); }
    int main() {
      a.fn = fa;
      long *t = &a.tag;
      return (int)run_a(1);
    }
  )"});
  const mlta::MltaSite *S2 = siteIn(R2, "run_a");
  ASSERT_NE(S2, nullptr);
  EXPECT_TRUE(S2->Refined) << S2->FallbackWhy;
}

TEST(Mlta, VariadicSinkEscapesRecord) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long tag; long (*fn)(long); };
    long fa(long x) { return x + 1; }
    long fb(long x) { return x * 2; }
    long (*spare)(long) = fb;
    struct A a;
    long vsink(long n, ...) { return n; }
    long run_a(long x) { return a.fn(x); }
    int main() {
      a.fn = fa;
      vsink(1, &a);   /* the record rides a variadic argument list */
      return (int)run_a(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_a");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->Refined);
  EXPECT_FALSE(R.EscapedRecords.empty());
}

TEST(Mlta, UnannotatedAsmHavocsEverything) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long tag; long (*fn)(long); };
    long fa(long x) { return x + 1; }
    struct A a;
    long run_a(long x) { return a.fn(x); }
    int main() {
      a.fn = fa;
      __asm__("nop");
      return (int)run_a(1);
    }
  )"});
  EXPECT_TRUE(R.Havoc);
  for (const mlta::MltaSite &S : R.Sites)
    EXPECT_FALSE(S.Refined);
  CFGRefinement Ref = mlta::computeMltaRefinement(R);
  EXPECT_TRUE(Ref.Allowed.empty());
}

//===----------------------------------------------------------------------===//
// Copy propagation and fixpoints
//===----------------------------------------------------------------------===//

TEST(Mlta, StructCopyThroughLocalPropagates) {
  // MiniC has no record-valued assignment, but record-typed locals can
  // be initialized from a member path; var-rooted chains observe the
  // deeper stores through the prefix rule.
  mlta::MltaResult R = mltaOf({R"(
    struct Inner { long pad; long (*f)(long); };
    struct Outer { long tag; struct Inner in; };
    long g1(long x) { return x + 1; }
    struct Outer o;
    long run_copy(long x) {
      struct Inner c = o.in;
      return c.f(x);
    }
    int main() {
      o.in.f = g1;
      return (int)run_copy(1);
    }
  )"});
  const mlta::MltaSite *S = siteIn(R, "run_copy");
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->Refined) << S->FallbackWhy;
  EXPECT_EQ(S->Targets, (std::vector<std::string>{"g1"}));
}

TEST(Mlta, FieldToFieldMovesPropagate) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long t; long (*f)(long); };
    struct B { long t0; long t1; long (*f)(long); };
    long seed_a(long x) { return x + 1; }
    long seed_b(long x) { return x * 2; }
    struct A a;
    struct B b;
    long run_a(long x) { return a.f(x); }
    long run_b(long x) { return b.f(x); }
    int main() {
      a.f = seed_a;
      b.f = seed_b;
      a.f = b.f;        /* move B's store set into A's chain */
      return (int)(run_a(1) + run_b(2));
    }
  )"});
  const mlta::MltaSite *A = siteIn(R, "run_a");
  const mlta::MltaSite *B = siteIn(R, "run_b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(A->Refined) << A->FallbackWhy;
  ASSERT_TRUE(B->Refined) << B->FallbackWhy;
  // A's chain gained B's seed through the move; B is unaffected.
  EXPECT_EQ(A->Targets, (std::vector<std::string>{"seed_a", "seed_b"}));
  EXPECT_EQ(B->Targets, (std::vector<std::string>{"seed_b"}));
  expectSubsetEverywhere(R);
}

TEST(Mlta, CyclicMovesReachFixpoint) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long t; long (*f)(long); };
    struct B { long t0; long t1; long (*f)(long); };
    long seed_a(long x) { return x + 1; }
    long seed_b(long x) { return x * 2; }
    struct A a;
    struct B b;
    long run_a(long x) { return a.f(x); }
    long run_b(long x) { return b.f(x); }
    int main() {
      long i;
      a.f = seed_a;
      b.f = seed_b;
      for (i = 0; i < 4; i = i + 1) {
        a.f = b.f;      /* cyclic store/load chain: a <-> b */
        b.f = a.f;
      }
      return (int)(run_a(1) + run_b(2));
    }
  )"});
  const mlta::MltaSite *A = siteIn(R, "run_a");
  const mlta::MltaSite *B = siteIn(R, "run_b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(A->Refined) << A->FallbackWhy;
  ASSERT_TRUE(B->Refined) << B->FallbackWhy;
  // The cycle converges: both chains carry both seeds, and the fixpoint
  // terminated well below the engine's iteration cap.
  EXPECT_EQ(A->Targets, (std::vector<std::string>{"seed_a", "seed_b"}));
  EXPECT_EQ(B->Targets, (std::vector<std::string>{"seed_a", "seed_b"}));
  EXPECT_LT(R.Stats.Iterations, 64u);
  expectSubsetEverywhere(R);
}

//===----------------------------------------------------------------------===//
// Refinement construction
//===----------------------------------------------------------------------===//

TEST(Mlta, RefinementDropsKeysCoveringFallbackSites) {
  // Two icalls with the same (caller, signature) key: one through a
  // chain, one through a plain variable. Intersection-only refinement
  // must drop the whole key rather than constrain the fallback site.
  mlta::MltaResult R = mltaOf({R"(
    struct A { long t; long (*f)(long); };
    long fa(long x) { return x + 1; }
    long fb(long x) { return x * 2; }
    struct A a;
    long (*plain)(long);
    long run_both(long x) {
      long r = a.f(x);
      return r + plain(x);
    }
    int main() {
      a.f = fa;
      plain = fb;
      return (int)run_both(1);
    }
  )"});
  CFGRefinement Ref = mlta::computeMltaRefinement(R);
  for (const auto &[Key, Fns] : Ref.Allowed) {
    (void)Fns;
    EXPECT_NE(Key.first, "run_both")
        << "key covering a fallback site must be dropped";
  }
}

TEST(Mlta, EscapedFunctionValuesArePinned) {
  mlta::MltaResult R = mltaOf({R"(
    struct A { long t; long (*f)(long); };
    long fa(long x) { return x + 1; }
    long fesc(long x) { return x * 2; }
    struct A a;
    long run_a(long x) { return a.f(x); }
    int main() {
      a.f = fa;
      long v = (long)fesc;   /* value-level escape: stays a target */
      return (int)(run_a(1) + v);
    }
  )"});
  CFGRefinement Ref = mlta::computeMltaRefinement(R);
  EXPECT_TRUE(Ref.KeepTargets.count("fesc"));
}

//===----------------------------------------------------------------------===//
// Whole-program invariants and end-to-end builds
//===----------------------------------------------------------------------===//

TEST(Mlta, SubsetInvariantOverWorkloadProfiles) {
  // The soundness differential over real corpus programs: every refined
  // site of every bench profile must satisfy MLTA ⊆ FLTA.
  for (size_t I = 0; I < specProfiles().size(); I += 4) {
    const BenchProfile &P = specProfiles()[I];
    std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
    mlta::MltaResult R = mltaOf({Source, runtimeLibrarySource()});
    EXPECT_FALSE(R.Sites.empty()) << P.Name;
    expectSubsetEverywhere(R);
    size_t Refined = 0;
    for (const mlta::MltaSite &S : R.Sites)
      Refined += S.Refined;
    EXPECT_GT(Refined, 0u) << P.Name << ": nothing refined";
  }
}

class MltaTierSuite : public ::testing::TestWithParam<ExecTier> {};

TEST_P(MltaTierSuite, RefinedBuildRunsIdentically) {
  // An MLTA-refined build must behave exactly like the type-matched
  // build on every tier, while strictly improving the policy.
  const BenchProfile &P = specProfiles()[1]; // bzip2: smallest mix
  BenchProfile Small = P;
  Small.WorkIterations = 20;
  std::string Source = generateWorkload(Small, WorkloadVariant::Fixed);

  BuildSpec Plain;
  Plain.Tier = GetParam();
  BuiltProgram BP = buildProgram({Source}, Plain);
  ASSERT_TRUE(BP.Ok) << BP.Error;
  Measured MP = measureRun(BP);
  ASSERT_EQ(MP.Result.Reason, StopReason::Exited) << MP.Result.Message;
  PrecisionReport Flta = computePrecision(BP.L->policy());

  BuildSpec Spec;
  Spec.Tier = GetParam();
  Spec.Mlta = true;
  BuiltProgram BM = buildProgram({Source}, Spec);
  ASSERT_TRUE(BM.Ok) << BM.Error;
  ASSERT_NE(BM.Refinement, nullptr);
  ASSERT_NE(BM.Mlta, nullptr);
  Measured MM = measureRun(BM);
  ASSERT_EQ(MM.Result.Reason, StopReason::Exited) << MM.Result.Message;
  EXPECT_EQ(MM.Output, MP.Output);
  EXPECT_EQ(MM.Result.ExitCode, MP.Result.ExitCode);

  PrecisionReport Mlta = computePrecision(BM.L->policy());
  EXPECT_LT(Mlta.LargestClass, Flta.LargestClass);
  EXPECT_GE(Mlta.NumEQCs, Flta.NumEQCs);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, MltaTierSuite,
                         ::testing::Values(ExecTier::Interpreter,
                                           ExecTier::Threaded),
                         [](const auto &Info) {
                           return Info.param == ExecTier::Interpreter
                                      ? "Interpreter"
                                      : "Threaded";
                         });

} // namespace
