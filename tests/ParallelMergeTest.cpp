//===- tests/ParallelMergeTest.cpp - CFG merge vs reference differential --===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// generateCFG forms equivalence classes per target-set key and per
/// return class; generateCFGReference materialises every site's target
/// list. Their contract is *byte identity*: same ECN assignment, same
/// branch classes and sizes, same index bases and statistics, for every
/// module order, refinement and tombstone layout. These tests pin that
/// contract over the workload corpus, randomised profiles, dataflow- and
/// MLTA-refined builds, dlclose churn and hand-built edge cases, plus
/// the hash-consing layer underneath (interner pointer identity, the
/// variadic prefix rule over interned parts, per-module signature-cache
/// hits) and the dlopen batch coalescing on top.
///
//===----------------------------------------------------------------------===//

#include "cfg/CFGReference.h"
#include "cfg/SigCache.h"
#include "cfg/SigMatch.h"
#include "dataflow/Dataflow.h"
#include "metrics/Harness.h"
#include "metrics/UpdateMetrics.h"
#include "support/RNG.h"
#include "tables/ID.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace mcfi;

namespace {

//===----------------------------------------------------------------------===//
// Workload: several modules with cross-module indirect control flow
//===----------------------------------------------------------------------===//

const char *ModuleA = R"(
long cb_add(long x) { return x + 3; }
long cb_mul(long x) { return x * 7; }
long two_args(long x, long y) { return x - y; }
long (*a_pair)(long, long) = two_args;
long a_drive(long i, long v) {
  long (*tab[2])(long);
  tab[0] = cb_add;
  tab[1] = cb_mul;
  return tab[i & 1](v);
}
)";

const char *ModuleB = R"(
long a_drive(long i, long v);
long cb_neg(long x) { return -x; }
long (*b_keep)(long) = cb_neg;
long b_dispatch(long (*f)(long), long v) { return f(v) + a_drive(1, v); }
long vsum(long n, ...) { return n; }
long vmax(long n, long m, ...) { return n > m ? n : m; }
long (*b_var)(long, ...) = vsum;
long (*b_var2)(long, long, ...) = vmax;
long b_varcall(long v) { return b_var(v); }
)";

const char *ModuleMain = R"(
long b_dispatch(long (*f)(long), long v);
long cb_add(long x);
long local_cb(long x) { return x ^ 21; }
int main() {
  print_int(b_dispatch(local_cb, 5));
  print_int(b_dispatch(cb_add, 5));
  return 0;
}
)";

//===----------------------------------------------------------------------===//
// Exact policy comparison
//===----------------------------------------------------------------------===//

void expectPolicyEqual(const CFGPolicy &A, const CFGPolicy &B,
                       const std::string &What) {
  EXPECT_EQ(A.TargetECN, B.TargetECN) << What;
  EXPECT_EQ(A.BranchECN, B.BranchECN) << What;
  EXPECT_EQ(A.BranchClassSize, B.BranchClassSize) << What;
  EXPECT_EQ(A.SiteIndexBase, B.SiteIndexBase) << What;
  EXPECT_EQ(A.SetjmpRetSites, B.SetjmpRetSites) << What;
  EXPECT_EQ(A.NumIBs, B.NumIBs) << What;
  EXPECT_EQ(A.NumIBTs, B.NumIBTs) << What;
  EXPECT_EQ(A.NumEQCs, B.NumEQCs) << What;
}

/// generateCFG over \p Views must equal the reference generator's
/// policy; returns it for further checks.
CFGPolicy expectMatchesReference(const std::vector<LoadedModuleView> &Views,
                                 const CFGRefinement *Ref,
                                 const std::string &What) {
  CFGPolicy Merge = generateCFG(Views, Ref);
  expectPolicyEqual(Merge, generateCFGReference(Views, Ref), What);
  return Merge;
}

/// Synthetic page-aligned layout for a module order.
std::vector<LoadedModuleView>
layoutViews(const std::vector<const MCFIObject *> &Order) {
  std::vector<LoadedModuleView> Views;
  uint64_t Base = 0x400000;
  for (const MCFIObject *Obj : Order) {
    Views.push_back({Obj, Base});
    Base += (Obj->Code.size() + 0xFFF) & ~0xFFFull;
  }
  return Views;
}

/// Checks \p Objs in declaration order and \p Shuffles seeded shuffles.
void expectOrdersMatchReference(const std::vector<const MCFIObject *> &Objs,
                                const CFGRefinement *Ref, unsigned Shuffles,
                                const std::string &What) {
  std::vector<const MCFIObject *> Order = Objs;
  std::mt19937 Rng(0x5eedu);
  for (unsigned Round = 0; Round != 1 + Shuffles; ++Round) {
    if (Round)
      std::shuffle(Order.begin(), Order.end(), Rng);
    expectMatchesReference(layoutViews(Order), Ref,
                           What + " round=" + std::to_string(Round));
  }
}

/// The views a linker merges: live modules plus tombstones.
std::vector<LoadedModuleView> viewsOf(const Machine &M) {
  std::vector<LoadedModuleView> Views;
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired)
      Views.push_back({nullptr, Mod.CodeBase, Mod.TombstoneSites});
    else
      Views.push_back({Mod.Obj.get(), Mod.CodeBase});
  }
  return Views;
}

MCFIObject compileOrDie(const std::string &Source, const std::string &Name) {
  CompileOptions CO;
  CO.ModuleName = Name;
  CO.EmitPlt = true;
  CompileResult CR = compileModule(Source, CO);
  EXPECT_TRUE(CR.Ok) << Name << ": "
                     << (CR.Errors.empty() ? "?" : CR.Errors.front());
  return std::move(CR.Obj);
}

const MCFIObject &runtimeObject() {
  static const MCFIObject Rt = compileOrDie(runtimeLibrarySource(), "rt");
  return Rt;
}

/// FuzzTest-style random profile.
BenchProfile randomProfile(uint64_t Seed) {
  RNG R(Seed);
  BenchProfile P;
  P.Name = "rand" + std::to_string(Seed);
  P.Functions = static_cast<unsigned>(R.range(4, 60));
  P.FnPtrTypes = static_cast<unsigned>(R.range(1, 9));
  P.AddressTakenPct = static_cast<unsigned>(R.range(20, 100));
  P.Switches = static_cast<unsigned>(R.range(0, 4));
  P.VariadicWorkers = static_cast<unsigned>(R.range(0, 3));
  P.IndirectCallPct = static_cast<unsigned>(R.range(0, 100));
  P.K1Cases = static_cast<unsigned>(R.range(0, 3));
  P.K2Cases = static_cast<unsigned>(R.range(1, 5));
  P.Seed = Seed * 7919 + 13;
  return P;
}

//===----------------------------------------------------------------------===//
// Compiled corpora
//===----------------------------------------------------------------------===//

TEST(MergeDifferential, SpecProfilesEveryVariant) {
  for (const BenchProfile &P : specProfiles()) {
    for (WorkloadVariant V : {WorkloadVariant::Fixed, WorkloadVariant::Raw}) {
      std::string What = P.Name + (V == WorkloadVariant::Raw ? " raw" : "");
      MCFIObject Obj = compileOrDie(generateWorkload(P, V), P.Name);
      expectOrdersMatchReference({&Obj, &runtimeObject()}, nullptr, 1, What);
    }
  }
}

TEST(MergeDifferential, RandomProfiles) {
  for (uint64_t Seed = 1; Seed != 17; ++Seed) {
    BenchProfile P = randomProfile(Seed);
    MCFIObject Obj =
        compileOrDie(generateWorkload(P, WorkloadVariant::Fixed), P.Name);
    MCFIObject A = compileOrDie(ModuleA, "libA");
    expectOrdersMatchReference({&Obj, &runtimeObject(), &A}, nullptr, 2,
                               P.Name);
  }
}

TEST(MergeDifferential, LinkedProgramsWithBootstrap) {
  // The linker's bootstrap module exports sig$return, so these views
  // carry the signal-handler trampoline edge.
  BuiltProgram BP = buildProgram({ModuleMain, ModuleA, ModuleB});
  ASSERT_TRUE(BP.Ok) << BP.Error;
  std::vector<LoadedModuleView> Views = viewsOf(*BP.M);
  CFGPolicy P = expectMatchesReference(Views, nullptr, "linked");
  expectPolicyEqual(P, BP.L->policy(), "linked vs installed");
  ASSERT_GT(P.NumIBs, 0u);
  ASSERT_GT(P.NumEQCs, 0u);
  std::mt19937 Rng(0x5eedu);
  for (int Round = 0; Round != 6; ++Round) {
    std::shuffle(Views.begin(), Views.end(), Rng);
    expectMatchesReference(Views, nullptr, "round=" + std::to_string(Round));
  }
}

TEST(MergeDifferential, DataflowRefinedBuilds) {
  const char *DeadHook = R"(
    long apply(long (*f)(long), long x) { return f(x); }
    long inc(long x) { return x + 1; }
    long dead(long x) { return x; }
    long (*dead_hook)(long) = dead;  /* address-taken, never invoked */
    long fwd(long x) { return apply(inc, x); }
  )";
  std::vector<std::string> Sources = {ModuleMain, ModuleA, ModuleB, DeadHook,
                                      generateWorkload(randomProfile(7),
                                                       WorkloadVariant::Fixed)};
  std::vector<CompileResult> CRs;
  std::vector<FlowModule> Mods;
  for (size_t I = 0; I != Sources.size(); ++I) {
    std::string Name = "m" + std::to_string(I);
    CRs.push_back(compileModule(Sources[I], {.ModuleName = Name}));
    ASSERT_TRUE(CRs.back().Ok) << Name;
    Mods.push_back({CRs.back().Prog.get(), Name});
  }
  CFGRefinement Ref = computeRefinement(analyzeFunctionPointerFlow(Mods));
  ASSERT_FALSE(Ref.Allowed.empty());

  std::vector<const MCFIObject *> Objs;
  for (const CompileResult &CR : CRs)
    Objs.push_back(&CR.Obj);
  expectOrdersMatchReference(Objs, &Ref, 3, "dataflow");
  // Refinement must actually drop a target here (dead_hook's callee).
  std::vector<LoadedModuleView> Views = layoutViews(Objs);
  EXPECT_LT(generateCFG(Views, &Ref).NumIBTs, generateCFG(Views).NumIBTs);
}

TEST(MergeDifferential, MltaRefinedBuilds) {
  BuildSpec Spec;
  Spec.Mlta = true;
  for (const BenchProfile &P : specProfiles()) {
    BuiltProgram BP =
        buildProgram({generateWorkload(P, WorkloadVariant::Fixed)}, Spec);
    ASSERT_TRUE(BP.Ok) << P.Name << ": " << BP.Error;
    ASSERT_TRUE(BP.Refinement);
    CFGPolicy Merge = expectMatchesReference(viewsOf(*BP.M),
                                             BP.Refinement.get(), P.Name);
    expectPolicyEqual(Merge, BP.L->policy(), P.Name + " installed");
  }
}

//===----------------------------------------------------------------------===//
// Tombstones after dlclose churn
//===----------------------------------------------------------------------===//

std::string pluginSource(unsigned N) {
  std::string P = "p" + std::to_string(N);
  std::string S = "long " + P + "_a(long x) { return x + " +
                  std::to_string(N) + "; }\n";
  S += "long " + P + "_b(long x) { return x * 3; }\n";
  S += "long (*" + P + "_keep)(long) = " + P + "_a;\n";
  S += "long " + P + "_drive(long (*f)(long), long v) { return f(v) + " + P +
       "_b(v); }\n";
  S += "long " + P + "_tail(long v) { return " + P + "_drive(" + P +
       "_a, v); }\n";
  if (N % 2)
    S += "long " + P + "_pair(long x, long y) { return x - y; }\n"
         "long (*" + P + "_pk)(long, long) = " + P + "_pair;\n";
  return S;
}

struct DynProgram {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
  bool Ok = false;
  std::string Error;
};

const char *DynHost = R"(
long local_cb(long x) { return x + 1; }
long (*host_keep)(long) = local_cb;
int main() { return 0; }
)";

/// Host linked; libA (0), libB (1) and \p Extra generated plugins
/// registered.
DynProgram buildDynamic(unsigned Extra = 0) {
  DynProgram D;
  D.M = std::make_unique<Machine>();
  D.L = std::make_unique<Linker>(*D.M);
  std::vector<MCFIObject> Objs;
  Objs.push_back(compileOrDie(DynHost, "host"));
  if (!D.L->linkProgram(std::move(Objs), D.Error))
    return D;
  // libB imports a_drive from libA through its PLT.
  D.L->registerLibrary(compileOrDie(ModuleA, "libA"));
  D.L->registerLibrary(compileOrDie(ModuleB, "libB"));
  for (unsigned I = 0; I != Extra; ++I)
    D.L->registerLibrary(
        compileOrDie(pluginSource(I), "plug" + std::to_string(I)));
  D.Ok = true;
  return D;
}

TEST(MergeDifferential, TombstonedViewsAfterDlcloseChurn) {
  constexpr unsigned Extra = 6;
  DynProgram D = buildDynamic(Extra);
  ASSERT_TRUE(D.Ok) << D.Error;
  RNG R(0xc1u);
  std::vector<int64_t> Live;
  unsigned Tombstones = 0;
  for (int Step = 0; Step != 48; ++Step) {
    std::string What = "step " + std::to_string(Step);
    if (Live.size() < 2 || (Live.size() < 6 && R.chancePercent(60))) {
      int64_t H = D.L->dlopen(static_cast<int64_t>(R.below(2 + Extra)));
      ASSERT_GE(H, 0) << What << ": " << D.L->lastError();
      Live.push_back(H);
      What += " dlopen";
    } else {
      size_t Pick = R.below(Live.size());
      ASSERT_TRUE(D.L->dlcloseOne(Live[Pick])) << What;
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Pick));
      ++Tombstones;
      What += " dlclose";
    }
    CFGPolicy P = expectMatchesReference(viewsOf(*D.M), nullptr, What);
    expectPolicyEqual(P, D.L->policy(), What + " installed");
  }
  EXPECT_GT(Tombstones, 10u);
}

//===----------------------------------------------------------------------===//
// Hand-built aux worlds
//===----------------------------------------------------------------------===//

/// Builds one module's aux info by hand; offsets are allocated in order.
struct AuxBuilder {
  MCFIObject Obj;
  uint64_t Next = 0;

  explicit AuxBuilder(std::string Name) { Obj.Name = std::move(Name); }

  uint64_t fn(const std::string &Name, const std::string &Sig,
              bool AddressTaken = false) {
    FunctionInfo F;
    F.Name = Name;
    F.TypeSig = Sig;
    F.CodeOffset = alloc(16);
    F.AddressTaken = AddressTaken;
    F.Variadic = Sig.find("...") != std::string::npos;
    Obj.Aux.Functions.push_back(F);
    return F.CodeOffset;
  }
  /// Returns the local site id.
  uint32_t site(BranchKind Kind, const std::string &Fn,
                const std::string &Sig = "", bool Variadic = false,
                const std::string &Plt = "") {
    BranchSite B;
    B.Kind = Kind;
    B.BranchOffset = alloc(8);
    B.Function = Fn;
    B.TypeSig = Sig;
    B.VariadicPointer = Variadic;
    B.PltSymbol = Plt;
    Obj.Aux.BranchSites.push_back(B);
    return static_cast<uint32_t>(Obj.Aux.BranchSites.size() - 1);
  }
  uint32_t ret(const std::string &Fn) { return site(BranchKind::Return, Fn); }
  /// Direct call; returns the return-site offset.
  uint64_t call(const std::string &Caller, const std::string &Callee) {
    CallSiteInfo C;
    C.Caller = Caller;
    C.Callee = Callee;
    C.RetSiteOffset = alloc(8);
    Obj.Aux.CallSites.push_back(C);
    return C.RetSiteOffset;
  }
  /// Indirect call (branch site plus call site); returns the site id.
  uint32_t icall(const std::string &Caller, const std::string &Sig,
                 bool Variadic = false) {
    CallSiteInfo C;
    C.Caller = Caller;
    C.Direct = false;
    C.TypeSig = Sig;
    C.VariadicPointer = Variadic;
    C.RetSiteOffset = alloc(8);
    Obj.Aux.CallSites.push_back(C);
    return site(BranchKind::IndirectCall, Caller, Sig, Variadic);
  }
  void tail(const std::string &Caller, const std::string &Callee) {
    TailCallInfo T;
    T.Caller = Caller;
    T.Callee = Callee;
    Obj.Aux.TailCalls.push_back(T);
  }

  uint64_t alloc(uint64_t Bytes) {
    uint64_t At = Next;
    Next += Bytes;
    return At;
  }
};

TEST(MergeDifferential, HandBuiltEdgeCases) {
  AuxBuilder B("edges");
  B.fn("main", "()->i32");
  B.ret("main");

  // A non-returning callee merges nothing: its callers' return sites
  // stay in separate classes.
  B.fn("noret", "()->v");
  uint64_t NrA = B.call("main", "noret");
  uint64_t NrB = B.call("main", "noret");

  // A tail chain through a non-returning function: g1 and g2 tail-call
  // hop, which never returns itself but tail-calls the returning h.
  B.fn("g1", "()->v");
  B.fn("g2", "()->v");
  B.fn("hop", "()->v");
  B.fn("h", "()->v");
  B.tail("g1", "hop");
  B.tail("g2", "hop");
  B.tail("hop", "h");
  uint32_t HRet = B.ret("h");
  uint64_t ViaG1 = B.call("main", "g1");
  uint64_t ViaG2 = B.call("main", "g2");
  // ...and a chain that ends without any return.
  B.fn("g3", "()->v");
  B.fn("sink", "()->v");
  B.tail("g3", "sink");
  uint64_t ViaG3 = B.call("main", "g3");

  // An uncalled returning function tail-calling two returning ones must
  // not join their (disjoint) return classes.
  B.fn("uncalled", "()->v");
  B.fn("ra", "()->v");
  B.fn("rb", "()->v");
  B.tail("uncalled", "ra");
  B.tail("uncalled", "rb");
  uint32_t UncalledRet = B.ret("uncalled");
  B.ret("ra");
  B.ret("rb");
  uint64_t ToRa = B.call("main", "ra");
  uint64_t ToRb = B.call("main", "rb");

  // Signal-handler-typed targets return to the sigreturn trampoline,
  // called or not.
  uint64_t Tramp = B.fn("sig$return", "()->v");
  B.fn("handler", SignalHandlerSig, /*AddressTaken=*/true);
  uint32_t HandlerRet = B.ret("handler");
  B.fn("handler2", SignalHandlerSig, /*AddressTaken=*/true);
  uint32_t Handler2Ret = B.ret("handler2");
  B.call("main", "handler2");

  // PLT-only targets (not address-taken) and an unresolved PLT symbol.
  B.fn("plt_only", "(i64,)->i64");
  uint32_t Plt1 = B.site(BranchKind::PltJump, "", "", false, "plt_only");
  uint32_t Plt2 = B.site(BranchKind::PltJump, "", "", false, "plt_only");
  uint32_t PltMissing = B.site(BranchKind::PltJump, "", "", false, "nowhere");

  // Variadic pointers: the fixed-prefix rule matches vsum, vmax and
  // exact, not other.
  B.fn("vsum", "(i64,...)->i64", true);
  B.fn("vmax", "(i64,i64,...)->i64", true);
  B.fn("exact", "(i64,i64,)->i64", true);
  B.fn("other", "(f64,)->i64", true);
  uint32_t VarSite = B.icall("main", "(i64,...)->i64", /*Variadic=*/true);
  B.site(BranchKind::IndirectJump, "main", "(i64,...)->i64", true);
  uint32_t NoTarget = B.icall("main", "(i8,)->i8");

  const uint64_t Base = 0x10000;
  std::vector<LoadedModuleView> Views = {{&B.Obj, Base}};
  CFGPolicy P = expectMatchesReference(Views, nullptr, "edges");

  auto ecnAt = [&](uint64_t Off) { return P.getTaryECN(Base + Off); };
  EXPECT_NE(ecnAt(NrA), ecnAt(NrB));
  EXPECT_EQ(ecnAt(ViaG1), ecnAt(ViaG2));
  EXPECT_EQ(P.BranchECN[HRet], ecnAt(ViaG1));
  EXPECT_EQ(P.BranchClassSize[HRet], 2u);
  EXPECT_NE(ecnAt(ViaG3), ecnAt(ViaG1));
  EXPECT_NE(ecnAt(ToRa), ecnAt(ToRb));
  EXPECT_EQ(P.BranchECN[UncalledRet], EmptyClassECN);
  EXPECT_EQ(P.BranchClassSize[UncalledRet], 0u);
  EXPECT_EQ(P.BranchECN[HandlerRet], ecnAt(Tramp));
  EXPECT_EQ(P.BranchECN[Handler2Ret], ecnAt(Tramp));
  EXPECT_EQ(P.BranchClassSize[HandlerRet], 2u); // trampoline + handler2's
  EXPECT_EQ(P.BranchECN[Plt1], P.BranchECN[Plt2]);
  EXPECT_EQ(P.BranchClassSize[Plt1], 1u);
  EXPECT_EQ(P.BranchECN[PltMissing], EmptyClassECN);
  EXPECT_EQ(P.BranchClassSize[VarSite], 3u);
  EXPECT_EQ(P.BranchECN[NoTarget], EmptyClassECN);

  // Two refined call keys share a target that never returns; each also
  // reaches a returning target of its own. The shared target must not
  // join the two keys' return sites.
  AuxBuilder K("keys");
  K.fn("c1", "()->v");
  K.fn("c2", "()->v");
  K.fn("shared", "(i16,)->i16", true);
  K.fn("only1", "(i16,)->i16", true);
  K.ret("only1");
  K.fn("only2", "(i16,)->i16", true);
  K.ret("only2");
  K.icall("c1", "(i16,)->i16");
  K.icall("c2", "(i16,)->i16");
  CFGRefinement Ref;
  Ref.Allowed[{"c1", "(i16,)->i16"}] = {"shared", "only1"};
  Ref.Allowed[{"c2", "(i16,)->i16"}] = {"shared", "only2"};
  Views = {{&K.Obj, Base}};
  CFGPolicy KP = expectMatchesReference(Views, &Ref, "shared key target");
  EXPECT_NE(KP.getTaryECN(Base + K.Obj.Aux.CallSites[0].RetSiteOffset),
            KP.getTaryECN(Base + K.Obj.Aux.CallSites[1].RetSiteOffset));

  // The same world behind a tombstone and beside a module that shadows
  // some of its names (first definition wins).
  AuxBuilder Shadow("shadow");
  Shadow.fn("h", "()->v");
  Shadow.fn("ra", "()->v", true);
  Shadow.ret("ra");
  Shadow.call("h", "rb");
  Shadow.Obj.Aux.AddressTakenImports.push_back("vsum");
  Views = {{nullptr, 0x1000, 7}, {&Shadow.Obj, 0x8000}, {&B.Obj, Base}};
  expectMatchesReference(Views, nullptr, "shadowed");
}

/// A random aux world: name and signature pools are small, so names
/// clash across modules, offsets collide, keys repeat and every branch
/// kind, setjmp site, tail call and tombstone appears.
std::vector<MCFIObject> randomWorld(RNG &R, std::vector<LoadedModuleView> &Views,
                                    CFGRefinement &Ref) {
  static const char *Sigs[] = {
      "(i64,)->i64", "(i64,i64,)->i64", "(i64,...)->i64",
      "(i64,i64,...)->i64", "(i32,)->v", "()->v", "(f64,)->i64", ""};
  auto sig = [&] { return std::string(Sigs[R.below(std::size(Sigs))]); };
  auto name = [&] {
    return R.chancePercent(5) ? std::string("sig$return")
                              : "f" + std::to_string(R.below(16));
  };
  auto off = [&] { return R.below(64) * 8; };

  std::vector<MCFIObject> Objs(R.range(1, 5));
  for (size_t Mi = 0; Mi != Objs.size(); ++Mi) {
    AuxInfo &A = Objs[Mi].Aux;
    Objs[Mi].Name = "w" + std::to_string(Mi);
    for (uint64_t I = 0, E = R.below(12); I != E; ++I)
      A.Functions.push_back(
          {name(), sig(), "", off(), R.chancePercent(50), R.chancePercent(10)});
    for (uint64_t I = 0, E = R.below(16); I != E; ++I) {
      BranchSite B;
      B.Kind = static_cast<BranchKind>(R.below(4));
      B.Function = name();
      B.TypeSig = sig();
      B.VariadicPointer = R.chancePercent(30);
      B.PltSymbol = R.chancePercent(80) ? name() : "missing";
      A.BranchSites.push_back(B);
    }
    for (uint64_t I = 0, E = R.below(14); I != E; ++I)
      A.CallSites.push_back({name(), off(), R.chancePercent(50), name(), sig(),
                             R.chancePercent(30), R.chancePercent(10)});
    for (uint64_t I = 0, E = R.below(8); I != E; ++I)
      A.TailCalls.push_back(
          {name(), R.chancePercent(50), name(), sig(), R.chancePercent(30)});
    for (uint64_t I = 0, E = R.below(3); I != E; ++I)
      A.AddressTakenImports.push_back(name());
  }
  Views.clear();
  for (size_t Mi = 0; Mi != Objs.size(); ++Mi) {
    uint64_t Base = 0x1000 * (Mi + 1);
    if (R.chancePercent(15))
      Views.push_back({nullptr, Base, static_cast<uint32_t>(R.below(5))});
    else
      Views.push_back({&Objs[Mi], Base});
  }

  Ref = CFGRefinement();
  for (uint64_t I = 0, E = R.below(12); I != E; ++I) {
    std::set<std::string> &Names = Ref.Allowed[{name(), sig()}];
    for (uint64_t J = 0, N = R.below(6); J != N; ++J)
      Names.insert(name());
  }
  for (uint64_t I = 0, E = R.below(3); I != E; ++I)
    Ref.KeepTargets.insert(name());
  return Objs;
}

TEST(MergeDifferential, RandomAuxWorlds) {
  RNG R(0xa11u);
  uint64_t NonEmpty = 0;
  for (int World = 0; World != 400; ++World) {
    std::vector<LoadedModuleView> Views;
    CFGRefinement Ref;
    std::vector<MCFIObject> Objs = randomWorld(R, Views, Ref);
    std::string What = "world " + std::to_string(World);
    CFGPolicy P = expectMatchesReference(Views, nullptr, What);
    expectMatchesReference(Views, &Ref, What + " refined");
    NonEmpty += P.NumEQCs > 1;
  }
  EXPECT_GT(NonEmpty, 200u);
}

//===----------------------------------------------------------------------===//
// Hash-consing layer
//===----------------------------------------------------------------------===//

TEST(SigIntern, PointerIdentity) {
  SigInterner &I = SigInterner::global();
  const InternedSig *A = I.intern("(i64,)->i64");
  const InternedSig *B = I.intern(std::string("(i64,") + ")->i64");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, I.intern("(i32,)->i64"));
  ASSERT_TRUE(A->IsFunction);
  EXPECT_FALSE(A->Variadic);
  ASSERT_EQ(A->Params.size(), 1u);
  // Parts are interned through the same table.
  EXPECT_EQ(A->Params[0], I.intern("i64"));
  EXPECT_EQ(A->Ret, I.intern("i64"));

  const InternedSig *V = I.intern("(i64,...)->i64");
  ASSERT_TRUE(V->IsFunction);
  EXPECT_TRUE(V->Variadic);
  ASSERT_EQ(V->Params.size(), 1u);
  EXPECT_EQ(V->Params[0], A->Params[0]);
}

TEST(SigIntern, MatchesStringOracle) {
  // The interned matcher must agree with the string matcher on every
  // (pointer, callee, variadic) combination — including non-function and
  // malformed signatures, which must simply never match non-identical.
  const char *Sigs[] = {
      "(i64,)->i64",       "(i64,i64,)->i64", "(i64,...)->i64",
      "(i64,i64,...)->i64", "(i32,)->i64",    "(i64,)->v",
      "()->v",             "(*(i32,)->v,i32,)->v", "i64", "*{i64,i64}",
  };
  SigInterner &I = SigInterner::global();
  for (const char *P : Sigs) {
    for (const char *C : Sigs) {
      for (bool Variadic : {false, true}) {
        bool Expected = Variadic ? calleeSigMatches(P, true, C)
                                 : std::string(P) == C;
        EXPECT_EQ(internedCalleeMatches(I.intern(P), Variadic, I.intern(C)),
                  Expected)
            << P << " vs " << C << " variadic=" << Variadic;
      }
    }
  }
}

TEST(SigCache, ModuleSigsAreCachedByTypeStrings) {
  MCFIObject Obj = compileOrDie(ModuleB, "cachemod");

  std::shared_ptr<const ModuleSigs> First = getModuleSigs(Obj);
  std::shared_ptr<const ModuleSigs> Second = getModuleSigs(Obj);
  ASSERT_TRUE(First);
  EXPECT_EQ(First.get(), Second.get()); // key hit, no re-intern
  EXPECT_EQ(First->FuncSigs.size(), Obj.Aux.Functions.size());
  EXPECT_EQ(First->BranchSigs.size(), Obj.Aux.BranchSites.size());
  EXPECT_EQ(First->CallSigs.size(), Obj.Aux.CallSites.size());
  EXPECT_EQ(First->TailSigs.size(), Obj.Aux.TailCalls.size());

  // Each non-empty entry is the interned pointer of the aux string.
  for (size_t F = 0; F != Obj.Aux.Functions.size(); ++F) {
    const std::string &Sig = Obj.Aux.Functions[F].TypeSig;
    if (Sig.empty())
      EXPECT_EQ(First->FuncSigs[F], nullptr);
    else
      EXPECT_EQ(First->FuncSigs[F], SigInterner::global().intern(Sig));
  }

  // The key ignores the module name, symbol names and code bytes...
  MCFIObject Renamed = Obj;
  Renamed.Name = "cachemod2";
  Renamed.Aux.Functions[0].Name += "_renamed";
  Renamed.Code.push_back(0);
  EXPECT_EQ(getModuleSigs(Renamed).get(), First.get());

  // ...but not the type strings or their positions.
  MCFIObject Retyped = Obj;
  Retyped.Aux.Functions[0].TypeSig = "(f64,)->f64";
  std::shared_ptr<const ModuleSigs> Other = getModuleSigs(Retyped);
  EXPECT_NE(Other.get(), First.get());
  EXPECT_NE(Other->Key, First->Key);
  EXPECT_EQ(Other->FuncSigs[0], SigInterner::global().intern("(f64,)->f64"));

  MCFIObject Moved = Obj;
  Moved.Aux.TailCalls.push_back({"f", false, "", "", false});
  EXPECT_NE(hashModuleSigKey(Moved), First->Key);
}

//===----------------------------------------------------------------------===//
// Batched dlopen
//===----------------------------------------------------------------------===//

TEST(DlopenBatch, CoalescedBatchInstallsOnce) {
  DynProgram D = buildDynamic();
  ASSERT_TRUE(D.Ok) << D.Error;
  size_t InstallsBefore = D.L->updateHistory().size();

  std::vector<DlopenResult> R = D.L->dlopenBatch({0, 1});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_GE(R[0].Handle, 0) << D.L->lastError();
  EXPECT_GE(R[1].Handle, 0) << D.L->lastError();
  EXPECT_NE(R[0].Handle, R[1].Handle);
  EXPECT_NE(R[0].CodeBase, R[1].CodeBase);

  // One batch, one update transaction, covering both modules.
  ASSERT_EQ(D.L->updateHistory().size(), InstallsBefore + 1);
  EXPECT_EQ(D.L->updateHistory().back().BatchModules, 2u);
  ASSERT_EQ(D.L->batchHistory().size(), 1u);
  const DlopenBatchStats &BS = D.L->batchHistory().back();
  EXPECT_EQ(BS.Requested, 2u);
  EXPECT_EQ(BS.Loaded, 2u);
  EXPECT_TRUE(BS.Installed);

  // The returned bases are usable without touching Machine state: each
  // module's site-index base matches the installed policy.
  EXPECT_EQ(R[0].SiteIndexBase,
            D.L->policy().SiteIndexBase[static_cast<size_t>(R[0].Handle)]);
  EXPECT_EQ(R[1].SiteIndexBase,
            D.L->policy().SiteIndexBase[static_cast<size_t>(R[1].Handle)]);

  UpdateSummary S = summarizeUpdates(*D.L, D.M->tables());
  EXPECT_EQ(S.Batches, 1u);
  EXPECT_EQ(S.BatchedDlopens, 2u);
  EXPECT_EQ(S.MaxBatch, 2u);
  std::string Json = updateSummaryJSON(S, "batch");
  EXPECT_NE(Json.find("\"batches\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"batched_dlopens\":2"), std::string::npos);
}

TEST(DlopenBatch, FailedMemberFailsAlone) {
  DynProgram D = buildDynamic();
  ASSERT_TRUE(D.Ok) << D.Error;

  // Unknown id fails; the valid member of the same batch still loads.
  std::vector<DlopenResult> R = D.L->dlopenBatch({99, 0});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_LT(R[0].Handle, 0);
  EXPECT_GE(R[1].Handle, 0) << D.L->lastError();
  ASSERT_EQ(D.L->batchHistory().size(), 1u);
  EXPECT_EQ(D.L->batchHistory().back().Requested, 2u);
  EXPECT_EQ(D.L->batchHistory().back().Loaded, 1u);
  EXPECT_TRUE(D.L->batchHistory().back().Installed);
  EXPECT_EQ(D.L->updateHistory().back().BatchModules, 1u);
}

} // namespace
