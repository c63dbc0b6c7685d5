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
/// contract over the workload corpus, randomised profiles, refined
/// builds, dlclose churn and hand-built edge cases, plus
/// the hash-consing layer underneath (interner pointer identity, the
/// variadic prefix rule over interned parts, per-module signature-cache
/// hits) and the dlopen batch coalescing on top.
///
//===----------------------------------------------------------------------===//

#include "cfg/CFGReference.h"
#include "cfg/ModuleSigs.h"
#include "cfg/SigMatch.h"
#include "metrics/Harness.h"
#include "metrics/UpdateMetrics.h"
#include "mlta/Mlta.h"
#include "runtime/Dispatch.h"
#include "support/RNG.h"
#include "tables/ID.h"
#include "toolchain/Toolchain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <utility>

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
  CFGRefinement Ref = refineProgram(Mods);
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
  Spec.Refine = true;
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
DynProgram buildDynamic(unsigned Extra = 0, const char *Host = DynHost,
                        const CFGRefinement *Refinement = nullptr) {
  DynProgram D;
  D.M = std::make_unique<Machine>();
  LinkOptions LO;
  LO.Refinement = Refinement;
  D.L = std::make_unique<Linker>(*D.M, LO);
  std::vector<MCFIObject> Objs;
  Objs.push_back(compileOrDie(Host, "host"));
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
// Persistent merge state
//===----------------------------------------------------------------------===//

/// The tombstone a dlclose leaves of \p View.
LoadedModuleView tombstoneOf(const LoadedModuleView &View) {
  uint32_t Sites = View.Obj ? static_cast<uint32_t>(
                                  View.Obj->Aux.BranchSites.size())
                            : View.TombstoneSites;
  return {nullptr, View.CodeBase, Sites};
}

/// Folds \p Views split at every point k — views[0..k), an emit, then
/// views[k..n) — into a fresh state and into a copy taken at k; both must
/// emit generateCFG(views) (itself checked against the reference), and
/// the copy must leave the original's prefix policy intact. A rewind leg
/// folds every view, truncates to k and must emit the prefix policy;
/// folding views[k..n) again must emit generateCFG(views), and folding
/// them with view k closed must emit generateCFG of that list. A second
/// truncate, to k/2, then views[k/2..n) must emit generateCFG(views)
/// again.
void expectSplitsMatch(const std::vector<LoadedModuleView> &BareViews,
                       const CFGRefinement *Ref, const std::string &What) {
  std::vector<LoadedModuleView> Views;
  for (const LoadedModuleView &View : BareViews)
    Views.push_back(withModuleSigs(View));
  CFGPolicy Whole = generateCFG(Views, Ref);
  EXPECT_TRUE(policiesIdentical(Whole, generateCFGReference(Views, Ref)))
      << What;
  for (size_t K = 0; K <= Views.size(); ++K) {
    std::string At = What + " split=" + std::to_string(K);
    CFGMerge Prefix(Ref);
    for (size_t I = 0; I != K; ++I)
      Prefix.append(Views[I]);
    CFGPolicy PrefixPolicy = Prefix.emit();
    CFGMerge Copy = Prefix;
    for (size_t I = K; I != Views.size(); ++I)
      Copy.append(Views[I]);
    EXPECT_TRUE(policiesIdentical(Copy.emit(), Whole)) << At;
    EXPECT_TRUE(policiesIdentical(Prefix.emit(), PrefixPolicy)) << At;
    for (size_t I = K; I != Views.size(); ++I)
      Prefix.append(Views[I]);
    EXPECT_TRUE(policiesIdentical(Prefix.emit(), Whole)) << At;

    // Rewind: Prefix holds every view; forget views[K..n).
    Prefix.truncate(K);
    ASSERT_EQ(Prefix.views().size(), K) << At;
    EXPECT_TRUE(policiesIdentical(Prefix.emit(), PrefixPolicy))
        << At << " rewound";
    CFGMerge Refold = Prefix;
    for (size_t I = K; I != Views.size(); ++I)
      Refold.append(Views[I]);
    EXPECT_TRUE(policiesIdentical(Refold.emit(), Whole)) << At << " refolded";
    if (K != Views.size()) {
      std::vector<LoadedModuleView> Closed = Views;
      Closed[K] = tombstoneOf(Views[K]);
      CFGPolicy ClosedPolicy = generateCFG(Closed, Ref);
      EXPECT_TRUE(
          policiesIdentical(ClosedPolicy, generateCFGReference(Closed, Ref)))
          << At << " closed";
      for (size_t I = K; I != Closed.size(); ++I)
        Prefix.append(Closed[I]);
      EXPECT_TRUE(policiesIdentical(Prefix.emit(), ClosedPolicy))
          << At << " closed refold";
    }
    Prefix.truncate(K / 2);
    for (size_t I = K / 2; I != Views.size(); ++I)
      Prefix.append(Views[I]);
    EXPECT_TRUE(policiesIdentical(Prefix.emit(), Whole))
        << At << " second rewind";
  }
}

TEST(PersistentMerge, SpecProfilesAtEverySplitPoint) {
  MCFIObject A = compileOrDie(ModuleA, "libA");
  MCFIObject B = compileOrDie(ModuleB, "libB");
  for (const BenchProfile &P : specProfiles()) {
    MCFIObject Obj =
        compileOrDie(generateWorkload(P, WorkloadVariant::Fixed), P.Name);
    // libB before libA: its PLT import of a_drive resolves late.
    expectSplitsMatch(layoutViews({&B, &Obj, &runtimeObject(), &A}), nullptr,
                      P.Name);
  }
}

TEST(PersistentMerge, RandomAuxWorldsAtEverySplitPoint) {
  RNG R(0x5b1u);
  for (int World = 0; World != 200; ++World) {
    std::vector<LoadedModuleView> Views;
    CFGRefinement Ref;
    std::vector<MCFIObject> Objs = randomWorld(R, Views, Ref);
    std::string What = "world " + std::to_string(World);
    expectSplitsMatch(Views, nullptr, What);
    expectSplitsMatch(Views, &Ref, What + " refined");
  }
}

/// Imports p1_a through its PLT, so every load of plugin 1 resolves a
/// site of the static program late and every unload un-resolves it.
const char *PltHost = R"(
long p1_a(long x);
long local_cb(long x) { return x + 1; }
long (*host_keep)(long) = local_cb;
long host_call(long v) { return p1_a(v); }
int main() { return 0; }
)";

/// An uninstrumented library: its unchecked indirect call fails
/// verification, so a batch holding it installs nothing.
const char *Unverifiable = R"(
long bad_apply(long (*f)(long), long x) { return f(x); }
)";

/// Runs a seeded sequence of dlopenOne, dlopenBatch, dlcloseOne,
/// dlcloseBatch and drainReclaim against one linker, and after every
/// linker operation compares its policy — produced by the persistent
/// state through appends, truncates and re-folds — with the reference
/// generator over the machine's current views.
void runPersistentSequence(uint64_t Seed, const CFGRefinement *Ref) {
  constexpr unsigned Plugins = 6;
  DynProgram D = buildDynamic(Plugins, PltHost, Ref);
  ASSERT_TRUE(D.Ok) << D.Error;
  CompileOptions BadCO;
  BadCO.ModuleName = "unverifiable";
  BadCO.Instrument = false;
  CompileResult Bad = compileModule(Unverifiable, BadCO);
  ASSERT_TRUE(Bad.Ok);
  const int64_t BadId = D.L->registerLibrary(std::move(Bad.Obj));
  const int64_t NumGood = 2 + Plugins;

  Machine &M = *D.M;
  Linker &L = *D.L;
  RNG R(Seed);
  std::vector<int64_t> Live;
  auto check = [&](const std::string &What) {
    EXPECT_TRUE(policiesIdentical(L.policy(),
                                  generateCFGReference(viewsOf(M), Ref)))
        << What;
  };
  unsigned Interior = 0, Trims = 0, OpensAfterTrim = 0;
  bool Trimmed = false;
  for (int Step = 0; Step != 160; ++Step) {
    std::string What = "seed " + std::to_string(Seed) + " step " +
                       std::to_string(Step) + (Ref ? " refined" : "");
    if (R.chancePercent(20)) {
      // The linker's policy predates the drain; the next operation
      // must notice a tail-trim and re-fold from the trimmed view.
      size_t Before = M.modules().size();
      M.drainReclaim();
      if (M.modules().size() < Before) {
        ++Trims;
        Trimmed = true;
      }
      continue;
    }
    // Grow to about 8 live modules, then shrink, so the world empties
    // out often enough for drains to trim its tail.
    bool Grow = Live.empty() || (Live.size() < 8 && R.chancePercent(50));
    if (Grow && R.chancePercent(70)) {
      DlopenResult Res = L.dlopenOne(static_cast<int64_t>(R.below(NumGood)));
      ASSERT_GE(Res.Handle, 0) << What << ": " << L.lastError();
      Live.push_back(Res.Handle);
      OpensAfterTrim += std::exchange(Trimmed, false);
      What += " dlopenOne";
    } else if (Grow) {
      std::vector<int64_t> Ids(R.range(2, 3));
      for (int64_t &Id : Ids)
        Id = static_cast<int64_t>(R.below(NumGood));
      std::vector<DlopenResult> Res = L.dlopenBatch(Ids);
      for (const DlopenResult &X : Res) {
        ASSERT_GE(X.Handle, 0) << What << ": " << L.lastError();
        Live.push_back(X.Handle);
      }
      OpensAfterTrim += std::exchange(Trimmed, false);
      What += " dlopenBatch";
    } else if (R.chancePercent(60)) {
      size_t I = R.below(Live.size());
      Interior += Live[I] + 1 != static_cast<int64_t>(M.modules().size());
      ASSERT_TRUE(L.dlcloseOne(Live[I])) << What;
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(I));
      What += " dlcloseOne";
    } else {
      std::vector<int64_t> Handles;
      for (size_t N = R.range(2, 3); N && !Live.empty(); --N) {
        size_t I = R.below(Live.size());
        Handles.push_back(Live[I]);
        Live.erase(Live.begin() + static_cast<ptrdiff_t>(I));
      }
      for (bool Ok : L.dlcloseBatch(Handles))
        ASSERT_TRUE(Ok) << What;
      What += " dlcloseBatch";
    }
    check(What);
  }
  EXPECT_GT(Interior, 0u);
  EXPECT_GT(Trims, 0u);
  EXPECT_GT(OpensAfterTrim, 0u);
  EXPECT_GT(M.reclaimStats().Reused, 0u) << "no free-list code reuse";

  // A batch that fails verification installs nothing. Its members are
  // retired on the spot, so they stay in the views only as tombstones,
  // and the next successful operation's policy folds around them.
  CFGPolicy Before = L.policy();
  std::vector<DlopenResult> Res = L.dlopenBatch({0, BadId});
  EXPECT_LT(Res[0].Handle, 0);
  EXPECT_FALSE(L.batchHistory().back().Installed);
  EXPECT_TRUE(policiesIdentical(L.policy(), Before));
  ASSERT_GE(L.dlopen(1), 0) << L.lastError();
  check("after the failed batch");
}

TEST(PersistentMerge, SeededOperationSequences) {
  for (uint64_t Seed : {1u, 2u, 3u})
    runPersistentSequence(Seed, nullptr);
}

TEST(PersistentMerge, SeededOperationSequencesRefined) {
  // Hand-built refinement over the plugins' and libraries' keys: some
  // sets are narrowed, some functions pinned, so liveness (who stays in
  // the IBT universe) changes as modules come and go.
  CFGRefinement Ref;
  Ref.Allowed[{"b_dispatch", "(i64,)->i64"}] = {"local_cb", "cb_neg", "p0_a",
                                                 "p3_a"};
  Ref.Allowed[{"p1_drive", "(i64,)->i64"}] = {"p1_a", "p2_a"};
  Ref.Allowed[{"a_drive", "(i64,)->i64"}] = {"cb_add", "cb_mul"};
  Ref.Allowed[{"b_varcall", "(i64,...)->i64"}] = {"vsum", "p5_pair"};
  Ref.KeepTargets = {"p4_b", "vmax"};
  {
    // The refinement must bite on this world.
    MCFIObject A = compileOrDie(ModuleA, "libA");
    MCFIObject B = compileOrDie(ModuleB, "libB");
    MCFIObject P1 = compileOrDie(pluginSource(1), "plug1");
    std::vector<LoadedModuleView> Views = layoutViews({&A, &B, &P1});
    ASSERT_LT(generateCFG(Views, &Ref).NumIBTs, generateCFG(Views).NumIBTs);
  }
  for (uint64_t Seed : {4u, 5u})
    runPersistentSequence(Seed, &Ref);
}

TEST(PersistentMerge, DlopenAppendsOnlyTheNewModule) {
  constexpr unsigned Plugins = 64;
  DynProgram D = buildDynamic(Plugins);
  ASSERT_TRUE(D.Ok) << D.Error;
  std::vector<int64_t> Handles;
  for (unsigned K = 0; K != Plugins; ++K) {
    int64_t H = D.L->dlopen(2 + K);
    ASSERT_GE(H, 0) << D.L->lastError();
    Handles.push_back(H);
  }
  // 64 plugins live: the next dlopen folds in its own view and no other.
  int64_t Extra = D.L->dlopen(0);
  ASSERT_GE(Extra, 0) << D.L->lastError();
  EXPECT_EQ(D.L->batchHistory().back().MergeViewsAppended, 1u);
  EXPECT_TRUE(policiesIdentical(D.L->policy(),
                                generateCFGReference(viewsOf(*D.M))));

  // A dlclose rewinds the merge to the dying module and folds in its
  // tombstone and every view after it — never a view before it.
  ASSERT_TRUE(D.L->dlcloseOne(Handles[10]));
  EXPECT_EQ(D.L->unloadHistory().back().MergeViewsAppended,
            D.M->modules().size() - static_cast<size_t>(Handles[10]));
  ASSERT_TRUE(D.L->dlcloseOne(Extra));
  EXPECT_EQ(D.L->unloadHistory().back().MergeViewsAppended, 1u);
  EXPECT_TRUE(policiesIdentical(D.L->policy(),
                                generateCFGReference(viewsOf(*D.M))));
}

TEST(PersistentMerge, DlcloseRefoldsOnlyTheSuffix) {
  // 64 plugins closed in a seeded order, no drain in between: each
  // dlclose folds in exactly the dying module's tombstone and the views
  // after it, so the work follows the module's position, not the number
  // of dynamic views.
  constexpr unsigned Plugins = 64;
  DynProgram D = buildDynamic(Plugins);
  ASSERT_TRUE(D.Ok) << D.Error;
  std::vector<int64_t> Open;
  for (unsigned K = 0; K != Plugins; ++K) {
    int64_t H = D.L->dlopen(2 + K);
    ASSERT_GE(H, 0) << D.L->lastError();
    Open.push_back(H);
  }
  const size_t Views = D.M->modules().size();
  std::mt19937 Rng(0xc105eu);
  std::shuffle(Open.begin(), Open.end(), Rng);
  uint64_t Refolded = 0;
  for (size_t I = 0; I != Open.size(); ++I) {
    std::string What = "close " + std::to_string(I);
    ASSERT_TRUE(D.L->dlcloseOne(Open[I])) << What;
    ASSERT_EQ(D.M->modules().size(), Views) << What;
    uint32_t Appended = D.L->unloadHistory().back().MergeViewsAppended;
    EXPECT_EQ(Appended, Views - static_cast<size_t>(Open[I])) << What;
    Refolded += Appended;
    if (I % 16 == 15) {
      EXPECT_TRUE(policiesIdentical(D.L->policy(),
                                    generateCFGReference(viewsOf(*D.M))))
          << What;
    }
  }
  // A replay of every dynamic view would have folded 64 per close.
  EXPECT_LT(Refolded, uint64_t(Plugins) * Plugins * 3 / 4);
}

TEST(PersistentMerge, DiscardedBatchThenDrainThenDlopen) {
  // A batch that fails verification after its merge must leave no fold
  // of its members behind. The drain trims their tombstones, and the
  // next dlopen maps at the same index and base, often into the freed
  // object's address: a stale fold there would pass for the new
  // module's, and the policy would be folded from the failed module.
  constexpr unsigned Plugins = 6;
  DynProgram D = buildDynamic(Plugins);
  ASSERT_TRUE(D.Ok) << D.Error;
  CompileOptions BadCO;
  BadCO.ModuleName = "unverifiable";
  BadCO.Instrument = false;
  CompileResult Bad = compileModule(Unverifiable, BadCO);
  ASSERT_TRUE(Bad.Ok);
  const int64_t BadId = D.L->registerLibrary(std::move(Bad.Obj));
  for (unsigned Round = 0; Round != Plugins; ++Round) {
    std::string What = "round " + std::to_string(Round);
    EXPECT_LT(D.L->dlopen(BadId), 0) << What;
    EXPECT_FALSE(D.L->batchHistory().back().Installed) << What;
    D.M->drainReclaim();
    int64_t H = D.L->dlopen(2 + Round);
    ASSERT_GE(H, 0) << What << ": " << D.L->lastError();
    EXPECT_TRUE(policiesIdentical(D.L->policy(),
                                  generateCFGReference(viewsOf(*D.M))))
        << What;
    ASSERT_TRUE(D.L->dlcloseOne(H)) << What;
    D.M->drainReclaim();
  }
}

/// The Serials of the modules a segment must hold: present (mapped and
/// not reclaimed), sealed, and with code.
std::vector<uint64_t> expectedSegmentSerials(const Machine &M) {
  std::vector<uint64_t> Serials;
  for (const MappedModule &Mod : M.modules())
    if (!Mod.Reclaimed && Mod.Sealed && Mod.CodeSize)
      Serials.push_back(Mod.Serial);
  std::sort(Serials.begin(), Serials.end());
  return Serials;
}

TEST(PersistentMerge, OldestFirstChurnMatchesTheReference) {
  // jit-concurrent's shape: small ops opened one at a time, and once 16
  // are live each open first closes the oldest, so the closed ops pile
  // up as tombstones at the front of the module list. Mixed in: batches
  // with a member whose relocation fails, batches that fail
  // verification, drains that only reclaim interior holes, and drains
  // after closing the newest ops, which trim the tail. Every link
  // operation tells syncMerge the first view it can change; the policy
  // must stay the from-scratch reference's, and the segment must hold
  // exactly the present, sealed, non-empty modules.
  constexpr int Ops = 760, MaxLive = 16, Shapes = 12;
  DynProgram D = buildDynamic(0);
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  Linker &L = *D.L;
  std::vector<int64_t> OpIds;
  for (int K = 0; K != Shapes; ++K) {
    std::string F = "jop" + std::to_string(K);
    OpIds.push_back(L.registerLibrary(compileOrDie(
        (K % 4 ? "long local_cb(long x);\n" : "") + std::string("long ") + F +
            "(long x) { return " +
            (K % 4 ? "local_cb(x) * " : "x * ") + std::to_string(K + 2) +
            "; }\nlong (*" + F + "_ref)(long) = " + F + ";\n",
        "jop" + std::to_string(K))));
  }
  const int64_t UnresolvedId = L.registerLibrary(compileOrDie(
      "long nowhere(long x);\nlong (*keep)(long) = nowhere;\n", "unresolved"));
  CompileOptions BadCO;
  BadCO.ModuleName = "unverifiable";
  BadCO.Instrument = false;
  CompileResult Bad = compileModule(Unverifiable, BadCO);
  ASSERT_TRUE(Bad.Ok);
  const int64_t BadId = L.registerLibrary(std::move(Bad.Obj));
  const size_t Static = M.modules().size();

  std::mt19937 Rng(0x01de57u);
  std::deque<int64_t> Live;
  size_t MaxTombstones = 0, Trims = 0, FailedBatches = 0, FailedMembers = 0;
  auto check = [&](const std::string &What) {
    ASSERT_TRUE(policiesIdentical(L.policy(), generateCFGReference(viewsOf(M))))
        << What;
    std::shared_ptr<const DecodedSegment> Seg = M.segment();
    ASSERT_TRUE(Seg) << What;
    std::vector<uint64_t> Serials;
    for (const auto &Mod : Seg->Modules)
      Serials.push_back(Mod->Serial);
    std::sort(Serials.begin(), Serials.end());
    ASSERT_EQ(Serials, expectedSegmentSerials(M)) << What;
  };
  auto drain = [&]() {
    size_t Before = M.modules().size();
    M.drainReclaim();
    Trims += M.modules().size() < Before;
  };
  for (int Op = 0; Op != Ops; ++Op) {
    std::string What = "op " + std::to_string(Op);
    if (Live.size() == MaxLive) {
      ASSERT_TRUE(L.dlcloseOne(Live.front())) << What;
      Live.pop_front();
    }
    int64_t Id = OpIds[Rng() % Shapes];
    switch (Op % 97) {
    case 40: {
      // A member whose relocation fails is a tombstone before the merge;
      // the rest of the batch installs.
      std::vector<DlopenResult> R = L.dlopenBatch({Id, UnresolvedId});
      ASSERT_GE(R[0].Handle, 0) << What << ": " << L.lastError();
      ASSERT_LT(R[1].Handle, 0) << What;
      Live.push_back(R[0].Handle);
      ++FailedMembers;
      break;
    }
    case 70: {
      // A batch failing verification after its merge forgets its folds.
      for (const DlopenResult &R : L.dlopenBatch({Id, BadId}))
        ASSERT_LT(R.Handle, 0) << What;
      ++FailedBatches;
      break;
    }
    case 90:
      // Close the newest ops and drain: with their code at the top of
      // the region, their tombstones are trimmed off the tail.
      while (Live.size() > 4) {
        ASSERT_TRUE(L.dlcloseOne(Live.back())) << What;
        Live.pop_back();
      }
      drain();
      [[fallthrough]];
    default: {
      int64_t H = L.dlopen(Id);
      ASSERT_GE(H, 0) << What << ": " << L.lastError();
      Live.push_back(H);
      break;
    }
    }
    if (Op % 64 == 63)
      drain(); // reclaims the oldest ops' interior holes; nothing trims
    MaxTombstones =
        std::max(MaxTombstones, M.modules().size() - Static - Live.size());
    if (Op % 32 == 31)
      check(What);
  }
  check("end");
  while (!Live.empty()) {
    ASSERT_TRUE(L.dlcloseOne(Live.front()));
    Live.pop_front();
  }
  check("all closed");
  drain();
  // The drain trims the closed ops; the next dlopen folds in what is left.
  int64_t H = L.dlopen(OpIds.front());
  ASSERT_GE(H, 0) << L.lastError();
  check("drained, then opened");
  EXPECT_GE(MaxTombstones, 600u);
  EXPECT_GT(Trims, 0u);
  EXPECT_GT(FailedBatches, 0u);
  EXPECT_GT(FailedMembers, 0u);
}

/// True when \p A and \p B are the same decoded instruction at the same
/// address with the same fallthrough link and fused-group mark.
bool sameRecord(const DInstr &A, const DInstr &B) {
  return A.PC == B.PC && A.Fall == B.Fall && A.Fused == B.Fused &&
         A.I.Op == B.I.Op && A.I.Rd == B.I.Rd && A.I.Ra == B.I.Ra &&
         A.I.Rb == B.I.Rb && A.I.Off == B.I.Off && A.I.Imm == B.I.Imm &&
         A.I.Length == B.I.Length;
}

TEST(ZeroCopyDlopen, SeededChurnSharesEveryArtifact) {
  // 64 plugins and 12 JIT-op shapes, opened and closed in a seeded mix of
  // single opens, two-member batches and closes, with a drain now and
  // then. After every operation three counts hold:
  //  - every mapping shares its registry entry's object (no copy), and
  //    each object is held by its registry entry plus one reference per
  //    unreclaimed mapping of it;
  //  - no fold looked a module's signatures up: registration interned
  //    them, once per object;
  //  - every sealed module's decode is the disassembly of its final
  //    bytes, record for record, with Fall the instruction starting
  //    where each one ends.
  constexpr unsigned Plugins = 64;
  constexpr int Shapes = 12, Ops = 360;
  DynProgram D = buildDynamic(Plugins);
  ASSERT_TRUE(D.Ok) << D.Error;
  Machine &M = *D.M;
  Linker &L = *D.L;
  const int64_t FirstPlugin = 2, FirstOp = 2 + Plugins;
  for (int K = 0; K != Shapes; ++K) {
    std::string F = "jop" + std::to_string(K);
    ASSERT_EQ(L.registerLibrary(compileOrDie(
                  (K % 4 ? "long local_cb(long x);\n" : "") +
                      std::string("long ") + F + "(long x) { return " +
                      (K % 4 ? "local_cb(x) * " : "x * ") +
                      std::to_string(K + 2) + "; }\nlong (*" + F +
                      "_ref)(long) = " + F + ";\n",
                  F)),
              FirstOp + K);
  }
  const int64_t Registered = FirstOp + Shapes;
  const uint64_t Interns = moduleSigInterns();

  std::map<uint64_t, int64_t> IdOfSerial; ///< dynamic mappings only
  std::vector<int64_t> Live;
  auto opened = [&](int64_t H, int64_t Id) {
    IdOfSerial[M.modules()[static_cast<size_t>(H)].Serial] = Id;
    Live.push_back(H);
  };
  auto check = [&](const std::string &What) {
    ASSERT_EQ(moduleSigInterns(), Interns) << What << ": a fold interned";
    std::vector<long> Refs(static_cast<size_t>(Registered), 1);
    for (const MappedModule &Mod : M.modules()) {
      auto It = IdOfSerial.find(Mod.Serial);
      if (It != IdOfSerial.end() && !Mod.Reclaimed) {
        ASSERT_EQ(Mod.Obj.get(), L.registered(It->second).get()) << What;
        ++Refs[static_cast<size_t>(It->second)];
      }
      if (!Mod.Sealed || Mod.Reclaimed)
        continue;
      ASSERT_TRUE(Mod.Decode) << What;
      const DecodedModule &Dec = *Mod.Decode;
      size_t Size = Mod.Obj->Code.size();
      visa::Disassembly Fresh = disassembleModule(
          M.codePtr(Mod.CodeBase, Size), Size, *Mod.Obj, Mod.CodeBase);
      ASSERT_EQ(Dec.Stream.size(), Fresh.Instrs.size()) << What;
      for (size_t K = 0; K != Dec.Stream.size(); ++K) {
        const DInstr &R = Dec.Stream[K];
        ASSERT_TRUE(sameRecord(R, Fresh.Instrs[K])) << What << " @" << K;
        uint64_t End = R.PC - Dec.Base + R.I.Length;
        ASSERT_EQ(R.Fall, End < Dec.Size ? Dec.IndexByOff[End] : -1)
            << What << " @" << K;
      }
    }
    for (int64_t Id = FirstPlugin; Id != Registered; ++Id)
      ASSERT_EQ(L.registered(static_cast<int>(Id)).use_count(),
                Refs[static_cast<size_t>(Id)])
          << What << ": library " << Id;
  };

  std::mt19937 Rng(27);
  auto pick = [&]() -> int64_t {
    return Rng() % 2 ? FirstPlugin + Rng() % Plugins : FirstOp + Rng() % Shapes;
  };
  for (int Op = 0; Op != Ops; ++Op) {
    std::string What = "op " + std::to_string(Op);
    unsigned Roll = Rng() % 8;
    if (Live.size() > 4 && (Roll < 3 || Live.size() >= 40)) {
      size_t K = Rng() % Live.size();
      ASSERT_TRUE(L.dlcloseOne(Live[K])) << What;
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(K));
    } else if (Roll == 3) {
      int64_t A = pick(), B = pick();
      std::vector<DlopenResult> R = L.dlopenBatch({A, B});
      ASSERT_GE(R[0].Handle, 0) << What << ": " << L.lastError();
      ASSERT_GE(R[1].Handle, 0) << What << ": " << L.lastError();
      opened(R[0].Handle, A);
      opened(R[1].Handle, B);
    } else {
      int64_t Id = pick();
      int64_t H = L.dlopen(Id);
      ASSERT_GE(H, 0) << What << ": " << L.lastError();
      opened(H, Id);
    }
    if (Op % 50 == 49)
      M.drainReclaim();
    check(What);
  }
  ASSERT_TRUE(policiesIdentical(L.policy(), generateCFGReference(viewsOf(M))));
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

/// Checks that \p Sigs holds the interned TypeSig of every record in
/// \p Records, null where it is empty.
template <typename T>
void expectInterns(const SigList &Sigs, const std::vector<T> &Records) {
  ASSERT_EQ(Sigs.size(), Records.size());
  for (size_t K = 0; K != Records.size(); ++K) {
    const std::string &Sig = Records[K].TypeSig;
    EXPECT_EQ(Sigs[K],
              Sig.empty() ? nullptr : SigInterner::global().intern(Sig))
        << K;
  }
}

void expectInternsModule(const ModuleSigs &Sigs, const MCFIObject &Obj) {
  expectInterns(Sigs.FuncSigs, Obj.Aux.Functions);
  expectInterns(Sigs.BranchSigs, Obj.Aux.BranchSites);
  expectInterns(Sigs.CallSigs, Obj.Aux.CallSites);
  expectInterns(Sigs.TailSigs, Obj.Aux.TailCalls);
}

TEST(ModuleSigs, SameTypeStringsShareOneView) {
  MCFIObject Obj = compileOrDie(ModuleB, "sigmod");

  std::shared_ptr<const ModuleSigs> First = internModuleSigs(Obj);
  ASSERT_TRUE(First);
  EXPECT_EQ(internModuleSigs(Obj).get(), First.get()); // no re-intern
  expectInternsModule(*First, Obj);

  // The key ignores the module name, symbol names and code bytes...
  MCFIObject Renamed = Obj;
  Renamed.Name = "sigmod2";
  Renamed.Aux.Functions[0].Name += "_renamed";
  Renamed.Code.push_back(0);
  EXPECT_EQ(internModuleSigs(Renamed).get(), First.get());

  // ...but not the type strings or their positions.
  MCFIObject Retyped = Obj;
  Retyped.Aux.Functions[0].TypeSig = "(f64,)->f64";
  std::shared_ptr<const ModuleSigs> Other = internModuleSigs(Retyped);
  EXPECT_NE(Other.get(), First.get());
  expectInternsModule(*Other, Retyped);

  MCFIObject Moved = Obj;
  Moved.Aux.TailCalls.push_back({"f", false, "", "", false});
  std::shared_ptr<const ModuleSigs> Longer = internModuleSigs(Moved);
  EXPECT_NE(Longer.get(), First.get());
  expectInternsModule(*Longer, Moved);
}

TEST(ModuleSigs, StringBoundariesAreKeyed) {
  // "(i8,)->i8" + "i16" and "(i8,)->i8i16" + "" concatenate alike, as
  // do an entry at the end of one array and at the start of the next:
  // each must still get its own view.
  MCFIObject Base = compileOrDie(ModuleB, "sigbounds");
  ASSERT_GE(Base.Aux.Functions.size(), 2u);
  MCFIObject A = Base, B = Base;
  A.Aux.Functions[0].TypeSig = "(i8,)->i8";
  A.Aux.Functions[1].TypeSig = "i16";
  B.Aux.Functions[0].TypeSig = "(i8,)->i8i16";
  B.Aux.Functions[1].TypeSig = "";
  std::shared_ptr<const ModuleSigs> SA = internModuleSigs(A);
  std::shared_ptr<const ModuleSigs> SB = internModuleSigs(B);
  EXPECT_NE(SA.get(), SB.get());
  expectInternsModule(*SA, A);
  expectInternsModule(*SB, B);

  MCFIObject C = Base, D = Base;
  C.Aux.Functions.back().TypeSig = "(i32,)->i32";
  D.Aux.Functions.pop_back();
  D.Aux.BranchSites.insert(D.Aux.BranchSites.begin(), BranchSite());
  D.Aux.BranchSites.front().TypeSig = "(i32,)->i32";
  std::shared_ptr<const ModuleSigs> SC = internModuleSigs(C);
  std::shared_ptr<const ModuleSigs> SD = internModuleSigs(D);
  EXPECT_NE(SC.get(), SD.get());
  expectInternsModule(*SC, C);
  expectInternsModule(*SD, D);
}

TEST(ModuleSigs, DlcloseKeepsTheSharedViewOfSameShapedModules) {
  // Plugins 0 and 2 differ only in names and constants, so they share
  // one view. Closing one must leave the view the other folds from in
  // place.
  DynProgram D = buildDynamic(3);
  ASSERT_TRUE(D.Ok) << D.Error;
  int64_t A = D.L->dlopen(2), B = D.L->dlopen(4);
  ASSERT_GE(A, 0) << D.L->lastError();
  ASSERT_GE(B, 0) << D.L->lastError();
  const MCFIObject &Survivor = *D.M->modules()[static_cast<size_t>(B)].Obj;
  const MCFIObject &Dying = *D.M->modules()[static_cast<size_t>(A)].Obj;
  std::shared_ptr<const ModuleSigs> Before = internModuleSigs(Survivor);
  ASSERT_EQ(internModuleSigs(Dying).get(), Before.get());
  ASSERT_TRUE(D.L->dlcloseOne(A));
  EXPECT_EQ(internModuleSigs(Survivor).get(), Before.get());
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
