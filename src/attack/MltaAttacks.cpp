//===- attack/MltaAttacks.cpp - cross-enclosing-type differential ---------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MLTA differential: the victim dispatches through function-pointer
/// fields of two structurally distinct registry structs (HookA, HookB)
/// whose handlers all share one signature. First-layer type analysis
/// merges every handler into one equivalence class, so overwriting
/// HookA's field with HookB's handler is an *in-class* transfer the
/// plain policy allows — the documented precision boundary. The layered
/// type map splits the class by enclosing record chain, so the very same
/// overwrite crosses classes under the refined build (BuildSpec::Refine,
/// which intersects the layered map with the dataflow engine) and must
/// die at the check. Each attack is replayed against both builds at the
/// same tier to pin the verdict flip; a same-chain swap is replayed under
/// the refined build to prove refinement does not overclaim.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::attack;

namespace {

constexpr uint64_t AttackFuel = 20'000'000;
constexpr uint64_t SliceFuel = 100'000;

/// The dual-registry victim. HookA and HookB are structurally distinct
/// (different field counts), their handlers signature-identical. Both
/// registries are initialized before the hot loop; ha_alt is stored
/// through the HookA chain first, so the MLTA class at run_a's dispatch
/// is {ha_main, ha_alt} while run_b's is {hb_main}. The mid-run slice
/// interrupts the loop after initialization, so a corruption planted at
/// the slice boundary is consumed by the next dispatch.
const char *MltaVictimSource = R"(
struct HookA { long tag; long (*fn)(long); };
struct HookB { long t0; long t1; long (*fn)(long); };
long ha_main(long x) { return x + 1; }
long ha_alt(long x) { return x + 2; }
long hb_main(long x) { return x * 2; }
struct HookA ha;
struct HookB hb;
long run_a(long x) { return ha.fn(x); }
long run_b(long x) { return hb.fn(x); }
int main() {
  ha.tag = 1;
  ha.fn = ha_alt;
  ha.fn = ha_main;
  hb.t0 = 2;
  hb.fn = hb_main;
  long acc = 0;
  long i;
  for (i = 0; i < 30000; i = i + 1) {
    acc = acc + run_a(i) + run_b(i);
  }
  print_int(acc & 65535);
  return 0;
}
)";

struct MltaBuild {
  BuiltProgram BP;
  Thread T;
  bool SliceRan = false;
};

MltaBuild buildMltaVictim(ExecTier Tier, bool Refine, uint64_t Slice) {
  MltaBuild V;
  BuildSpec Spec;
  Spec.Instrument = true;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  Spec.Refine = Refine;
  V.BP = buildProgram({MltaVictimSource}, Spec);
  if (!V.BP.Ok)
    return V;
  if (!V.BP.M->makeThread("_start", V.T)) {
    V.BP.Ok = false;
    V.BP.Error = "victim has no _start";
    return V;
  }
  if (Slice) {
    RunResult Mid = V.BP.M->run(V.T, Slice);
    if (Mid.Reason != StopReason::OutOfFuel)
      return buildMltaVictim(Tier, Refine, 0);
    V.SliceRan = true;
  }
  return V;
}

/// Address of ha's fn field: the word inside the `ha` data symbol that
/// holds ha_main after initialization (layout-independent).
uint64_t findFieldSlot(const Machine &M, const char *Sym, uint64_t Stored) {
  for (const MappedModule &Mod : M.modules()) {
    auto It = Mod.Obj->DataSymbols.find(Sym);
    if (It == Mod.Obj->DataSymbols.end())
      continue;
    for (uint64_t Off = 0; Off < 32; Off += 8) {
      uint64_t Val = 0;
      if (M.load(Mod.DataBase + It->second + Off, 8, Val) && Val == Stored)
        return Mod.DataBase + It->second + Off;
    }
  }
  return 0;
}

AttackRecord makeRecord(ExecTier Tier, const std::string &Name,
                        Expectation Expect) {
  AttackRecord R;
  R.Class = AttackClass::Mlta;
  R.Tier = Tier;
  R.Victim = "dual-registry";
  R.Name = Name;
  R.Expect = Expect;
  return R;
}

/// Replays one overwrite (ha.fn <- target function) against a fresh
/// build and classifies it against that build mode's clean run.
AttackRecord replay(ExecTier Tier, const std::string &Name, bool Refine,
                    const char *TargetFn, Expectation Expect,
                    const RunResult &Ref, const std::string &RefOut) {
  AttackRecord Rec = makeRecord(Tier, Name, Expect);
  MltaBuild W = buildMltaVictim(Tier, Refine, SliceFuel);
  if (!W.BP.Ok) {
    Rec.Detail = "victim build failed: " + W.BP.Error;
    return Rec;
  }
  Machine &M = *W.BP.M;
  uint64_t Slot = findFieldSlot(M, "ha", M.findFunction("ha_main"));
  uint64_t Target = M.findFunction(TargetFn);
  if (!Slot || !Target) {
    Rec.Detail = Slot ? "target function not found" : "ha.fn slot not found";
    return Rec;
  }
  Rec.Target = Target;
  M.store(Slot, 8, Target);
  RunResult RR = M.run(W.T, AttackFuel);
  std::string Out = M.takeOutput();
  Rec.V = classifyRun(RR, Out, Ref, RefOut, Expect);
  Rec.Detail = std::string(Refine ? "refined policy" : "flta policy") + "; " +
               (RR.Message.empty() ? "run finished" : RR.Message);
  return Rec;
}

} // namespace

std::vector<AttackRecord>
mcfi::attack::runMltaAttacks(ExecTier Tier, unsigned MaxPerClass) {
  std::vector<AttackRecord> Out;

  // One clean reference per build mode (tier identity makes the outputs
  // equal, but classification stays within its own policy's baseline).
  RunResult Refs[2];
  std::string RefOuts[2];
  for (int Refine = 0; Refine != 2; ++Refine) {
    MltaBuild Ref = buildMltaVictim(Tier, Refine != 0, 0);
    if (!Ref.BP.Ok) {
      AttackRecord Rec = makeRecord(Tier, "mlta:setup", Expectation::Killed);
      Rec.Detail = "reference build failed: " + Ref.BP.Error;
      Out.push_back(Rec);
      return Out;
    }
    Refs[Refine] = Ref.BP.M->run(Ref.T, AttackFuel);
    RefOuts[Refine] = Ref.BP.M->takeOutput();
  }

  struct Variant {
    const char *Name;
    bool Refine;
    const char *Target;
    Expectation Expect;
  };
  // The verdict flip: the identical cross-enclosing-type overwrite is
  // allowed by FLTA (one signature class) and killed by the refined
  // policy; the same-chain swap stays allowed under it (no overclaim).
  const Variant Variants[] = {
      {"mlta:flta:cross-registry", false, "hb_main",
       Expectation::InClassTransfer},
      {"mlta:refined:cross-registry", true, "hb_main", Expectation::Killed},
      {"mlta:refined:same-chain", true, "ha_alt",
       Expectation::InClassTransfer},
  };
  for (const Variant &V : Variants) {
    if (Out.size() >= MaxPerClass)
      break;
    Out.push_back(replay(Tier, V.Name, V.Refine, V.Target, V.Expect,
                         Refs[V.Refine], RefOuts[V.Refine]));
  }
  return Out;
}
