//===- attack/AttackSynth.cpp - Guest-level attack synthesizers -----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerates guest-level exploit attempts from a victim's own artifacts:
/// function-pointer slots found in its data segment, return addresses
/// found on its live stack, the equivalence classes of the generated CFG,
/// and the gadget set mined from its machine code. The synthesizers never
/// hand-pick addresses — everything derives from the policy and the
/// binary, so a new victim gets a new corpus for free.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include "analyzer/GadgetScan.h"
#include "support/StringUtils.h"
#include "toolchain/Toolchain.h"

#include <algorithm>
#include <map>
#include <set>

using namespace mcfi;
using namespace mcfi::attack;

/// The built-in victim: a hot loop dispatching through the writable
/// function-pointer global `hook`, with same-class, cross-class and
/// dangerous alternates all address-taken (only address-taken functions
/// are IBTs). `spare`/`wrong`/`danger` are never invoked, so attacks on
/// them exercise the UnreachableByPolicy verdict.
static const char *BuiltinVictimSource = R"(
long benign(long x) { return x + 1; }
long benign2(long x) { return x + 2; }
long same_type_other(long x) { return x * 2; }
long same_type_third(long x) { return x * 3 + 1; }
long wrong_type(long a, long b) { return a * b; }
void execve_like(char *prog) { print_str("PWNED: "); print_str(prog); }

long (*hook)(long) = benign;
long (*spare)(long) = same_type_other;
long (*third)(long) = same_type_third;
long (*wrong)(long, long) = wrong_type;
void (*danger)(char *) = execve_like;

int main() {
  long acc = 0;
  long i;
  for (i = 0; i < 30000; i = i + 1) {
    acc = acc + hook(i);
  }
  print_int(acc & 65535);
  return 0;
}
)";

/// The plugin registered for code-epoch-replay: loaded by a host-side
/// dlopen *after* the victim's mid-run slice. plug_same shares hook's
/// signature (a legal cross-module extension of its class); plug_wrong
/// does not.
static const char *EpochPluginSource = R"(
long plug_same(long x) { return x * 5 + 2; }
long plug_wrong(long a, long b) { return a + b; }
long (*plug_exports)(long) = plug_same;
long (*plug_exports2)(long, long) = plug_wrong;
)";

VictimSpec mcfi::attack::builtinVictim() {
  return {"builtin", {BuiltinVictimSource}};
}

VictimBuild mcfi::attack::buildVictim(const VictimSpec &Victim, ExecTier Tier,
                                      uint64_t SliceFuel) {
  VictimBuild V;
  BuildSpec Spec;
  Spec.Instrument = true;
  Spec.LinkRtLibrary = false;
  Spec.Tier = Tier;
  V.BP = buildProgram(Victim.Sources, Spec);
  if (!V.BP.Ok)
    return V;

  CompileOptions CO;
  CO.ModuleName = "epoch_plugin";
  CompileResult CR = compileModule(EpochPluginSource, CO);
  if (!CR.Ok) {
    V.BP.Ok = false;
    V.BP.Error = "epoch plugin: compile failed";
    return V;
  }
  V.BP.L->registerLibrary(std::move(CR.Obj));

  if (!V.BP.M->makeThread("_start", V.T)) {
    V.BP.Ok = false;
    V.BP.Error = "victim has no _start";
    return V;
  }
  V.SliceFuel = SliceFuel;
  if (V.SliceFuel) {
    RunResult Mid = V.BP.M->run(V.T, V.SliceFuel);
    if (Mid.Reason != StopReason::OutOfFuel) {
      // Victim finished (or died) inside the slice: mutate-at-start
      // instead. Rebuild the thread so the attack run starts clean.
      V.SliceFuel = 0;
      return buildVictim(Victim, Tier, 0);
    }
    V.SliceRan = true;
  }
  return V;
}

namespace {

/// A corruptible 8-byte slot discovered in the victim.
struct PtrSlot {
  std::string Name;  ///< data symbol, or "stack+0x..." for return slots
  uint64_t Addr = 0;
  uint64_t Value = 0;
  uint32_t ECN = 0;
  bool IsRetSlot = false;
};

std::string hex(uint64_t V) {
  return formatString("0x%llx", static_cast<unsigned long long>(V));
}

/// Deterministic pick-without-replacement from a sorted candidate list.
template <typename T>
std::vector<T> pickUpTo(std::vector<T> Sorted, unsigned N, RNG &R) {
  std::vector<T> Out;
  while (!Sorted.empty() && Out.size() < N) {
    size_t I = static_cast<size_t>(R.below(Sorted.size()));
    Out.push_back(Sorted[I]);
    Sorted.erase(Sorted.begin() + static_cast<long>(I));
  }
  return Out;
}

} // namespace

std::vector<GuestAttack> mcfi::attack::synthesizeGuestAttacks(
    VictimBuild &V, const std::vector<AttackClass> &Classes,
    unsigned MaxPerClass, RNG &R) {
  std::vector<GuestAttack> Out;
  Machine &M = *V.BP.M;
  const CFGPolicy &Policy = V.BP.L->policy();

  auto Wants = [&](AttackClass C) {
    return std::find(Classes.begin(), Classes.end(), C) != Classes.end();
  };

  // The victim's artifacts, all in deterministic (sorted) order.

  // Return sites (they are IBTs, but of the return classes).
  std::set<uint64_t> RetSites;
  for (const MappedModule &Mod : M.modules())
    for (const CallSiteInfo &CS : Mod.Obj->Aux.CallSites)
      if (!CS.IsSetjmp)
        RetSites.insert(Mod.CodeBase + CS.RetSiteOffset);

  // Function-pointer slots: data symbols whose stored value is an IBT.
  std::vector<PtrSlot> Slots;
  for (const MappedModule &Mod : M.modules()) {
    std::vector<std::pair<std::string, uint64_t>> Syms(
        Mod.Obj->DataSymbols.begin(), Mod.Obj->DataSymbols.end());
    std::sort(Syms.begin(), Syms.end());
    for (const auto &[Name, Off] : Syms) {
      uint64_t Addr = Mod.DataBase + Off;
      uint64_t Val = 0;
      if (!M.load(Addr, 8, Val))
        continue;
      auto It = Policy.TargetECN.find(Val);
      if (It == Policy.TargetECN.end() || RetSites.count(Val))
        continue;
      Slots.push_back({Name, Addr, Val, It->second, false});
    }
  }

  // Return-address slots on the live (post-slice) stack: the first few
  // stack words holding known return sites.
  std::vector<PtrSlot> RetSlots;
  if (V.SliceRan) {
    uint64_t SP = V.T.Regs[visa::RegSP];
    for (uint64_t Addr = SP; Addr < SP + 65536 && RetSlots.size() < 4;
         Addr += 8) {
      uint64_t Val = 0;
      if (!M.load(Addr, 8, Val))
        break;
      if (!RetSites.count(Val))
        continue;
      auto It = Policy.TargetECN.find(Val);
      if (It == Policy.TargetECN.end())
        continue;
      RetSlots.push_back(
          {"stack+" + hex(Addr - SP), Addr, Val, It->second, true});
    }
  }

  // IBTs grouped by class, ascending within each class (the policy
  // iterates in address order).
  std::map<uint32_t, std::vector<uint64_t>> ByECN;
  for (const auto &[Addr, ECN] : Policy.TargetECN)
    ByECN[ECN].push_back(Addr);

  // The slot on the live dispatch path, for the classes that need the
  // corruption *consumed* (fused-check, epoch-replay, rop). The built-in
  // victim (and the SecurityTest family) dispatches through `hook`;
  // other victims fall back to the first slot.
  const PtrSlot *DispatchSlot = Slots.empty() ? nullptr : &Slots.front();
  for (const PtrSlot &S : Slots)
    if (S.Name == "hook")
      DispatchSlot = &S;

  // -------- fnptr-in-class: swaps inside the slot's own class ----------
  if (Wants(AttackClass::FnPtrInClass)) {
    std::vector<std::pair<PtrSlot, uint64_t>> Cands;
    for (const PtrSlot &S : Slots)
      for (uint64_t T : ByECN[S.ECN])
        if (T != S.Value)
          Cands.push_back({S, T});
    for (auto &[S, T] : pickUpTo(Cands, MaxPerClass, R)) {
      GuestAttack A;
      A.Class = AttackClass::FnPtrInClass;
      A.Name = "in:" + S.Name + ":" + hex(T);
      A.Expect = Expectation::InClassTransfer;
      A.SlotAddr = S.Addr;
      A.Target = T;
      Out.push_back(A);
    }
  }

  // -------- fnptr-cross-class: entries of other classes, return sites,
  // and a smashed return address redirected to a function entry --------
  if (Wants(AttackClass::FnPtrCrossClass)) {
    std::vector<std::pair<PtrSlot, uint64_t>> Cands;
    for (const PtrSlot &S : Slots)
      for (const auto &[ECN, Addrs] : ByECN) {
        if (ECN == S.ECN)
          continue;
        for (uint64_t T : Addrs)
          Cands.push_back({S, T});
      }
    for (const PtrSlot &S : RetSlots)
      for (const PtrSlot &F : Slots)
        Cands.push_back({S, F.Value}); // ret slot -> function entry
    for (auto &[S, T] : pickUpTo(Cands, MaxPerClass, R)) {
      GuestAttack A;
      A.Class = AttackClass::FnPtrCrossClass;
      A.Name = "cross:" + S.Name + ":" + hex(T);
      A.SlotAddr = S.Addr;
      A.Target = T;
      Out.push_back(A);
    }
  }

  // -------- rop-gadget: mined mid-instruction gadget starts ------------
  if (Wants(AttackClass::RopGadget) && !Slots.empty()) {
    uint64_t CodeSize = M.codeTop() - Machine::CodeBase;
    const uint8_t *Code = M.codePtr(Machine::CodeBase, CodeSize);
    std::vector<uint64_t> Gadgets;
    if (Code) {
      auto Scan = mineGadgets(Code, CodeSize);
      for (const MinedGadget &G : Scan->Gadgets) {
        uint64_t Abs = Machine::CodeBase + G.Start;
        // Only starts the policy does not bless: true ROP entry points.
        if (!Policy.TargetECN.count(Abs))
          Gadgets.push_back(Abs);
      }
      std::sort(Gadgets.begin(), Gadgets.end());
    }
    std::vector<std::pair<PtrSlot, uint64_t>> Cands;
    for (uint64_t G : Gadgets) {
      Cands.push_back({*DispatchSlot, G});
      if (!RetSlots.empty())
        Cands.push_back({RetSlots.front(), G});
    }
    for (auto &[S, T] : pickUpTo(Cands, MaxPerClass, R)) {
      GuestAttack A;
      A.Class = AttackClass::RopGadget;
      A.Name = "rop:" + S.Name + ":" + hex(T);
      A.SlotAddr = S.Addr;
      A.Target = T;
      Out.push_back(A);
    }
  }

  // -------- fake-table: forged IDs in guest memory + hijack ------------
  if (Wants(AttackClass::FakeTable) && !Slots.empty()) {
    std::vector<std::pair<PtrSlot, uint64_t>> Cands;
    for (const PtrSlot &S : Slots)
      for (const auto &[ECN, Addrs] : ByECN) {
        if (ECN == S.ECN)
          continue;
        for (uint64_t T : Addrs)
          Cands.push_back({S, T});
      }
    for (auto &[S, T] : pickUpTo(Cands, MaxPerClass, R)) {
      GuestAttack A;
      A.Class = AttackClass::FakeTable;
      A.Name = "fake:" + S.Name + ":" + hex(T);
      A.SlotAddr = S.Addr;
      A.Target = T;
      A.ForgeIDs = true;
      Out.push_back(A);
    }
  }

  // -------- fused-check: corrupt the hot dispatch slot mid-run --------
  if (Wants(AttackClass::FusedCheck) && !Slots.empty() && V.SliceRan) {
    const PtrSlot &S = *DispatchSlot;
    std::vector<uint64_t> Cands;
    for (const auto &[ECN, Addrs] : ByECN) {
      if (ECN == S.ECN)
        continue;
      for (uint64_t T : Addrs)
        Cands.push_back(T);
    }
    for (uint64_t T : ByECN[S.ECN])
      if (T != S.Value && !Policy.TargetECN.count(T + 3))
        Cands.push_back(T + 3); // mid-instruction inside the hot class
    std::sort(Cands.begin(), Cands.end());
    for (uint64_t T : pickUpTo(Cands, MaxPerClass, R)) {
      GuestAttack A;
      A.Class = AttackClass::FusedCheck;
      A.Name = "fused:" + S.Name + ":" + hex(T);
      A.SlotAddr = S.Addr;
      A.Target = T;
      Out.push_back(A);
    }
  }

  // -------- code-epoch-replay: hijack into a dlopen'd module -----------
  if (Wants(AttackClass::CodeEpochReplay) && !Slots.empty() && V.SliceRan) {
    const PtrSlot &S = *DispatchSlot;
    struct Variant {
      const char *Sym;
      uint64_t Delta;
      Expectation Expect;
      const char *Tag;
    };
    // After the dlopen bumps the code epoch: a wrong-class entry must
    // die, a mid-instruction target in the *new* module must die, and a
    // same-signature entry must join the class (the dynamic CFG update
    // working as designed).
    const Variant Variants[] = {
        {"plug_wrong", 0, Expectation::Killed, "entry"},
        {"plug_same", 3, Expectation::Killed, "mid"},
        {"plug_same", 0, Expectation::InClassTransfer, "inclass"},
    };
    unsigned N = 0;
    for (const Variant &Var : Variants) {
      if (N++ >= MaxPerClass)
        break;
      GuestAttack A;
      A.Class = AttackClass::CodeEpochReplay;
      A.Name = std::string("epoch:") + Var.Tag + ":" + S.Name + ":" +
               Var.Sym + "+" + std::to_string(Var.Delta);
      A.Expect = Var.Expect;
      A.SlotAddr = S.Addr;
      A.TargetSymbol = Var.Sym;
      A.TargetDelta = Var.Delta;
      A.DlopenLibrary = true;
      Out.push_back(A);
    }
  }

  return Out;
}
