//===- attack/UnloadAttacks.cpp - dlclose-lifecycle attacks ---------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attacks on the module-unload lifecycle, driven through a full
/// Machine+Linker per tier (the builtin victim plus its registered
/// plugin, the same pair the code-epoch-replay class uses):
///
///  - retired-dispatch: the plugin is dlclosed but its grace period has
///    not elapsed — the region is still mapped, only the tables were
///    scrubbed by the retire transaction. A hijack into it must die at
///    the check (zeroed Bary/Tary), proving a check against a condemned
///    module classifies CaughtByCheck and never consults dying state.
///  - preclose-replay: the dispatch pointer is bound to the plugin while
///    that edge is LEGAL (an in-class bind), then the plugin is
///    dlclosed. Replaying the formerly-legal edge must die: retirement
///    revokes edges, not just future binds.
///  - aba-reuse: a Tary ID snapshotted pre-close (a stalled checker's
///    register image) must not validate into a successor instance
///    dlopen'd during the grace period. The condemned-ECN guard forces
///    the reopen through a full version-bumping rebuild exactly because
///    the dying class number would otherwise re-enter the tables while
///    stale snapshots may still be live.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include "tables/ID.h"
#include "toolchain/Toolchain.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::attack;

namespace {

constexpr uint64_t AttackFuel = 20'000'000;

AttackRecord makeRecord(ExecTier Tier, const std::string &Name, Verdict V,
                        const std::string &Detail) {
  AttackRecord R;
  R.Class = AttackClass::Unload;
  R.Tier = Tier;
  R.Victim = builtinVictim().Name;
  R.Name = Name;
  R.Expect = Expectation::Killed;
  R.V = V;
  R.Detail = Detail;
  return R;
}

/// Address of the victim's `hook` dispatch slot (0 if absent).
uint64_t findHookSlot(const Machine &M) {
  for (const MappedModule &Mod : M.modules()) {
    auto It = Mod.Obj->DataSymbols.find("hook");
    if (It != Mod.Obj->DataSymbols.end())
      return Mod.DataBase + It->second;
  }
  return 0;
}

/// Classifies the post-hijack run. The corruption sits on the victim's
/// hot dispatch path, so a clean exit means the hijack was consumed and
/// survived; there is no unreachable case here.
Verdict classifyHijack(const RunResult &R) {
  switch (R.Reason) {
  case StopReason::CfiViolation:
    return Verdict::CaughtByCheck;
  case StopReason::Trap:
    if (R.Message.find("W^X") != std::string::npos ||
        R.Message.find("fetch from unmapped") != std::string::npos ||
        R.Message.find("invalid instruction") != std::string::npos)
      return Verdict::CaughtByMask;
    return Verdict::Trapped;
  case StopReason::Exited:
  case StopReason::OutOfFuel:
    return Verdict::Survived;
  }
  return Verdict::Survived;
}

/// Shared setup: builtin victim + plugin, dlopen'd, with the plugin's
/// in-class export resolved while it is still visible.
struct UnloadSetup {
  VictimBuild W;
  uint64_t HookAddr = 0;
  uint64_t PlugFn = 0;
  int64_t Handle = -1;
  bool Ok = false;
  std::string Error;
};

UnloadSetup setUp(ExecTier Tier) {
  UnloadSetup S;
  S.W = buildVictim(builtinVictim(), Tier, 0);
  if (!S.W.BP.Ok) {
    S.Error = "victim build failed: " + S.W.BP.Error;
    return S;
  }
  S.HookAddr = findHookSlot(*S.W.BP.M);
  if (!S.HookAddr) {
    S.Error = "victim has no hook slot";
    return S;
  }
  S.Handle = S.W.BP.L->dlopen(0);
  if (S.Handle < 0) {
    S.Error = "plugin dlopen failed: " + S.W.BP.L->lastError();
    return S;
  }
  S.PlugFn = S.W.BP.M->findFunction("plug_same");
  if (!S.PlugFn) {
    S.Error = "plug_same not found after dlopen";
    return S;
  }
  S.Ok = true;
  return S;
}

/// Hijack into a retired-but-not-reclaimed module: the slot is written
/// AFTER dlclose, while the region still awaits its grace period.
AttackRecord retiredDispatch(ExecTier Tier) {
  UnloadSetup S = setUp(Tier);
  if (!S.Ok)
    return makeRecord(Tier, "unload:retired-dispatch",
                      Verdict::Survived, S.Error);
  Machine &M = *S.W.BP.M;
  if (!S.W.BP.L->dlcloseOne(S.Handle))
    return makeRecord(Tier, "unload:retired-dispatch",
                      Verdict::Survived, "dlclose refused the handle");
  if (!M.reclaimPending())
    return makeRecord(Tier, "unload:retired-dispatch",
                      Verdict::Survived,
                      "region reclaimed before the dispatch: no window");
  M.store(S.HookAddr, 8, S.PlugFn);
  RunResult R = M.run(S.W.T, AttackFuel);
  Verdict V = classifyHijack(R);
  return makeRecord(Tier, "unload:retired-dispatch", V,
                    "retired region still mapped; run: " + R.Message);
}

/// A pre-close in-class bind replayed after dlclose: the edge was legal
/// when installed, and retirement must revoke it.
AttackRecord precloseReplay(ExecTier Tier) {
  UnloadSetup S = setUp(Tier);
  if (!S.Ok)
    return makeRecord(Tier, "unload:preclose-replay",
                      Verdict::Survived, S.Error);
  Machine &M = *S.W.BP.M;
  // Bind while legal: plug_same shares hook's signature, so this is the
  // in-class transfer the policy would allow if the module stayed.
  M.store(S.HookAddr, 8, S.PlugFn);
  if (!S.W.BP.L->dlcloseOne(S.Handle))
    return makeRecord(Tier, "unload:preclose-replay",
                      Verdict::Survived, "dlclose refused the handle");
  RunResult R = M.run(S.W.T, AttackFuel);
  Verdict V = classifyHijack(R);
  return makeRecord(Tier, "unload:preclose-replay", V,
                    "formerly-legal edge replayed; run: " + R.Message);
}

/// dlclose/dlopen ABA: a Tary ID snapshotted before the close must not
/// validate against any word the successor instance installs during the
/// grace period (same ECN + same version half would let a stalled
/// checker pass into the new module's code).
AttackRecord abaReuse(ExecTier Tier) {
  UnloadSetup S = setUp(Tier);
  if (!S.Ok)
    return makeRecord(Tier, "unload:aba-reuse", Verdict::Survived,
                      S.Error);
  Machine &M = *S.W.BP.M;
  uint32_t Stale = M.tables().taryRead(S.PlugFn - Machine::CodeBase);
  if (!isValidID(Stale))
    return makeRecord(Tier, "unload:aba-reuse", Verdict::Survived,
                      "setup: plugin export has no Tary ID");
  if (!S.W.BP.L->dlcloseOne(S.Handle))
    return makeRecord(Tier, "unload:aba-reuse", Verdict::Survived,
                      "dlclose refused the handle");

  // Reopen during the grace period: the retired instance's class number
  // is condemned, so this install must take the full version-bumping
  // rebuild, not the incremental no-bump path.
  int64_t H2 = S.W.BP.L->dlopen(0);
  if (H2 < 0)
    return makeRecord(Tier, "unload:aba-reuse", Verdict::Survived,
                      "reopen during grace failed: " +
                          S.W.BP.L->lastError());
  uint64_t NewBase = M.modules()[static_cast<size_t>(H2)].CodeBase;
  uint64_t NewEnd = NewBase + M.modules()[static_cast<size_t>(H2)].CodeSize;
  for (uint64_t A = NewBase; A < NewEnd; A += 4) {
    uint32_t Now = M.tables().taryRead(A - Machine::CodeBase);
    if (isValidID(Now) && sameVersionHalf(Stale, Now) &&
        idECN(Now) == idECN(Stale))
      return makeRecord(Tier, "unload:aba-reuse", Verdict::Survived,
                        "pre-close ID snapshot validates into the "
                        "successor instance");
  }
  return makeRecord(Tier, "unload:aba-reuse", Verdict::CaughtByCheck,
                    "condemned-ECN guard bumped the version: stale "
                    "snapshot matches nothing in the successor");
}

} // namespace

std::vector<AttackRecord>
mcfi::attack::runUnloadAttacks(ExecTier Tier, unsigned MaxPerClass) {
  using Synth = AttackRecord (*)(ExecTier);
  static const Synth List[] = {retiredDispatch, precloseReplay, abaReuse};
  constexpr unsigned N = sizeof(List) / sizeof(List[0]);
  std::vector<AttackRecord> Out;
  for (unsigned I = 0; I != N && I != MaxPerClass; ++I)
    Out.push_back(List[I](Tier));
  return Out;
}
