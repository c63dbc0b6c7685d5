//===- attack/AttackInternal.h - Synthesizer-internal plumbing --*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations between the corpus driver (Corpus.cpp), the
/// guest-level synthesizers (AttackSynth.cpp), and the table-level
/// synthesizers (TableAttacks.cpp). Not part of the public surface.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_ATTACK_ATTACKINTERNAL_H
#define MCFI_ATTACK_ATTACKINTERNAL_H

#include "attack/Attack.h"
#include "linker/Linker.h"
#include "metrics/Harness.h"
#include "support/RNG.h"

#include <memory>

namespace mcfi {
namespace attack {

/// One synthesized guest-level attack: a recipe the driver replays
/// against a fresh victim build. Everything is resolved either to an
/// absolute address at synthesis time (same sources + same spec ⇒ same
/// layout) or to a symbol looked up after the optional dlopen.
struct GuestAttack {
  AttackClass Class = AttackClass::FnPtrInClass;
  std::string Name;
  Expectation Expect = Expectation::Killed;
  /// Guest address of the 8-byte slot to corrupt (a function-pointer
  /// global or a stack slot holding a return address).
  uint64_t SlotAddr = 0;
  /// Absolute hijack target; ignored when TargetSymbol is set.
  uint64_t Target = 0;
  /// Resolve the target by symbol at attack time (code-epoch-replay:
  /// the symbol only exists after the dlopen), plus a byte delta for
  /// mid-instruction variants.
  std::string TargetSymbol;
  uint64_t TargetDelta = 0;
  /// fake-table: plant counterfeit ID words in guest memory before the
  /// hijack.
  bool ForgeIDs = false;
  /// code-epoch-replay: host-side dlopen of the registered plugin after
  /// the slice, before the corruption.
  bool DlopenLibrary = false;
};

/// Victim build shared by synthesis and replay.
struct VictimBuild {
  BuiltProgram BP;
  Thread T;
  /// Instructions of the mid-run slice executed before mutation (0 when
  /// the victim is too short to interrupt mid-run).
  uint64_t SliceFuel = 0;
  bool SliceRan = false;
};

/// Extra MiniC translation units appended to victim builds.
struct VictimConfig {
  bool LinkRt = false;
};

/// Builds the victim at the given tier, registers the epoch-replay
/// plugin library, creates the _start thread, and (when SliceFuel > 0)
/// runs the mid-run slice. Returns Ok=false in BP on failure.
VictimBuild buildVictim(const VictimSpec &Victim, ExecTier Tier,
                        uint64_t SliceFuel);

/// Enumerates guest-level attacks for the classes in \p Classes against
/// the post-slice state of \p V. Deterministic for a fixed RNG state.
std::vector<GuestAttack>
synthesizeGuestAttacks(VictimBuild &V, const std::vector<AttackClass> &Classes,
                       unsigned MaxPerClass, RNG &R);

/// Executes the table-level synthesizers (stale-version-replay,
/// torn-update) directly against standalone IDTables instances. The
/// returned records carry \p Tier verbatim, so table attacks slot into
/// the same per-tier report rows as guest attacks, and name their victim
/// "id-tables".
std::vector<AttackRecord> runTableAttacks(AttackClass Class, ExecTier Tier,
                                          unsigned MaxPerClass);

/// Executes the unload synthesizers (UnloadAttacks.cpp) against fresh
/// builds of the builtin victim + registered plugin at \p Tier: dispatch
/// into a retired-but-unreclaimed module, replay of a pre-close in-class
/// bind, and a dlclose/dlopen ID-snapshot ABA probe. Records carry
/// \p Tier and name the builtin victim.
std::vector<AttackRecord> runUnloadAttacks(ExecTier Tier, unsigned MaxPerClass);

/// Executes the MLTA differential attacks (MltaAttacks.cpp) at \p Tier:
/// the layered-map victim is built under the type-matched policy and
/// again under the refined policy, and the same cross-enclosing-type
/// overwrite is replayed against both. FLTA must classify it
/// AllowedByPolicy (one signature class), the refined policy must kill
/// it at the check; a same-chain swap must stay AllowedByPolicy under both.
/// Records name their victim "dual-registry".
std::vector<AttackRecord> runMltaAttacks(ExecTier Tier, unsigned MaxPerClass);

/// Dlopens each malicious module (buildMaliciousModules), after a
/// writeObject/readObject round trip, into a fresh host at \p Tier. The
/// list is fixed, not enumerated, so no per-class cap applies. Records
/// name their victim "plugin-host".
std::vector<AttackRecord> runMaliciousModuleAttacks(ExecTier Tier);

const char *tierLabel(ExecTier T);

/// The malicious-module class's world (MaliciousModules.cpp): the host
/// program defines `secret`, which prints 666 and whose address nothing
/// takes, and calls `ok` through a function pointer, so its main holds
/// one checked `calli r15`. The clean plugins the malicious ones are
/// made from export `plugin_fn`: one dispatches a switch over a jump
/// table beside a global `long tbl[8]`, the other is plain arithmetic.
/// Exposed for the malicious-module tests.
const char *pluginHostSource();
const char *jumpTablePluginSource();

/// The host linked into a fresh, small machine.
struct PluginHost {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Linker> L;
};

/// Builds \p H at \p Tier. Every build lays the host out alike, so a
/// first dlopen maps library 0 at the same addresses in each.
bool buildPluginHost(PluginHost &H, ExecTier Tier, const LinkOptions &Opts,
                     std::string &Error);

/// One hand-built module of the malicious-module class.
struct MaliciousModule {
  std::string Name;
  MCFIObject Obj;
  uint64_t BadOffset = 0; ///< the code offset its refusal names
};

/// Builds the class's modules, each laid out for where a first dlopen
/// into a fresh buildPluginHost maps it.
bool buildMaliciousModules(std::vector<MaliciousModule> &Out,
                           std::string &Error);

/// Adds \p Delta to the addend of every jump-table relocation of \p Obj:
/// each JumpTable64 entry and each CodeAddr64 table address.
void shiftJumpTables(MCFIObject &Obj, uint64_t Delta);

} // namespace attack
} // namespace mcfi

#endif // MCFI_ATTACK_ATTACKINTERNAL_H
