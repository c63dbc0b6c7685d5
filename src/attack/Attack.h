//===- attack/Attack.h - Adversarial attack-synthesis harness ---*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversarial gauntlet: a synthesized attack corpus that must lose.
/// Per victim program, the synthesizers auto-generate exploit attempts
/// under the paper's concurrent-attacker threat model (the attacker may
/// write any writable guest memory between any two instructions; we play
/// the attacker from the host, which is exactly that power) and assert
/// that every attempt ends in a *classified* verdict. `Survived` fails
/// the run — that is the security argument of Sec. 6 made measurable,
/// attack-class by attack-class, the way Burow et al. evaluate real CFI
/// systems.
///
/// Attack classes:
///  - fnptr-in-class / fnptr-cross-class: function-pointer overwrites
///    enumerated from the generated CFG's ECN partition. In-class swaps
///    are the policy's declared precision boundary and must land (or be
///    policy-refused) deterministically; cross-class hijacks must die at
///    TxCheck.
///  - rop-gadget: hijacks into unaligned-decode gadget starts mined by
///    the shared scanner (analyzer/GadgetScan.h) — both via a corrupted
///    function pointer and via a smashed return address.
///  - fake-table: counterfeit ID words (correct ECN and version, forged
///    with full knowledge of the encoding) planted in guest memory; the
///    check transactions read the host-side tables only, so the forgery
///    is unreachable and the accompanying hijack still dies.
///  - stale-version-replay: replay of IDs snapshotted before a
///    version-bumping TxUpdate, and an attempted update storm that must
///    be refused with VersionExhausted before the 14-bit version space
///    wraps into replayable territory.
///  - torn-update: racing TxCheck against full-rebuild and incremental
///    TxUpdate storms, probing for a torn cross-version table pair that
///    momentarily validates a never-legal edge. Racy by construction
///    (and TSan-clean: every access goes through the tables' atomics).
///  - fused-check: a pointer corrupted mid-run, so on the threaded tier
///    the fused TxCheck superinstruction must catch what the discrete
///    sequence would.
///  - code-epoch-replay: hijacks into a module dlopen'd mid-run; the
///    stale predecoded segment must not cover the new code, and the
///    fallback path must re-check it in full.
///  - mlta: cross-enclosing-type function-pointer overwrites. The MLTA
///    victim dispatches through fnptr fields of two structurally
///    distinct registry structs whose handlers share one signature —
///    one FLTA equivalence class. Overwriting registry A's field with
///    registry B's handler is therefore in-class under the plain
///    type-matched policy (AllowedByPolicy: the documented precision
///    boundary) but crosses classes under the MLTA-refined policy and
///    must die at the check. The class runs each overwrite under both
///    builds and asserts exactly that verdict flip; a same-chain swap
///    under MLTA stays AllowedByPolicy (refinement must not overclaim).
///  - unload: the dlclose lifecycle. Dispatch through a pointer into a
///    retired-but-not-reclaimed module (the region is still mapped, the
///    grace period still running) must die at the check, never read the
///    dying code's tables; a formerly-legal in-class bind replayed after
///    its module's dlclose must die the same way; and a dlclose/dlopen
///    cycle must never let a pre-close ID snapshot validate into the
///    successor instance (the condemned-ECN guard forces a version bump
///    when a dying class number re-enters the tables before grace).
///  - malicious-module: hand-built plugins that break a rule only the
///    loader's verifier enforces — a jump table relocated onto a data
///    array, direct branches out of the module, relocations over
///    opcodes, across instructions, on a check's constant or on the
///    wrong instruction, a function entry inside a check sequence. Each
///    must be refused at dlopen (RefusedAtLoad); a module the loader
///    accepts is Survived.
///
/// Every attack runs under both MachineOptions::Tier values; the
/// differential tier harness guarantees the tiers agree, and this corpus
/// guarantees what they agree *on* is a kill.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_ATTACK_ATTACK_H
#define MCFI_ATTACK_ATTACK_H

#include "runtime/Machine.h"

#include <map>
#include <string>
#include <vector>

namespace mcfi {
namespace attack {

/// The synthesizer families. Order is the report order.
enum class AttackClass : uint8_t {
  FnPtrInClass,
  FnPtrCrossClass,
  RopGadget,
  FakeTable,
  StaleVersionReplay,
  TornUpdate,
  FusedCheck,
  CodeEpochReplay,
  Unload,
  Mlta,
  MaliciousModule,
};
constexpr unsigned NumAttackClasses = 11;

const char *className(AttackClass C);
bool parseClassName(const std::string &Name, AttackClass &Out);

/// The verdict lattice. Every attack must end in one of the classified
/// outcomes; Survived is the failure state.
enum class Verdict : uint8_t {
  /// The hijack observably diverted execution outside the policy and was
  /// never stopped. Any occurrence fails the corpus.
  Survived,
  /// A check transaction executed hlt (or a runtime-mediated transfer
  /// failed validation): the paper's intended kill.
  CaughtByCheck,
  /// The SFI layer stopped it: sandbox mask / W^X / decode validity
  /// (fetch from unmapped or unsealed code, mid-instruction fetch the
  /// decoder rejects).
  CaughtByMask,
  /// A hardware-level fault unrelated to the transfer itself (data
  /// access fault, stack overflow, division fault).
  Trapped,
  /// The corruption never reached an indirect transfer (unused pointer,
  /// fuel-bounded loop, or the update protocol refused to create the
  /// attackable state). The attack was dead on arrival under the policy.
  UnreachableByPolicy,
  /// In-class transfers only: the swap landed inside its equivalence
  /// class — the documented precision boundary, not a protection failure.
  AllowedByPolicy,
  /// The loader's verifier refused the module: it was never sealed, so
  /// none of its code ran.
  RefusedAtLoad,
};
constexpr unsigned NumVerdicts = 7;

const char *verdictName(Verdict V);
const char *tierLabel(ExecTier T);

/// What the synthesizer expects of an attack.
enum class Expectation : uint8_t {
  /// Must be killed: any of CaughtByCheck/CaughtByMask/Trapped/
  /// UnreachableByPolicy. AllowedByPolicy or Survived is a failure.
  Killed,
  /// In-class transfer: AllowedByPolicy or a deterministic policy
  /// refusal (CaughtByCheck) are both acceptable; Survived is not.
  InClassTransfer,
};

/// One synthesized, executed, classified attack.
struct AttackRecord {
  AttackClass Class = AttackClass::FnPtrInClass;
  ExecTier Tier = ExecTier::Interpreter;
  std::string Victim; ///< victim program name
  std::string Name;   ///< deterministic attack id within (victim, tier)
  uint64_t Target = 0; ///< hijack target address (0: table-level attack)
  Expectation Expect = Expectation::Killed;
  Verdict V = Verdict::Survived;
  std::string Detail; ///< stop reason + message, deterministic
};

/// One victim program: translation-unit sources compiled, instrumented
/// and linked per tier. An empty Victims list uses the built-in victim.
struct VictimSpec {
  std::string Name;
  std::vector<std::string> Sources;
};

struct CorpusOptions {
  uint64_t Seed = 0x5eed;
  /// Tiers to run every attack under (default: both).
  std::vector<ExecTier> Tiers = {ExecTier::Interpreter, ExecTier::Threaded};
  /// Classes to synthesize (empty: all).
  std::vector<AttackClass> Classes;
  /// Cap on enumerated attacks per class per (victim, tier).
  unsigned MaxPerClass = 4;
  /// Instruction budget per attack run: bounds attacks that corrupt
  /// memory no transfer ever consumes (they must classify
  /// UnreachableByPolicy, not hang the harness).
  uint64_t Fuel = 20'000'000;
  /// Victim programs; empty uses the built-in hook-dispatch victim.
  std::vector<VictimSpec> Victims;
};

struct ClassSummary {
  uint64_t Corpus = 0;   ///< attacks synthesized and executed
  uint64_t Killed = 0;   ///< CaughtBy* / Trapped / UnreachableByPolicy
  uint64_t Allowed = 0;  ///< AllowedByPolicy (in-class precision boundary)
  uint64_t Survived = 0;
  uint64_t ByVerdict[NumVerdicts] = {};
};

struct CorpusReport {
  std::vector<AttackRecord> Records;
  std::map<AttackClass, ClassSummary> Classes;
  uint64_t Survivors = 0;
  uint64_t ExpectationMismatches = 0;
  /// AIR-style summary: per class, Killed / (Corpus - Allowed), averaged
  /// over classes with a nonzero denominator — the Attack
  /// Incapacitation Rate. 1.0 means every must-die attack died.
  double AIR = 0;
  bool Ok = false;
  std::string Error;
};

/// Synthesizes and executes the corpus. Deterministic for a fixed
/// options value: same seed, same attacks, same verdict sequence.
CorpusReport runCorpus(const CorpusOptions &Opts);

/// Machine-readable rendering (stable field order; byte-identical for
/// identical reports).
std::string corpusJSON(const CorpusReport &R, const CorpusOptions &Opts);

/// The MiniC sources of the built-in victim (exposed for tests).
VictimSpec builtinVictim();

/// Classifies one attack run against the clean reference run of the
/// same (victim, tier). Exposed for the verdict-edge tests.
Verdict classifyRun(const RunResult &R, const std::string &Output,
                    const RunResult &Ref, const std::string &RefOutput,
                    Expectation Expect);

} // namespace attack
} // namespace mcfi

#endif // MCFI_ATTACK_ATTACK_H
