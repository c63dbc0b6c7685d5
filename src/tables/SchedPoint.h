//===- tables/SchedPoint.h - Instrumentable atomic-access seam --*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SchedPoint seam: a hook invoked at every atomic load, store, RMW,
/// and fence inside the check/update transaction paths (txCheck,
/// txCheckSlow, and the update transactions txUpdate,
/// txUpdateIncremental and txUpdateRetire, whose accesses go through
/// IDTables.cpp's seam helpers), and at the reclaimer's pending-region
/// counter (tables/Reclaim.h). The deterministic schedule-exploration
/// checker (src/schedcheck) uses it to gain control before each
/// shared-memory access of a logical thread — the scheduling decision
/// point — and to observe the value moved, which feeds the
/// linearizability oracle and the torn-read (reserved-bits) check.
///
/// In normal builds the hooks compile to empty inline functions, so the
/// production tables (mcfi_tables) carry zero overhead. The instrumented
/// twin library (mcfi_tables_sched) compiles the same sources with
/// MCFI_SCHED_HOOKS=1; only schedcheck binaries link it. Never link both
/// libraries into one executable.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_TABLES_SCHEDPOINT_H
#define MCFI_TABLES_SCHEDPOINT_H

#include <cstdint>

namespace mcfi {

/// The flavor of atomic access a scheduling point precedes.
enum class SchedOp : uint8_t {
  LoadRelaxed,
  LoadAcquire,
  StoreRelaxed,
  RMWRelaxed,
  RMWRelease,
  FenceAcquire,
  FenceSeqCst,
};

/// Which shared object of the table structure is accessed.
enum class SchedObject : uint8_t {
  None, ///< fences: no single object
  Tary,
  Bary,
  Version,
  UpdateSeq,
  UpdateCount,
  VersionedUpdateCount,
  EpochBase,
  SlowRetries,
  InstalledTary,
  InstalledBary,
  Reclaim, ///< epoch-reclamation pending-region counter (tables/Reclaim.h)
};

/// One instrumented access: the hook payload.
struct SchedAccess {
  SchedOp Op;
  SchedObject Obj;
  uint64_t Index; ///< element index for Tary (word) / Bary, else 0
  uint64_t Value; ///< value loaded/stored (Observe only; 0 for fences)
};

inline const char *schedOpName(SchedOp Op) {
  switch (Op) {
  case SchedOp::LoadRelaxed:
    return "load";
  case SchedOp::LoadAcquire:
    return "load.acq";
  case SchedOp::StoreRelaxed:
    return "store";
  case SchedOp::RMWRelaxed:
    return "rmw";
  case SchedOp::RMWRelease:
    return "rmw.rel";
  case SchedOp::FenceAcquire:
    return "fence.acq";
  case SchedOp::FenceSeqCst:
    return "fence.sc";
  }
  return "?";
}

inline const char *schedObjectName(SchedObject Obj) {
  switch (Obj) {
  case SchedObject::None:
    return "-";
  case SchedObject::Tary:
    return "Tary";
  case SchedObject::Bary:
    return "Bary";
  case SchedObject::Version:
    return "Version";
  case SchedObject::UpdateSeq:
    return "UpdateSeq";
  case SchedObject::UpdateCount:
    return "Updates";
  case SchedObject::VersionedUpdateCount:
    return "VersionedUpdates";
  case SchedObject::EpochBase:
    return "EpochBase";
  case SchedObject::SlowRetries:
    return "SlowRetries";
  case SchedObject::InstalledTary:
    return "InstalledTary";
  case SchedObject::InstalledBary:
    return "InstalledBary";
  case SchedObject::Reclaim:
    return "Reclaim";
  }
  return "?";
}

#if MCFI_SCHED_HOOKS

/// The active hook pair. Yield runs *before* the access — the
/// cooperative scheduler's preemption point; Observe runs *after*, with
/// the value that moved. Both null when no harness is attached.
struct SchedHooks {
  void (*Yield)(void *Ctx, const SchedAccess &A) = nullptr;
  void (*Observe)(void *Ctx, const SchedAccess &A) = nullptr;
  void *Ctx = nullptr;
};

inline SchedHooks GSchedHooks;

/// TEST-ONLY MUTANT KNOB: when set, the update transactions install the
/// Bary phase *before* the Tary phase, violating Fig. 3's store order.
/// Exists so the schedule checker can prove it would catch the torn
/// observations that order prevents (ISSUE 3 acceptance criterion).
inline bool GSchedMutantReorderPhases = false;

/// TEST-ONLY MUTANT KNOB: when set, a retiring updater skips the grace
/// period — it may run (and reuse the retired range) while a checker is
/// still mid-transaction holding pre-retire IDs. The unload scenario must
/// detect the resulting use-after-retire as a torn observation.
inline bool GSchedMutantSkipGrace = false;

inline void schedYield(SchedOp Op, SchedObject Obj, uint64_t Index) {
  if (GSchedHooks.Yield)
    GSchedHooks.Yield(GSchedHooks.Ctx, SchedAccess{Op, Obj, Index, 0});
}

inline void schedObserve(SchedOp Op, SchedObject Obj, uint64_t Index,
                         uint64_t Value) {
  if (GSchedHooks.Observe)
    GSchedHooks.Observe(GSchedHooks.Ctx, SchedAccess{Op, Obj, Index, Value});
}

#else

// Production build: the seam vanishes entirely.
inline void schedYield(SchedOp, SchedObject, uint64_t) {}
inline void schedObserve(SchedOp, SchedObject, uint64_t, uint64_t) {}

#endif // MCFI_SCHED_HOOKS

} // namespace mcfi

#endif // MCFI_TABLES_SCHEDPOINT_H
