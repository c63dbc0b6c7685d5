//===- metrics/UpdateMetrics.h - Update-transaction accounting --*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The update-latency / entries-touched counter surface over the
/// linker's per-install TxUpdateStats history. bench_fig6_updates uses
/// it to compare the full-rebuild and incremental installation paths;
/// the JSON emitter keeps the numbers machine-trackable across runs.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_METRICS_UPDATEMETRICS_H
#define MCFI_METRICS_UPDATEMETRICS_H

#include "linker/Linker.h"

#include <cstdint>
#include <string>

namespace mcfi {

/// Aggregated view of a linker's update-transaction history.
struct UpdateSummary {
  uint64_t Installs = 0;            ///< update transactions run
  uint64_t FullInstalls = 0;        ///< version-bumping full rebuilds
  uint64_t IncrementalInstalls = 0; ///< O(delta) installs
  uint64_t TotalEntriesTouched = 0; ///< table stores across all installs
  uint64_t FullEntriesTouched = 0;
  uint64_t IncrementalEntriesTouched = 0;
  double TotalMicros = 0;
  double FullMicros = 0;
  double IncrementalMicros = 0;
  /// Times a check transaction's slow path re-read the tables because an
  /// update was in flight (bounded-retry telemetry from the tables).
  uint64_t SlowRetries = 0;
  /// Whether an update transaction was in flight at the instant of the
  /// snapshot (acquire-ordered read of the seqlock's parity). True in a
  /// steady-state summary means an updater died inside its bracket —
  /// every checker would be pinned to the slow path forever.
  bool UpdateInFlight = false;

  /// Dlopen batch telemetry (Linker::batchHistory): how many batch
  /// installs ran, how many dlopen requests they absorbed, and the
  /// largest single batch. BatchedDlopens > Batches means explicit
  /// dlopenBatch calls amortized installs across several modules.
  uint64_t Batches = 0;
  uint64_t BatchedDlopens = 0;
  uint64_t MaxBatch = 0;

  /// Dlclose batch telemetry (Linker::unloadHistory), mirroring the
  /// dlopen batch counters; Reinstalls counts unload batches whose CFG
  /// re-merge changed surviving classes and forced a full reinstall.
  uint64_t UnloadBatches = 0;
  uint64_t BatchedDlcloses = 0;
  uint64_t Reinstalls = 0;

  /// Epoch-reclamation counters (Machine::reclaimStats), present when a
  /// machine was supplied to summarizeUpdates.
  ReclaimStats Reclaim;
};

/// Aggregates \p L's updateHistory() plus retry telemetry from \p Tables.
/// Pass \p RS (the machine's reclaimStats()) to include the unload
/// reclamation counters in the summary.
UpdateSummary summarizeUpdates(const Linker &L, const IDTables &Tables,
                               const ReclaimStats *RS = nullptr);

/// One-line JSON rendering, \p Label under a "mode" key (e.g. "full" /
/// "incremental").
std::string updateSummaryJSON(const UpdateSummary &S,
                              const std::string &Label);

} // namespace mcfi

#endif // MCFI_METRICS_UPDATEMETRICS_H
