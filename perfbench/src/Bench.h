//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: run options,
/// latency samples, the in-memory span tracer, the correctness tally and
/// the metric sink that becomes the final JSON line.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_PERFBENCH_BENCH_H
#define MCFI_PERFBENCH_BENCH_H

#include "runtime/Machine.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
inline double microsSince(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< where the traced run writes its spans
};

/// A latency sample set with the reporting rule of the benchmark: the
/// median, plus the highest percentile that still has at least ten
/// samples beyond it.
struct Samples {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  /// The highest of p99/p95/p90/p50 with >= 10 samples above it.
  double tail(double *Which = nullptr) const;
  /// p99 of each consecutive window of 1000 samples (ten beyond it), and
  /// the median over the windows: one hiccup of the machine moves one
  /// window, not the result. Falls back to the plain p99 below 1000.
  double windowedP99() const;
  double sum() const;
};

/// One recorded span: a call from the benchmark into a layer's public
/// function. Spans of one operation share Op; Parent indexes the span
/// that was open on the same thread when this one started (-1: none).
struct Span {
  const char *Name = "";
  int64_t BeginNs = 0, EndNs = 0;
  int32_t Parent = -1;
  uint32_t Op = 0;
  uint32_t Tid = 0;
};

/// In-memory span recorder. Off (the untraced run) it records nothing
/// and costs one branch per call site.
class Tracer {
public:
  bool On = false;

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index = -1;
  };

  /// Starts a new operation id for the spans that follow on this thread.
  void beginOp();

  /// Median duration (microseconds) of spans named \p Name.
  Samples durations(const char *Name) const;
  /// Total self time (microseconds) per span name.
  std::map<std::string, double> selfTimes() const;
  /// Span names recorded at least once.
  std::vector<std::string> names() const;
  /// Writes every span as a Chrome trace-event JSON file.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  uint32_t NextOp = 1;
  Clock::time_point Epoch = Clock::now();
};

/// The global tracer; workloads wrap layer calls in MCFI_SPAN.
Tracer &tracer();
#define PB_CAT2(A, B) A##B
#define PB_CAT(A, B) PB_CAT2(A, B)
#define MCFI_SPAN(Name)                                                        \
  ::perfbench::Tracer::Scope PB_CAT(SpanScope_, __LINE__)(                     \
      ::perfbench::tracer(), Name)

/// Correctness tally: every checked operation is attempted; a mismatch
/// against its reference, a CFI stop or a trap is a failure.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FirstErrors;
  void pass() { ++Attempted; }
  void fail(const std::string &Why);
  void check(bool Ok, const std::string &Why) { Ok ? pass() : fail(Why); }
};

/// Metrics of one run, in print order.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
};

/// Everything a workload hands back to main() in Main.cpp.
struct RunOutput {
  Report EndToEnd;
  Report PerLayer;
  /// Traced run: per-layer metrics of operations only some workloads
  /// perform (dlopen, dlclose); printed, not part of the JSON line.
  Report Detail;
  Tally Checks;
};

/// Per-layer quantities every workload measures the same way. Workloads
/// fill the counters; Main.cpp adds the span-derived medians.
struct LayerCounters {
  uint64_t Ops = 0;            ///< loads: programs linked, or dlopens
  uint64_t GuestInstrs = 0;    ///< guest instructions retired
  double GuestSeconds = 0;     ///< wall time those took
  mcfi::VMTierStats Vm;        ///< summed over the machines used
  uint64_t CompiledModules = 0;
  uint64_t CheckSites = 0;     ///< branch sites over compiled modules
  uint64_t CodeBytes = 0;      ///< instrumented code over compiled modules
  uint64_t IncrementalInstalls = 0;
  uint64_t EntriesTouched = 0;
  uint64_t VersionedUpdates = 0;
  uint64_t SlowRetries = 0;
  uint64_t HistoryEntries = 0;
  uint64_t PolicyReplays = 0;
  uint64_t LiveModulesSum = 0, IbtsSum = 0, EqcsSum = 0;
  uint64_t VerifiedBytes = 0;
  uint64_t SemanticModules = 0;
  uint64_t ReclaimPendingMax = 0;
  uint64_t Reclaimed = 0;
  double DlopenFlatness = 0;   ///< dlopen at 64 live / at 1 live
  Samples InstallMicros;       ///< per update transaction
  Samples MergeMicros;         ///< per dlopen batch: CFG regeneration
  Samples UnloadMergeMicros;   ///< per dlclose batch: CFG regeneration
  Samples RetireMicros;        ///< per dlclose batch: retire transaction
};

void addVm(mcfi::VMTierStats &Into, const mcfi::VMTierStats &S);
mcfi::VMTierStats diffVm(const mcfi::VMTierStats &A,
                         const mcfi::VMTierStats &B);

/// Machine-speed calibration. The development VM's speed drifts by up to
/// 30% between runs a minute apart (neighbours on the host), while staying
/// within a few percent inside one run. Each workload therefore times a
/// fixed piece of host work that touches no MCFI code, interleaved with its
/// own operations, and reports its timings scaled to a nominal machine on
/// which that work takes exactly NominalMicros: time * Nominal / median.
///
/// Two kinds of work, because the operations differ in what they stress:
/// compute work (handler dispatch over cache-resident tables, string keys
/// in a hash map) tracks compiling, linking and small-program dispatch;
/// memory work (faulting in, scanning and freeing a 16 MiB buffer) tracks
/// dispatch over the large spec programs and tearing a Machine down.
class Calibration {
public:
  static constexpr double NominalMicros = 3500;
  static constexpr double NominalMemoryMicros = 8000;
  /// Runs the compute work once and records its time.
  void sample();
  /// Runs the memory work once and records its time.
  void sampleMemory();
  /// Nominal over measured median: multiply a time by it, divide a rate.
  double factor() const;
  double memoryFactor() const;

private:
  Samples S, Memory;
};

/// Peak resident set size of the process so far, in MiB.
double peakRssMb();

/// splitmix64: the benchmark's own input generator, independent of any
/// random source inside the program under test.
struct SeedRng {
  uint64_t State;
  explicit SeedRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

} // namespace perfbench

#endif // MCFI_PERFBENCH_BENCH_H
