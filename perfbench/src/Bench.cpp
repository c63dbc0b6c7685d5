//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string_view>
#include <unordered_map>

#include <sys/resource.h>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  double Pos = Q * static_cast<double>(S.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, S.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return S[Lo] + (S[Hi] - S[Lo]) * Frac;
}

double Samples::tail(double *Which) const {
  for (double Q : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(V.size()) * (1 - Q) >= 10) {
      if (Which)
        *Which = Q;
      return quantile(Q);
    }
  }
  if (Which)
    *Which = 0.5;
  return median();
}

double Samples::windowedP99() const {
  constexpr size_t Window = 1000;
  if (V.size() < Window)
    return quantile(0.99);
  Samples P99s;
  for (size_t Begin = 0; Begin + Window <= V.size(); Begin += Window) {
    Samples W;
    W.V.assign(V.begin() + Begin, V.begin() + Begin + Window);
    P99s.add(W.quantile(0.99));
  }
  return P99s.median();
}

double Samples::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int32_t> OpenSpans;
thread_local uint32_t CurrentOp = 0;
std::atomic<uint32_t> NextTid{1};
thread_local uint32_t ThisTid = NextTid.fetch_add(1);
} // namespace

Tracer &perfbench::tracer() {
  static Tracer T;
  return T;
}

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T) {
  if (!T.On)
    return;
  Span S;
  S.Name = Name;
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Op = CurrentOp;
  S.Tid = ThisTid;
  std::lock_guard<std::mutex> G(T.Mu);
  S.BeginNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - T.Epoch)
                  .count();
  Index = static_cast<int32_t>(T.Spans.size());
  T.Spans.push_back(S);
  OpenSpans.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> G(T.Mu);
  T.Spans[static_cast<size_t>(Index)].EndNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           T.Epoch)
          .count();
}

void Tracer::beginOp() {
  std::lock_guard<std::mutex> G(Mu);
  CurrentOp = NextOp++;
}

Samples Tracer::durations(const char *Name) const {
  std::lock_guard<std::mutex> G(Mu);
  Samples S;
  for (const Span &Sp : Spans)
    if (std::string_view(Sp.Name) == Name)
      S.add(static_cast<double>(Sp.EndNs - Sp.BeginNs) / 1e3);
  return S;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].EndNs - Spans[I].BeginNs) / 1e3;
  // Children always close inside their parent on the same thread, so
  // subtracting each child's duration leaves the parent's self time.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -=
          static_cast<double>(S.EndNs - S.BeginNs) / 1e3;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> G(Mu);
  std::set<std::string> N;
  for (const Span &S : Spans)
    N.insert(S.Name);
  return {N.begin(), N.end()};
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(Mu);
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\"traceEvents\":[\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"op\":%u}}\n",
                  I ? "," : "", S.Name, S.Tid,
                  static_cast<double>(S.BeginNs) / 1e3,
                  static_cast<double>(S.EndNs - S.BeginNs) / 1e3, I, S.Parent,
                  S.Op);
    F << Buf;
  }
  F << "]}\n";
  return static_cast<bool>(F);
}

//===----------------------------------------------------------------------===//
// Tally, counters
//===----------------------------------------------------------------------===//

void Tally::fail(const std::string &Why) {
  ++Attempted;
  ++Failed;
  if (FirstErrors.size() < 8)
    FirstErrors.push_back(Why);
}

void perfbench::addVm(mcfi::VMTierStats &Into, const mcfi::VMTierStats &S) {
  Into.InterpInstrs += S.InterpInstrs;
  Into.ThreadedInstrs += S.ThreadedInstrs;
  Into.TraceInstrs += S.TraceInstrs;
  Into.FusedChecks += S.FusedChecks;
  Into.TraceHits += S.TraceHits;
  Into.TracesCompiled += S.TracesCompiled;
  Into.TracesInvalidated += S.TracesInvalidated;
  Into.SegmentsBuilt += S.SegmentsBuilt;
}

mcfi::VMTierStats perfbench::diffVm(const mcfi::VMTierStats &A,
                                    const mcfi::VMTierStats &B) {
  mcfi::VMTierStats D;
  D.InterpInstrs = A.InterpInstrs - B.InterpInstrs;
  D.ThreadedInstrs = A.ThreadedInstrs - B.ThreadedInstrs;
  D.TraceInstrs = A.TraceInstrs - B.TraceInstrs;
  D.FusedChecks = A.FusedChecks - B.FusedChecks;
  D.TraceHits = A.TraceHits - B.TraceHits;
  D.TracesCompiled = A.TracesCompiled - B.TracesCompiled;
  D.TracesInvalidated = A.TracesInvalidated - B.TracesInvalidated;
  D.SegmentsBuilt = A.SegmentsBuilt - B.SegmentsBuilt;
  return D;
}

namespace {

volatile uint64_t CalibrationSink;

// Eight small operations called through a table, like VM handlers.
using CalOp = uint64_t (*)(uint64_t, uint64_t);
uint64_t calAdd(uint64_t A, uint64_t B) { return A + B; }
uint64_t calXor(uint64_t A, uint64_t B) { return A ^ (B << 3); }
uint64_t calMul(uint64_t A, uint64_t B) { return A * 31 + B; }
uint64_t calSub(uint64_t A, uint64_t B) { return A - (B >> 2); }
uint64_t calRot(uint64_t A, uint64_t B) { return ((A << 7) | (A >> 57)) + B; }
uint64_t calMix(uint64_t A, uint64_t B) { return (A ^ (A >> 13)) + B; }
uint64_t calAnd(uint64_t A, uint64_t B) { return (A & 0xffffffff) + B; }
uint64_t calOr(uint64_t A, uint64_t B) { return (A | 1) * (B | 1); }
CalOp CalOps[8] = {calAdd, calXor, calMul, calSub,
                   calRot, calMix, calAnd, calOr};

} // namespace

void Calibration::sample() {
  // Fixed inputs, built once. Handler dispatch over a cache-resident
  // 256 KiB program (like the VM's decoded segment), loads scattered over
  // an 8 MiB table (like a large program's code and ID tables), then
  // string keys in a hash map (allocation and hashing, like the compiler).
  static const std::vector<uint32_t> Prog = [] {
    SeedRng R(7);
    std::vector<uint32_t> V(1 << 16);
    for (uint32_t &X : V)
      X = static_cast<uint32_t>(R.next());
    return V;
  }();
  static const std::vector<uint64_t> Table = [] {
    SeedRng R(11);
    std::vector<uint64_t> V(1 << 20);
    for (uint64_t &X : V)
      X = R.next();
    return V;
  }();

  auto T0 = Clock::now();
  uint64_t Acc = 1;
  for (uint32_t I = 0, PC = 0; I != 120000; ++I) {
    uint32_t Op = Prog[PC];
    uint64_t Mask = (I & 7) ? (1 << 15) - 1 : Table.size() - 1;
    Acc = CalOps[Op & 7](Acc, Table[(Acc ^ Op) & Mask]);
    PC = (PC + 1 + (Op >> 29)) & (Prog.size() - 1);
  }
  std::unordered_map<std::string, uint64_t> Map;
  for (uint32_t I = 0; I != 2000; ++I)
    Map[std::to_string(Acc % 100000 + I)] += I;
  for (const auto &[K, V] : Map)
    Acc += K.size() * V;
  CalibrationSink = Acc;
  S.add(microsSince(T0));
}

void Calibration::sampleMemory() {
  auto T0 = Clock::now();
  std::vector<uint64_t> Buf(1 << 21);
  for (size_t I = 0; I != Buf.size(); I += 512) // one write per page
    Buf[I] = I;
  uint64_t Acc = 0;
  for (uint64_t I = 0; I != 40000; ++I)
    Acc += Buf[(Acc * 0x9e3779b9 + I * 2654435761u) & (Buf.size() - 1)] + I;
  CalibrationSink = Acc;
  Buf = {};
  Memory.add(microsSince(T0));
}

double Calibration::factor() const {
  return S.size() ? NominalMicros / S.median() : 1;
}

double Calibration::memoryFactor() const {
  return Memory.size() ? NominalMemoryMicros / Memory.median() : 1;
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}
