//===- tests/ModuleTest.cpp - .mcfo format tests ---------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "module/MCFIObject.h"
#include "support/RNG.h"
#include "toolchain/Toolchain.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace mcfi;

namespace {

MCFIObject sampleObject() {
  CompileResult CR = compileModule(R"(
    long cb(long x) { return x + 1; }
    long run(long (*f)(long), long v) { return f(v); }
    long pick(long x) {
      switch (x) {
      case 0: return 10;
      case 1: return 11;
      case 2: return 12;
      case 3: return 13;
      default: return 0;
      }
    }
    int main() { return (int)(run(cb, 1) + pick(2)); }
  )",
                                   {.ModuleName = "sample"});
  EXPECT_TRUE(CR.Ok);
  return std::move(CR.Obj);
}

bool objectsEqual(const MCFIObject &A, const MCFIObject &B) {
  // Serialization is canonical except for the unordered DataSymbols map;
  // compare through a second write after normalizing is overkill — field
  // comparison suffices here.
  if (A.Name != B.Name || A.Code != B.Code || A.DataSize != B.DataSize ||
      A.DataInit != B.DataInit || A.DataSymbols != B.DataSymbols ||
      A.Imports != B.Imports || A.EntryFunction != B.EntryFunction)
    return false;
  if (A.Relocs.size() != B.Relocs.size() ||
      A.Aux.Functions.size() != B.Aux.Functions.size() ||
      A.Aux.BranchSites.size() != B.Aux.BranchSites.size() ||
      A.Aux.CallSites.size() != B.Aux.CallSites.size() ||
      A.Aux.TailCalls.size() != B.Aux.TailCalls.size() ||
      A.Aux.JumpTables.size() != B.Aux.JumpTables.size() ||
      A.Aux.AddressTakenImports != B.Aux.AddressTakenImports)
    return false;
  for (size_t I = 0; I != A.Aux.Functions.size(); ++I) {
    const FunctionInfo &FA = A.Aux.Functions[I], &FB = B.Aux.Functions[I];
    if (FA.Name != FB.Name || FA.TypeSig != FB.TypeSig ||
        FA.CodeOffset != FB.CodeOffset ||
        FA.AddressTaken != FB.AddressTaken || FA.Variadic != FB.Variadic)
      return false;
  }
  for (size_t I = 0; I != A.Aux.BranchSites.size(); ++I) {
    const BranchSite &SA = A.Aux.BranchSites[I], &SB = B.Aux.BranchSites[I];
    if (SA.Kind != SB.Kind || SA.SeqStart != SB.SeqStart ||
        SA.BranchOffset != SB.BranchOffset || SA.Function != SB.Function ||
        SA.TypeSig != SB.TypeSig || SA.PltSymbol != SB.PltSymbol)
      return false;
  }
  return true;
}

TEST(Serialization, RoundTrip) {
  MCFIObject Obj = sampleObject();
  std::vector<uint8_t> Blob = writeObject(Obj);
  MCFIObject Back;
  ASSERT_TRUE(readObject(Blob, Back));
  EXPECT_TRUE(objectsEqual(Obj, Back));
}

TEST(Serialization, RejectsBadMagicAndVersion) {
  MCFIObject Obj = sampleObject();
  std::vector<uint8_t> Blob = writeObject(Obj);
  MCFIObject Out;

  std::vector<uint8_t> BadMagic = Blob;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(readObject(BadMagic, Out));

  std::vector<uint8_t> BadVersion = Blob;
  BadVersion[4] += 1;
  EXPECT_FALSE(readObject(BadVersion, Out));
}

TEST(Serialization, RejectsAllTruncations) {
  MCFIObject Obj = sampleObject();
  std::vector<uint8_t> Blob = writeObject(Obj);
  // Every strict prefix must be rejected (sampled for speed).
  MCFIObject Out;
  for (size_t Len = 0; Len < Blob.size(); Len += 37) {
    std::vector<uint8_t> Prefix(Blob.begin(), Blob.begin() + Len);
    EXPECT_FALSE(readObject(Prefix, Out)) << "prefix " << Len;
  }
  std::vector<uint8_t> Extended = Blob;
  Extended.push_back(0);
  EXPECT_FALSE(readObject(Extended, Out)); // trailing garbage
}

TEST(Serialization, FuzzedBlobsNeverCrash) {
  MCFIObject Obj = sampleObject();
  std::vector<uint8_t> Blob = writeObject(Obj);
  RNG R(7);
  // Random byte flips: the reader must either reject or produce an
  // object whose offsets were bounds-checked — never crash.
  for (int Trial = 0; Trial != 2000; ++Trial) {
    std::vector<uint8_t> Fuzzed = Blob;
    int Flips = 1 + static_cast<int>(R.below(8));
    for (int F = 0; F != Flips; ++F)
      Fuzzed[R.below(Fuzzed.size())] ^= static_cast<uint8_t>(R.next());
    MCFIObject Out;
    (void)readObject(Fuzzed, Out);
  }
  SUCCEED();
}

TEST(Serialization, SeparateCompilationIsStable) {
  // The same source compiles to bit-identical objects regardless of
  // when/how often it is compiled: instrumentation depends only on the
  // module itself (the separate-compilation property).
  MCFIObject A = sampleObject();
  MCFIObject B = sampleObject();
  EXPECT_EQ(writeObject(A), writeObject(B));

  // Nor does it depend on what the process compiled before: no cache or
  // interning state may carry from one compile into the next. Compile
  // the SPEC profiles, the runtime library, a plugin-shaped and a
  // JIT-op-shaped module in two orders and compare the bytes.
  std::vector<std::pair<std::string, std::string>> Units;
  for (const BenchProfile &P : specProfiles())
    Units.emplace_back(P.Name, generateWorkload(P, WorkloadVariant::Fixed));
  Units.emplace_back("rt", runtimeLibrarySource());
  Units.emplace_back("plugin3", R"(
    long p3_f0(long x) { return (x * 1031 + 77) & 65535; }
    long p3_f1(long x) { return (x * 2017 + 5) & 65535; }
    long p3_g0(long x, long y) { return ((x ^ y) + 9) & 65535; }
    long (*p3_tab[2])(long);
    long (*p3_tab2[1])(long, long);
    void p3_probe(void) {
      long acc = 3;
      long i = 0;
      p3_tab[0] = p3_f0;
      p3_tab[1] = p3_f1;
      p3_tab2[0] = p3_g0;
      while (i < 48) {
        acc = p3_tab[acc & 1](acc);
        acc = p3_tab2[0](acc, i);
        i = i + 1;
      }
      exit(acc);
    }
  )");
  Units.emplace_back("jit5", R"(
    long j5(long x) { return (x * 4099 + 12) & 65535; }
    long (*j5_ref)(long) = j5;
    void j5_probe(void) {
      long acc = 1500;
      long i = 0;
      while (i < 16) {
        acc = (j5_ref(acc) + i) & 65535;
        i = i + 1;
      }
      exit(acc);
    }
  )");
  auto compileInOrder = [&](bool Reversed) {
    std::vector<std::vector<uint8_t>> Bytes(Units.size());
    for (size_t K = 0; K != Units.size(); ++K) {
      size_t I = Reversed ? Units.size() - 1 - K : K;
      CompileResult CR =
          compileModule(Units[I].second, {.ModuleName = Units[I].first});
      EXPECT_TRUE(CR.Ok) << Units[I].first;
      Bytes[I] = writeObject(CR.Obj);
    }
    return Bytes;
  };
  std::vector<std::vector<uint8_t>> Forward = compileInOrder(false);
  std::vector<std::vector<uint8_t>> Backward = compileInOrder(true);
  for (size_t I = 0; I != Units.size(); ++I)
    EXPECT_EQ(Forward[I], Backward[I]) << Units[I].first;
}

} // namespace
