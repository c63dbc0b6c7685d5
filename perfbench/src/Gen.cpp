//===- perfbench/src/Gen.cpp - Seeded module generators -------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "Bench.h"

#include "support/StringUtils.h"

using namespace perfbench;
using mcfi::formatString;

namespace {

constexpr unsigned PluginIters = 48;
constexpr unsigned JitIters = 16;
constexpr int64_t Mask = 65535;

/// Constants stay in one magnitude band so every seed encodes the same
/// instruction shapes.
int64_t constant(SeedRng &R) { return 1024 + static_cast<int64_t>(R.below(30000)); }

} // namespace

GenModule perfbench::makePlugin(uint64_t Seed, unsigned Index) {
  SeedRng R(Seed ^ (0x706c7567ULL << 20) ^ (uint64_t(Index) * 0x9e3779b9ULL));
  int64_t A[4], B[4], C[2];
  for (int I = 0; I != 4; ++I) {
    A[I] = constant(R);
    B[I] = constant(R);
  }
  C[0] = constant(R);
  C[1] = constant(R);
  int64_t Start = constant(R);

  GenModule G;
  G.Name = formatString("plugin%u", Index);
  std::string P = formatString("p%u_", Index);
  std::string &S = G.Source;
  for (int I = 0; I != 4; ++I)
    S += formatString("long %sf%d(long x) { return (x * %lld + %lld) & %lld; }\n",
                      P.c_str(), I, (long long)A[I], (long long)B[I],
                      (long long)Mask);
  for (int I = 0; I != 2; ++I)
    S += formatString(
        "long %sg%d(long x, long y) { return ((x ^ y) + %lld) & %lld; }\n",
        P.c_str(), I, (long long)C[I], (long long)Mask);
  S += formatString("long (*%stab[4])(long);\n", P.c_str());
  S += formatString("long (*%stab2[2])(long, long);\n", P.c_str());
  S += formatString("void %sprobe(void) {\n  long acc = %lld;\n  long i = 0;\n",
                    P.c_str(), (long long)Start);
  for (int I = 0; I != 4; ++I)
    S += formatString("  %stab[%d] = %sf%d;\n", P.c_str(), I, P.c_str(), I);
  for (int I = 0; I != 2; ++I)
    S += formatString("  %stab2[%d] = %sg%d;\n", P.c_str(), I, P.c_str(), I);
  S += formatString("  while (i < %u) {\n"
                    "    acc = %stab[acc & 3](acc);\n"
                    "    acc = %stab2[i & 1](acc, i);\n"
                    "    i = i + 1;\n"
                    "  }\n  exit(acc);\n}\n",
                    PluginIters, P.c_str(), P.c_str());
  G.Probe = P + "probe";

  int64_t Acc = Start;
  for (int64_t I = 0; I != PluginIters; ++I) {
    int64_t F = Acc & 3;
    Acc = (Acc * A[F] + B[F]) & Mask;
    Acc = ((Acc ^ I) + C[I & 1]) & Mask;
  }
  G.Expected = Acc;
  return G;
}

GenModule perfbench::makeJitOp(uint64_t Seed, uint64_t Gen) {
  SeedRng R(Seed ^ (0x6a6974ULL << 24) ^ (Gen * 0x9e3779b97f4a7c15ULL));
  int64_t A = constant(R), B = constant(R), Start = constant(R);

  GenModule G;
  G.Name = formatString("jit%llu", (unsigned long long)Gen);
  std::string F = formatString("j%llu", (unsigned long long)Gen);
  G.Source = formatString(
      "long %s(long x) { return (x * %lld + %lld) & %lld; }\n"
      "long (*%s_ref)(long) = %s;\n"
      "void %s_probe(void) {\n  long acc = %lld;\n  long i = 0;\n"
      "  while (i < %u) {\n    acc = (%s_ref(acc) + i) & %lld;\n"
      "    i = i + 1;\n  }\n  exit(acc);\n}\n",
      F.c_str(), (long long)A, (long long)B, (long long)Mask, F.c_str(),
      F.c_str(), F.c_str(), (long long)Start, JitIters, F.c_str(),
      (long long)Mask);
  G.Probe = F + "_probe";
  G.Export = F;

  int64_t Acc = Start;
  for (int64_t I = 0; I != JitIters; ++I)
    Acc = (((Acc * A + B) & Mask) + I) & Mask;
  G.Expected = Acc;
  return G;
}

std::string perfbench::jitHostSource() {
  return R"(
    long fallback(long x) { return x & 65535; }
    long (*current_op)(long) = fallback;
    long spin_count = 0;

    void spinner(void) {
      long acc = 0;
      long i = 0;
      while (1) {
        acc = (acc + current_op(acc + i)) & 65535;
        i = i + 1;
        spin_count = i;
        if ((i & 1023) == 0)
          free(NULL);
      }
    }
    int main() { return 0; }
  )";
}
