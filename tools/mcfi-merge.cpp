//===- tools/mcfi-merge.cpp - CFG merge vs reference differential ---------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-merge: the CFG-merge differential checker. It compiles every
/// embedded MiniC module of the given C++ example files, generates the
/// merged CFG policy with generateCFG (the class-level merge the linker
/// runs) and with generateCFGReference (the per-site oracle), and fails
/// unless the two are byte-identical. Seeded module-order shuffles re-run
/// the differential over permuted load orders (each order is its own
/// pair; different orders legitimately produce different policies, since
/// the site index space follows load order).
///
///   mcfi-merge [options] example.cpp...
///
///   --shuffles K  extra seeded module-order permutations (default 4)
///   --seed S      shuffle seed (default 1)
///   --emit DIR    write each compiled module to DIR/<name>.mcfo and the
///                 declaration-order policy dumps to
///                 DIR/policy-{merge,reference}.txt
///   --json        machine-readable report on stdout
///
/// Exit code: 0 policies identical, 1 divergence, 2 bad invocation or
/// load error.
///
//===----------------------------------------------------------------------===//

#include "cfg/CFGReference.h"
#include "toolchain/Toolchain.h"
#include "tools/ToolCommon.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <sstream>

using namespace mcfi;
using namespace mcfi::tools;

namespace {

struct Options {
  unsigned Shuffles = 4;
  uint64_t Seed = 1;
  std::string EmitDir;
  bool Json = false;
  std::vector<std::string> Inputs;
};

/// Synthetic page-aligned layout for a module order; the policy only
/// depends on relative layout.
std::vector<LoadedModuleView>
layoutViews(const std::vector<const MCFIObject *> &Order) {
  std::vector<LoadedModuleView> Views;
  uint64_t Base = 0x400000;
  for (const MCFIObject *Obj : Order) {
    Views.push_back({Obj, Base});
    Base += (Obj->Code.size() + 0xFFF) & ~0xFFFull;
  }
  return Views;
}

/// A canonical dump of every policy field, used both for the textual
/// diff artifacts (--emit) and, hashed, as the policy digest.
std::string dumpPolicy(const CFGPolicy &P) {
  std::ostringstream O;
  O << "tary-limit-entries " << P.TargetECN.size() << "\n";
  std::map<uint64_t, uint32_t> Sorted(P.TargetECN.begin(), P.TargetECN.end());
  for (const auto &[Addr, ECN] : Sorted)
    O << "target " << std::hex << Addr << std::dec << " ecn " << ECN << "\n";
  for (size_t I = 0; I != P.BranchECN.size(); ++I)
    O << "branch " << I << " ecn " << P.BranchECN[I] << " class-size "
      << P.BranchClassSize[I] << "\n";
  for (size_t I = 0; I != P.SiteIndexBase.size(); ++I)
    O << "site-base " << I << " " << P.SiteIndexBase[I] << "\n";
  for (uint64_t A : P.SetjmpRetSites)
    O << "setjmp-ret " << std::hex << A << std::dec << "\n";
  O << "ibs " << P.NumIBs << " ibts " << P.NumIBTs << " eqcs " << P.NumEQCs
    << "\n";
  return O.str();
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--shuffles" && I + 1 < argc) {
      O.Shuffles = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    } else if (A == "--seed" && I + 1 < argc) {
      O.Seed = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--emit" && I + 1 < argc) {
      O.EmitDir = argv[++I];
    } else if (A == "--json") {
      O.Json = true;
    } else if (!A.empty() && A[0] == '-') {
      usage("mcfi-merge: unknown option (see header for usage)");
    } else {
      O.Inputs.push_back(A);
    }
  }
  if (O.Inputs.empty())
    usage("usage: mcfi-merge [--shuffles K] [--seed S] [--emit DIR] "
          "[--json] example.cpp...");

  // Compile every embedded module; skip non-MiniC snippets (an example
  // may embed other text), as mcfi-audit --extract does.
  std::vector<std::string> Names;
  std::vector<MCFIObject> Objs;
  for (const std::string &Path : O.Inputs) {
    std::string Text;
    if (!readFileText(Path, Text)) {
      std::fprintf(stderr, "mcfi-merge: cannot read %s\n", Path.c_str());
      return 2;
    }
    std::vector<ModuleSource> Ex = extractModules(Text);
    if (Ex.empty())
      std::fprintf(stderr, "mcfi-merge: no embedded modules in %s\n",
                   Path.c_str());
    for (ModuleSource &S : Ex) {
      CompileResult CR = compileModule(S.Source, {.ModuleName = S.Name});
      if (!CR.Ok) {
        std::fprintf(stderr,
                     "mcfi-merge: skipping '%s' (not a MiniC module: %s)\n",
                     S.Name.c_str(),
                     CR.Errors.empty() ? "?" : CR.Errors.front().c_str());
        continue;
      }
      Names.push_back(S.Name);
      Objs.push_back(std::move(CR.Obj));
    }
  }
  if (Objs.empty()) {
    std::fprintf(stderr, "mcfi-merge: nothing to merge\n");
    return 2;
  }

  // Declaration order first, then the seeded shuffles. Each order is one
  // merge-vs-reference differential.
  std::vector<const MCFIObject *> Order;
  for (const MCFIObject &Obj : Objs)
    Order.push_back(&Obj);
  std::mt19937_64 Rng(O.Seed);
  unsigned Divergences = 0;
  uint64_t Digest = 0;
  std::string MergeDump, ReferenceDump;
  for (unsigned Round = 0; Round != 1 + O.Shuffles; ++Round) {
    if (Round)
      std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<LoadedModuleView> Views = layoutViews(Order);
    CFGPolicy Merge = generateCFG(Views);
    CFGPolicy Reference = generateCFGReference(Views);
    if (!policiesIdentical(Merge, Reference)) {
      ++Divergences;
      std::fprintf(stderr,
                   "mcfi-merge: DIVERGENCE in round %u (%s order)\n", Round,
                   Round ? "shuffled" : "declaration");
    }
    if (!Round) {
      MergeDump = dumpPolicy(Merge);
      ReferenceDump = dumpPolicy(Reference);
      Digest = fnv1a(MergeDump);
    }
  }

  if (!O.EmitDir.empty()) {
    for (size_t I = 0; I != Objs.size(); ++I) {
      std::string Path = O.EmitDir + "/" + Names[I] + ".mcfo";
      if (!writeFileBytes(Path, writeObject(Objs[I]))) {
        std::fprintf(stderr, "mcfi-merge: cannot write %s\n", Path.c_str());
        return 2;
      }
    }
    std::ofstream MOut(O.EmitDir + "/policy-merge.txt");
    MOut << MergeDump;
    std::ofstream ROut(O.EmitDir + "/policy-reference.txt");
    ROut << ReferenceDump;
    if (!MOut.good() || !ROut.good()) {
      std::fprintf(stderr, "mcfi-merge: cannot write policy dumps to %s\n",
                   O.EmitDir.c_str());
      return 2;
    }
  }

  bool Ok = Divergences == 0;
  if (O.Json) {
    std::ostringstream J;
    J << "{\"tool\":\"mcfi-merge\",\"modules\":[";
    for (size_t I = 0; I != Names.size(); ++I)
      J << (I ? "," : "") << "\"" << jsonEscape(Names[I]) << "\"";
    J << "],\"rounds\":" << 1 + O.Shuffles
      << ",\"digest\":\"";
    char Buf[20];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(Digest));
    J << Buf << "\",\"divergences\":" << Divergences
      << ",\"identical\":" << (Ok ? "true" : "false") << "}";
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("mcfi-merge: %zu modules, %u rounds, digest %016llx: %s\n",
                Objs.size(), 1 + O.Shuffles,
                static_cast<unsigned long long>(Digest),
                Ok ? "merge and reference policies identical" : "DIVERGED");
  }
  return Ok ? 0 : 1;
}
