//===- tools/mcfi-attack.cpp - Adversarial attack-corpus gauntlet ----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-attack: synthesizes an exploit corpus per victim program and
/// asserts every attack loses under both VM execution tiers.
///
///   mcfi-attack [options] [example.cpp ...]
///     With no files: attacks the built-in hook-dispatch victim. With
///     files: extracts each file's embedded MiniC modules, links them as
///     one instrumented program, and attacks that too (files that do not
///     link standalone are skipped with a note).
///
///   Options:
///     --seed N          corpus seed (default 0x5eed); same seed, same
///                       corpus, same verdict sequence
///     --class NAME      restrict to one attack class (repeatable)
///     --tier NAME       restrict to one tier (repeatable):
///                       interpreter | threaded
///     --max-per-class N attacks per class per (victim, tier), default 4
///     --fuel N          instruction budget per attack run
///     --min-classes N   fail unless >= N classes have a nonzero corpus
///     --json            emit the machine-readable report
///     --list            print attack classes and verdicts, then exit
///
/// Exit status is nonzero when any attack Survived, any expectation was
/// missed, or the nonzero-class floor was not met.
///
//===----------------------------------------------------------------------===//

#include "attack/Attack.h"
#include "metrics/Harness.h"
#include "support/TablePrinter.h"
#include "tools/ToolCommon.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace mcfi;
using namespace mcfi::attack;
using namespace mcfi::tools;

namespace {

bool parseTier(const std::string &Name, ExecTier &Out) {
  for (ExecTier T : {ExecTier::Interpreter, ExecTier::Threaded})
    if (Name == tierLabel(T)) {
      Out = T;
      return true;
    }
  return false;
}

void listClasses() {
  std::printf("attack classes:\n");
  for (unsigned I = 0; I != NumAttackClasses; ++I)
    std::printf("  %s\n", className(static_cast<AttackClass>(I)));
  std::printf("verdicts:\n");
  for (unsigned I = 0; I != NumVerdicts; ++I)
    std::printf("  %s\n", verdictName(static_cast<Verdict>(I)));
}

} // namespace

int main(int argc, char **argv) {
  CorpusOptions Opts;
  unsigned MinClasses = 0;
  bool Json = false;
  std::vector<std::string> Files;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage("mcfi-attack: missing argument");
      return argv[++I];
    };
    if (Arg == "--seed")
      Opts.Seed = std::strtoull(Next().c_str(), nullptr, 0);
    else if (Arg == "--class") {
      AttackClass C;
      if (!parseClassName(Next(), C))
        usage("mcfi-attack: unknown class (see --list)");
      Opts.Classes.push_back(C);
    } else if (Arg == "--tier") {
      static bool Cleared = false;
      if (!Cleared) {
        Opts.Tiers.clear();
        Cleared = true;
      }
      ExecTier T;
      if (!parseTier(Next(), T))
        usage("mcfi-attack: --tier takes interpreter or threaded");
      Opts.Tiers.push_back(T);
    } else if (Arg == "--max-per-class")
      Opts.MaxPerClass =
          static_cast<unsigned>(std::strtoul(Next().c_str(), nullptr, 0));
    else if (Arg == "--fuel")
      Opts.Fuel = std::strtoull(Next().c_str(), nullptr, 0);
    else if (Arg == "--min-classes")
      MinClasses =
          static_cast<unsigned>(std::strtoul(Next().c_str(), nullptr, 0));
    else if (Arg == "--json")
      Json = true;
    else if (Arg == "--list") {
      listClasses();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-')
      usage("mcfi-attack: unknown option");
    else
      Files.push_back(Arg);
  }

  for (const std::string &Path : Files) {
    std::string Text;
    if (!readFileText(Path, Text)) {
      std::fprintf(stderr, "mcfi-attack: cannot read %s\n", Path.c_str());
      return 1;
    }
    VictimSpec V;
    V.Name = baseName(Path);
    for (const ModuleSource &M : extractModules(Text))
      V.Sources.push_back(M.Source);
    if (V.Sources.empty()) {
      std::fprintf(stderr, "mcfi-attack: %s: no embedded modules, skipped\n",
                   V.Name.c_str());
      continue;
    }
    // Probe-link once: examples that are not standalone programs (PLT
    // imports resolved only by their own dlopen registry, deliberate
    // compile errors) are skipped, mirroring mcfi-tierdiff.
    BuildSpec Probe;
    Probe.LinkRtLibrary = false;
    BuiltProgram BP = buildProgram(V.Sources, Probe);
    if (!BP.Ok) {
      std::fprintf(stderr, "mcfi-attack: %s: not standalone (%s), skipped\n",
                   V.Name.c_str(), BP.Error.c_str());
      continue;
    }
    Opts.Victims.push_back(std::move(V));
  }

  CorpusReport Rep = runCorpus(Opts);

  if (Json) {
    std::printf("%s\n", corpusJSON(Rep, Opts).c_str());
  } else {
    TablePrinter TP;
    TP.addRow({"class", "corpus", "killed", "allowed", "survived"});
    for (const auto &[C, S] : Rep.Classes)
      TP.addRow({className(C), std::to_string(S.Corpus),
                 std::to_string(S.Killed), std::to_string(S.Allowed),
                 std::to_string(S.Survived)});
    TP.print();
    std::printf("attacks: %zu  survivors: %llu  mismatches: %llu  "
                "AIR: %.4f  %s\n",
                Rep.Records.size(), (unsigned long long)Rep.Survivors,
                (unsigned long long)Rep.ExpectationMismatches, Rep.AIR,
                Rep.Ok ? "OK" : "FAILED");
    for (const AttackRecord &R : Rep.Records)
      if (R.V == Verdict::Survived)
        std::fprintf(stderr, "SURVIVED [%s/%s] %s %s: %s\n", className(R.Class),
                     tierLabel(R.Tier), R.Victim.c_str(), R.Name.c_str(),
                     R.Detail.c_str());
  }

  if (!Rep.Error.empty()) {
    std::fprintf(stderr, "mcfi-attack: %s\n", Rep.Error.c_str());
    return 1;
  }
  if (MinClasses) {
    unsigned NonZero = 0;
    for (const auto &[C, S] : Rep.Classes) {
      (void)C;
      if (S.Corpus)
        ++NonZero;
    }
    if (NonZero < MinClasses) {
      std::fprintf(stderr,
                   "mcfi-attack: only %u attack classes have a nonzero "
                   "corpus (floor %u)\n",
                   NonZero, MinClasses);
      return 1;
    }
  }
  return Rep.Ok ? 0 : 1;
}
