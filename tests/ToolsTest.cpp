//===- tests/ToolsTest.cpp - Command-line tool tests ------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Shell-level tests of the toolchain drivers: mcfi-cc, mcfi-verify,
/// mcfi-objdump, mcfi-run, mcfi-audit, mcfi-merge, mcfi-tierdiff and
/// mcfi-attack, wired together the way a user would use them. Binary
/// paths are injected by CMake, which also runs the merge-gate,
/// attack-gate, audit-gate, unload-gate, VM-tier-gate, verifier-gate and
/// MLTA-gate cases as their own ctests (merge_check, attack_check,
/// audit_check, unload_check, vm_tier_check, verify_check, mlta_check).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

namespace {

std::string TmpDir;

std::string path(const std::string &Name) { return TmpDir + "/" + Name; }

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  ASSERT_TRUE(Out.good());
}

/// Runs a command, captures stdout+stderr (stdout alone with
/// \p DropStderr), returns the exit code: 128 + the signal number for a
/// command killed by a signal (the shell may exec its last command, so a
/// crashed tool is the shell's own death), -1 if no shell could start.
int run(const std::string &Cmd, std::string *Output = nullptr,
        bool DropStderr = false) {
  std::string Full =
      Cmd + " > " + path("out.txt") + (DropStderr ? " 2>/dev/null" : " 2>&1");
  int Status = std::system(Full.c_str());
  if (Output) {
    std::ifstream In(path("out.txt"));
    Output->assign(std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>());
  }
  if (Status == -1)
    return -1;
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return WEXITSTATUS(Status);
}

class ToolsFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    char Template[] = "/tmp/mcfi-tools-XXXXXX";
    TmpDir = mkdtemp(Template);
    ASSERT_FALSE(TmpDir.empty());
  }
};

TEST_F(ToolsFixture, RunReportsAKilledCommandAsAFailure) {
  // Every gate below expects run() == 0 from a tool; a tool that dies on
  // a signal must not read as a clean exit, whether or not the shell
  // execs it.
  EXPECT_EQ(run("kill -TERM $$"), 128 + SIGTERM);
  EXPECT_EQ(run("sh -c 'kill -TERM $$'; exit $?"), 128 + SIGTERM);
}

TEST_F(ToolsFixture, FullPipeline) {
  writeFile(path("app.minic"), R"(
    long helper(long x);
    long cb(long x) { return x * 2; }
    long use(long (*f)(long), long v) { return f(v); }
    long sel(long x) {
      switch (x) {
      case 0: return 1;
      case 1: return 2;
      case 2: return 3;
      case 3: return 4;
      default: return 0;
      }
    }
    int main() {
      print_int(use(cb, 10) + helper(1) + sel(7));
      return 0;
    }
  )");
  writeFile(path("lib.minic"), "long helper(long x) { return x + 100; }\n");

  std::string Out;
  // Compile both modules.
  ASSERT_EQ(run(std::string(MCFI_CC) + " -o " + path("app.mcfo") + " " +
                    path("app.minic"),
                &Out),
            0)
      << Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " -o " + path("lib.mcfo") + " " +
                    path("lib.minic"),
                &Out),
            0)
      << Out;

  // Both verify.
  ASSERT_EQ(run(std::string(MCFI_VERIFY) + " " + path("app.mcfo") + " " +
                    path("lib.mcfo"),
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("OK"), std::string::npos);

  // Objdump shows the functions, check transactions and the switch's
  // jump table, and no byte fails to decode.
  ASSERT_EQ(run(std::string(MCFI_OBJDUMP) + " --aux " + path("app.mcfo"),
                &Out),
            0);
  EXPECT_NE(Out.find("<main>:"), std::string::npos);
  EXPECT_NE(Out.find("check transaction"), std::string::npos);
  EXPECT_NE(Out.find("tableread"), std::string::npos);
  EXPECT_TRUE(std::regex_search(Out, std::regex("<jump table, [0-9]+ entries>")))
      << Out;
  EXPECT_EQ(Out.find("undecodable"), std::string::npos) << Out;

  // Run: guest exit code and output propagate.
  int Exit = run(std::string(MCFI_RUN) + " --stats " + path("app.mcfo") +
                     " " + path("lib.mcfo"),
                 &Out);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("121"), std::string::npos); // 20 + 101
  EXPECT_NE(Out.find("policy:"), std::string::npos);
  EXPECT_NE(Out.find("\"modules_decoded\":"), std::string::npos);
}

TEST_F(ToolsFixture, AnalyzeFlagReportsViolations) {
  writeFile(path("bad.minic"), R"(
    typedef long (*Fn)(long);
    long victim(char *s) { return (long)s; }
    Fn p = (Fn)victim;
    int main() { return 0; }
  )");
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " --analyze -o " + path("bad.mcfo") +
                    " " + path("bad.minic"),
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("K1"), std::string::npos);
  EXPECT_NE(Out.find("needs a fix"), std::string::npos);
}

TEST_F(ToolsFixture, CompileErrorsAreReported) {
  writeFile(path("broken.minic"), "int main() { return nope; }\n");
  std::string Out;
  EXPECT_NE(run(std::string(MCFI_CC) + " " + path("broken.minic"), &Out), 0);
  EXPECT_NE(Out.find("undeclared"), std::string::npos);
}

TEST_F(ToolsFixture, BaselineModuleFailsVerification) {
  writeFile(path("plain.minic"), "int main() { return 3; }\n");
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " --no-instrument -o " +
                    path("plain.mcfo") + " " + path("plain.minic"),
                &Out),
            0);
  EXPECT_NE(run(std::string(MCFI_VERIFY) + " " + path("plain.mcfo"), &Out),
            0);
  EXPECT_NE(Out.find("FAILED"), std::string::npos);
}

TEST_F(ToolsFixture, CfiViolationExitCode) {
  writeFile(path("evil.minic"), R"(
    typedef long (*Fn)(long);
    long victim(char *s) { return (long)s; }
    Fn p = (Fn)victim; /* raw K1: the call has no CFG edge */
    int main() { return (int)p(1); }
  )");
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " -o " + path("evil.mcfo") + " " +
                    path("evil.minic"),
                &Out),
            0);
  EXPECT_EQ(run(std::string(MCFI_RUN) + " " + path("evil.mcfo"), &Out), 124);
  EXPECT_NE(Out.find("CFI violation"), std::string::npos);
}

TEST_F(ToolsFixture, VerifyJsonOutput) {
  writeFile(path("vj.minic"), "int main() { return 0; }\n");
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " -o " + path("vj.mcfo") + " " +
                    path("vj.minic"),
                &Out),
            0);
  ASSERT_EQ(run(std::string(MCFI_VERIFY) + " --json " + path("vj.mcfo"),
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("\"tool\":\"mcfi-verify\""), std::string::npos);
  EXPECT_NE(Out.find("\"verify\":{\"ok\":true"), std::string::npos);
  EXPECT_NE(Out.find("\"ok\":true}"), std::string::npos);
}

TEST_F(ToolsFixture, AuditReportsFlowAndPrecision) {
  writeFile(path("lib2.minic"),
            "long apply(long (*f)(long), long x) { return f(x); }\n"
            "long spare(long x) { return x; }\n"
            "long (*spare_hook)(long) = spare;\n");
  writeFile(path("app2.minic"),
            "long apply(long (*f)(long), long x);\n"
            "long inc(long x) { return x + 1; }\n"
            "int main() { return (int)apply(inc, 1); }\n");
  std::string Out;
  // The refined CFG must strictly improve (spare is never invoked), and
  // nothing here is a K1.
  ASSERT_EQ(run(std::string(MCFI_AUDIT) +
                    " --refine --fail-on K1 --expect-refinement " +
                    path("lib2.minic") + " " + path("app2.minic"),
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("type-match"), std::string::npos);
  EXPECT_NE(Out.find("refined"), std::string::npos);
  EXPECT_NE(Out.find("status: OK"), std::string::npos);

  // JSON mode carries the same data machine-readably.
  ASSERT_EQ(run(std::string(MCFI_AUDIT) + " --refine --json " +
                    path("lib2.minic") + " " + path("app2.minic"),
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("\"tool\":\"mcfi-audit\""), std::string::npos);
  EXPECT_NE(Out.find("\"typeMatched\":"), std::string::npos);
  EXPECT_NE(Out.find("\"refined\":"), std::string::npos);
}

TEST_F(ToolsFixture, AuditFailOnK1Gates) {
  writeFile(path("k1.minic"), R"(
    long wrong(long x, long y) { return x + y; }
    int main() {
      long (*p)(long) = (long (*)(long))wrong;
      return (int)p(1);
    }
  )");
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_AUDIT) + " --fail-on K1 " +
                    path("k1.minic"),
                &Out),
            1)
      << Out;
  EXPECT_NE(Out.find("K1"), std::string::npos);
  EXPECT_NE(Out.find("status: FAILED"), std::string::npos);
  // Without the gate the same audit reports and exits clean.
  EXPECT_EQ(run(std::string(MCFI_AUDIT) + " " + path("k1.minic"), &Out), 0);
}

//===----------------------------------------------------------------------===//
// Policy-precision gate over the examples
//===----------------------------------------------------------------------===//

/// Audits every embedded module of \p Example: each must compile and
/// verify, no proven-K1 residual may remain, and the flow-refined CFG must
/// strictly improve on plain type matching (EQCs no worse, largest class
/// strictly smaller, AIR no worse).
void expectAuditGatePasses(const std::string &Example) {
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_AUDIT) +
                    " --extract --refine --fail-on K1 --expect-refinement " +
                    MCFI_EXAMPLES_DIR + "/" + Example + ".cpp",
                &Out),
            0)
      << Out;
  EXPECT_NE(Out.find("status: OK"), std::string::npos) << Out;
}

TEST_F(ToolsFixture, AuditGateSeparateCompilation) {
  expectAuditGatePasses("separate_compilation");
}

TEST_F(ToolsFixture, AuditGateDynamicPlugin) {
  expectAuditGatePasses("dynamic_plugin");
}

//===----------------------------------------------------------------------===//
// CFG-merge differential gate
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// mcfi-merge compiles every embedded module of \p Example and merges
/// the CFG with generateCFG and with the per-site reference generator,
/// in declaration order and in 4 seeded module-order shuffles; it exits
/// nonzero on any divergence. The two policy dumps it writes must be
/// byte-identical, and every module it emits must verify.
void expectMergeMatchesReference(const std::string &Example) {
  std::string Dir = path("merge-" + Example);
  std::filesystem::create_directories(Dir);
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_MERGE) + " --shuffles 4 --seed 1 --emit " +
                    Dir + " " + MCFI_EXAMPLES_DIR + "/" + Example + ".cpp",
                &Out),
            0)
      << Example << " diverged: " << Out;
  std::string Merged = readFile(Dir + "/policy-merge.txt");
  EXPECT_FALSE(Merged.empty()) << Example << ": no policy dump";
  EXPECT_TRUE(Merged == readFile(Dir + "/policy-reference.txt"))
      << Example << ": policy dumps differ";
  size_t Modules = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".mcfo")
      continue;
    ++Modules;
    EXPECT_EQ(run(std::string(MCFI_VERIFY) + " --json " + E.path().string(),
                  &Out),
              0)
        << E.path() << ": " << Out;
    EXPECT_NE(Out.find("\"ok\":true"), std::string::npos)
        << E.path() << " failed verification: " << Out;
  }
  EXPECT_GT(Modules, 0u) << Example << ": no module emitted";
}

TEST_F(ToolsFixture, MergeCheckSeparateCompilation) {
  expectMergeMatchesReference("separate_compilation");
}

TEST_F(ToolsFixture, MergeCheckDynamicPlugin) {
  expectMergeMatchesReference("dynamic_plugin");
}

//===----------------------------------------------------------------------===//
// Adversarial gauntlet gate
//===----------------------------------------------------------------------===//

/// The examples' paths, sorted (what a shell glob of examples/*.cpp lists).
std::vector<std::string> exampleSources() {
  std::vector<std::string> Examples;
  for (const auto &E : std::filesystem::directory_iterator(MCFI_EXAMPLES_DIR))
    if (E.path().extension() == ".cpp")
      Examples.push_back(E.path().string());
  std::sort(Examples.begin(), Examples.end());
  return Examples;
}

TEST_F(ToolsFixture, AttackCheckBuiltInVictimLosesEveryAttack) {
  // mcfi-attack synthesizes the exploit corpus against its built-in
  // hook-dispatch victim and runs every attack under both VM tiers; a
  // Survived verdict or a missed expectation exits nonzero, and so does
  // a corpus covering fewer than 4 attack classes.
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_ATTACK) + " --min-classes 4", &Out), 0)
      << Out;
}

TEST_F(ToolsFixture, AttackCheckCorpusIsDeterministic) {
  // A fixed seed fixes the corpus and the verdict sequence: two runs
  // print the same JSON report, byte for byte.
  std::string Cmd = std::string(MCFI_ATTACK) +
                    " --json --seed 0xfeed --max-per-class 2 --tier threaded";
  std::string First, Second;
  ASSERT_EQ(run(Cmd, &First, /*DropStderr=*/true), 0) << First;
  ASSERT_EQ(run(Cmd, &Second, /*DropStderr=*/true), 0) << Second;
  EXPECT_FALSE(First.empty());
  EXPECT_TRUE(First == Second) << "corpus not deterministic for a fixed seed";
}

TEST_F(ToolsFixture, AttackCheckExampleVictimsLoseEveryAttack) {
  // The same corpus over every example that links as a standalone
  // program (the tool skips the others with a note). Examples expose
  // whatever attack surface they have, so there is no class floor here,
  // and a tighter fuel budget bounds each run.
  std::string Cmd =
      std::string(MCFI_ATTACK) + " --max-per-class 2 --fuel 5000000";
  for (const std::string &Example : exampleSources())
    Cmd += " " + Example;
  std::string Out;
  EXPECT_EQ(run(Cmd, &Out), 0) << Out;
}

//===----------------------------------------------------------------------===//
// Module-unload gate
//===----------------------------------------------------------------------===//

/// Compiles the unload gate's guests: a plugin exporting plugin_fn, a
/// host that calls it across a dlclose, and a spinner whose print
/// syscalls are quiescence points (so reclaim grace keeps advancing
/// while a churn thread hammers the linker).
void compileUnloadGuests() {
  writeFile(path("unload-plugin.minic"), R"(
    long plugin_fn(long x) { return x * 10 + 1; }
    /* dlsym hands out plugin_fn's address, so it must be address-taken. */
    long (*plugin_exports)(long) = plugin_fn;
  )");
  writeFile(path("unload-host.minic"), R"(
    long plugin_fn(long x);
    int main() {
      long h = dlopen(0);
      if (h < 0) return 1;
      print_int(plugin_fn(4));                 /* works while loaded */
      if (dlclose(h) != 0) return 2;
      long (*f)(long) = (long (*)(long))dlsym(h, "plugin_fn");
      if (f) print_str("stale handle resolved\n");
      else print_str("gone\n");
      print_int(plugin_fn(5));                 /* must fail closed */
      return 0;
    }
  )");
  writeFile(path("unload-spin.minic"), R"(
    int main() {
      long i;
      long acc = 0;
      for (i = 0; i < 400; i = i + 1) {
        acc = acc + i;
        print_int(i);
      }
      if (acc == 79800) return 0;
      return 1;
    }
  )");
  for (const char *Name : {"unload-plugin", "unload-host", "unload-spin"}) {
    std::string Out;
    std::string Flags = std::string(Name) == "unload-host" ? " --plt" : "";
    ASSERT_EQ(run(std::string(MCFI_CC) + Flags + " -o " + path(Name) +
                      ".mcfo " + path(Name) + ".minic",
                  &Out),
              0)
        << Name << ": " << Out;
  }
}

TEST_F(ToolsFixture, UnloadGateReplayedCallFailsClosed) {
  // A guest that dlopens a plugin, calls it, dlcloses it and replays the
  // call must die with a CFI violation (exit 124), after printing the
  // pre-close result and a dead dlsym probe.
  compileUnloadGuests();
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_RUN) + " --register " +
                    path("unload-plugin.mcfo") + " " +
                    path("unload-host.mcfo"),
                &Out, /*DropStderr=*/true),
            124);
  EXPECT_EQ(Out, "41\ngone\n");
}

TEST_F(ToolsFixture, UnloadGateDlcloseChurnLeaksNothing) {
  // --dlclose-churn cycles host-side dlopenBatch/dlcloseBatch against the
  // running guest; mcfi-run exits nonzero on a failed open or close, a
  // pending region or a condemned ECN left at the end.
  compileUnloadGuests();
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_RUN) + " --register " +
                    path("unload-plugin.mcfo") + " --dlclose-churn 25 " +
                    path("unload-spin.mcfo"),
                &Out),
            0)
      << Out;
}

//===----------------------------------------------------------------------===//
// VM execution-tier gate
//===----------------------------------------------------------------------===//

TEST_F(ToolsFixture, VmTierGateExamplesAreTierInvariant) {
  // mcfi-tierdiff runs every embedded module set of each example under
  // the interpreter and the threaded tier, and fails on any RunResult or
  // output divergence: the tiers' correctness bar.
  std::vector<std::string> Examples = exampleSources();
  ASSERT_FALSE(Examples.empty());
  std::string Cmd = MCFI_TIERDIFF;
  for (const std::string &Example : Examples)
    Cmd += " " + Example;
  std::string Out;
  EXPECT_EQ(run(Cmd, &Out), 0) << Out;
}

/// Processing units this process may run on (what nproc prints).
unsigned availableCores() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

TEST_F(ToolsFixture, VmTierGateThreadedTierIsTwiceTheInterpreter) {
  // mcfi-tierdiff --bench runs the Fig. 5 indirect-call-heavy hot loop as
  // interleaved interpreter/threaded pairs in one process and fails when
  // the median per-pair speedup of the threaded tier is below 2x. The
  // wall-clock gate runs only on >= 4 hardware threads: on a starved
  // machine timing is noise, so the bench is run and reported only.
  std::string Out;
  unsigned Cores = availableCores();
  if (Cores < 4) {
    run(std::string(MCFI_TIERDIFF) + " --bench", &Out);
    GTEST_SKIP() << Cores << " hardware threads, speed gate skipped\n"
                 << Out;
  }
  EXPECT_EQ(run(std::string(MCFI_TIERDIFF) + " --bench --min-speedup 2", &Out),
            0)
      << Out;
  std::cout << Out;
}

//===----------------------------------------------------------------------===//
// Layered-type-map (MLTA) gate
//===----------------------------------------------------------------------===//

TEST_F(ToolsFixture, MltaCheckEqcFloorsHold) {
  // Every embedded module compiles and verifies under --mlta, each refined
  // site's MLTA target set is a subset of its FLTA set (mcfi-audit exits
  // nonzero on an "MLTA soundness violation"), and the MLTA-refined
  // policy keeps at least the class count recorded for the fixed corpus.
  const std::pair<const char *, int> Floors[] = {
      {"separate_compilation", 2}, {"dynamic_plugin", 3}, {"mlta_headroom", 4}};
  for (const auto &[Example, Floor] : Floors) {
    std::string Out;
    EXPECT_EQ(run(std::string(MCFI_AUDIT) +
                      " --extract --mlta --fail-on-eqc-regression " +
                      std::to_string(Floor) + " " + MCFI_EXAMPLES_DIR + "/" +
                      Example + ".cpp",
                  &Out),
              0)
        << Example << " (EQC floor " << Floor << "): " << Out;
  }
}

TEST_F(ToolsFixture, MltaCheckJsonReportsNoViolationAndNoHavoc) {
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_AUDIT) + " --extract --mlta --json " +
                    MCFI_EXAMPLES_DIR + "/mlta_headroom.cpp",
                &Out, /*DropStderr=*/true),
            0)
      << Out;
  EXPECT_NE(Out.find("\"subsetViolations\":0"), std::string::npos)
      << "subset violations (or the field is gone): " << Out;
  EXPECT_NE(Out.find("\"havoc\":false"), std::string::npos)
      << "the headroom fixture fell back to havoc: " << Out;
}

TEST_F(ToolsFixture, MltaCheckHeadroomRunsEndToEnd) {
  // Identical outputs under the plain and refined policies across a
  // dlopen, a strictly smaller largest class, and no fewer classes.
  std::string Out;
  EXPECT_EQ(run(MCFI_MLTA_HEADROOM, &Out), 0) << Out;
}

//===----------------------------------------------------------------------===//
// Verifier gate over the examples
//===----------------------------------------------------------------------===//

/// Every module mcfi-merge emits for the quickstart, separate_compilation
/// and dynamic_plugin examples (emitted once, sorted by path).
const std::vector<std::string> &exampleModules() {
  static std::vector<std::string> Modules = [] {
    std::vector<std::string> Out;
    for (const char *Example :
         {"quickstart", "separate_compilation", "dynamic_plugin"}) {
      std::string Dir = path(std::string("emit-") + Example);
      std::filesystem::create_directories(Dir);
      std::string Log;
      int Exit = run(std::string(MCFI_MERGE) + " --shuffles 1 --seed 7 --emit " +
                         Dir + " " + MCFI_EXAMPLES_DIR + "/" + Example + ".cpp",
                     &Log);
      EXPECT_EQ(Exit, 0) << Example << ": " << Log;
      for (const auto &E : std::filesystem::directory_iterator(Dir))
        if (E.path().extension() == ".mcfo")
          Out.push_back(E.path().string());
    }
    std::sort(Out.begin(), Out.end());
    return Out;
  }();
  return Modules;
}

TEST_F(ToolsFixture, ExampleModulesVerify) {
  const std::vector<std::string> &Modules = exampleModules();
  EXPECT_GE(Modules.size(), 4u) << "too few example modules emitted";
  for (const std::string &Mod : Modules) {
    std::string Out;
    ASSERT_EQ(run(std::string(MCFI_VERIFY) + " --json " + Mod, &Out), 0)
        << Mod << " rejected by the verifier: " << Out;
    EXPECT_NE(Out.find("\"ok\":true"), std::string::npos) << Mod;
  }
}

TEST_F(ToolsFixture, CorruptedCodeByteRejected) {
  const std::vector<std::string> &Modules = exampleModules();
  ASSERT_FALSE(Modules.empty());
  std::ifstream In(Modules.front(), std::ios::binary);
  std::vector<char> Blob((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
  // Container layout: magic(4) version(4) namelen(4) name codesize(8)
  // code. Code offset 0 is an instruction boundary; 0xEE is an invalid
  // opcode.
  ASSERT_GE(Blob.size(), 12u);
  uint32_t NameLen = 0;
  for (unsigned B = 0; B != 4; ++B)
    NameLen |= static_cast<uint32_t>(static_cast<uint8_t>(Blob[8 + B]))
               << (8 * B);
  size_t CodeOff = 20 + NameLen;
  ASSERT_LT(CodeOff, Blob.size());
  Blob[CodeOff] = static_cast<char>(0xEE);
  std::ofstream(path("mutant.mcfo"), std::ios::binary)
      .write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
  std::string Out;
  EXPECT_EQ(run(std::string(MCFI_VERIFY) + " " + path("mutant.mcfo"), &Out), 1)
      << "verifier accepted the corrupted module: " << Out;
  EXPECT_NE(Out.find("undecodable byte at offset 0x0"), std::string::npos)
      << Out;
}

TEST_F(ToolsFixture, FuelLimitExitCode) {
  writeFile(path("loop.minic"),
            "int main() { while (1) { } return 0; }\n");
  std::string Out;
  ASSERT_EQ(run(std::string(MCFI_CC) + " -o " + path("loop.mcfo") + " " +
                    path("loop.minic"),
                &Out),
            0);
  EXPECT_EQ(run(std::string(MCFI_RUN) + " --fuel 10000 " + path("loop.mcfo"),
                &Out),
            126);
  // Without --fuel the finite default budget still stops the loop.
  EXPECT_EQ(run(std::string(MCFI_RUN) + " " + path("loop.mcfo"), &Out), 126);
}

} // namespace
