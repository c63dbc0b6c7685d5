//===- tests/ToolsTest.cpp - Command-line tool tests ------------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Shell-level tests of the toolchain drivers: mcfi-cc, mcfi-verify,
/// mcfi-objdump, and mcfi-run, wired together the way a user would use
/// them. Binary paths are injected by CMake.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

std::string TmpDir;

std::string path(const std::string &Name) { return TmpDir + "/" + Name; }

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  ASSERT_TRUE(Out.good());
}

/// Runs a command, captures stdout+stderr, returns the exit code.
int run(const std::string &Cmd, std::string *Output = nullptr) {
  std::string Full = Cmd + " > " + path("out.txt") + " 2>&1";
  int Status = std::system(Full.c_str());
  if (Output) {
    std::ifstream In(path("out.txt"));
    Output->assign(std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>());
  }
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

TEST_F(ToolsFixture, FullPipeline) {
  writeFile(path("app.minic"), R"(
    long helper(long x);
    long cb(long x) { return x * 2; }
    long use(long (*f)(long), long v) { return f(v); }
    int main() {
      print_int(use(cb, 10) + helper(1));
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

  // Objdump shows the functions and check transactions.
  ASSERT_EQ(run(std::string(MCFI_OBJDUMP) + " --aux " + path("app.mcfo"),
                &Out),
            0);
  EXPECT_NE(Out.find("<main>:"), std::string::npos);
  EXPECT_NE(Out.find("check transaction"), std::string::npos);
  EXPECT_NE(Out.find("tableread"), std::string::npos);

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
