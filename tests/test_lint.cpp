/// Drives tools/bddmin_lint.py end to end:
///  * the seeded fixture corpus (tests/lint_fixtures) must produce exactly
///    the expected findings — file, line and rule all match, nothing extra
///  * a justified `bddmin-lint: allow(Rn) -- why` suppression silences its
///    finding; a naked allow() is itself reported
///  * the real source tree must lint clean (exit 0)
///
/// The repo root comes from a compile definition set in
/// tests/CMakeLists.txt.  Skips (not fails) when python3 is absent.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

#ifndef BDDMIN_REPO_ROOT
#error "tests/CMakeLists.txt must define BDDMIN_REPO_ROOT"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Run a shell command, capturing combined output and the exit code.
RunResult run_command(const std::string& cmd) {
  RunResult r;
  std::FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Run the lint tool with \p args appended.
RunResult run_lint(const std::string& args) {
  return run_command(std::string("python3 \"") + BDDMIN_REPO_ROOT +
                     "/tools/bddmin_lint.py\" --root \"" + BDDMIN_REPO_ROOT +
                     "\" " + args);
}

bool python_available() {
  return run_command("python3 --version").exit_code == 0;
}

struct ParsedFinding {
  std::string path;
  int line = 0;
  std::string rule;

  bool operator==(const ParsedFinding&) const = default;
};

/// Parse "path:line: Rn: message" lines into (path, line, rule) triples.
std::vector<ParsedFinding> parse_findings(const std::string& output) {
  std::vector<ParsedFinding> found;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t eol = output.find('\n', pos);
    if (eol == std::string::npos) eol = output.size();
    const std::string line = output.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t c1 = line.find(':');
    if (c1 == std::string::npos) continue;
    char* endp = nullptr;
    const long lineno = std::strtol(line.c_str() + c1 + 1, &endp, 10);
    if (endp == line.c_str() + c1 + 1 || *endp != ':') continue;
    const std::size_t rs = line.find(" R", endp - line.c_str());
    if (rs == std::string::npos || rs + 2 >= line.size() ||
        line[rs + 2] < '1' || line[rs + 2] > '7') {
      continue;
    }
    found.push_back(ParsedFinding{line.substr(0, c1),
                                  static_cast<int>(lineno),
                                  line.substr(rs + 1, 2)});
  }
  return found;
}

// The seeded corpus, line-exact.  Keep in lockstep with the fixture files.
const std::vector<ParsedFinding> kSeeded = {
    {"tests/lint_fixtures/scopes.cpp", 22, "R3"},
    {"tests/lint_fixtures/scopes.cpp", 30, "R4"},
    {"tests/lint_fixtures/scopes.cpp", 42, "R5"},
    {"tests/lint_fixtures/scopes.cpp", 44, "R5"},
    {"tests/lint_fixtures/src/bdd/ops.cpp", 28, "R1"},
    {"tests/lint_fixtures/src/engine/failpoints.cpp", 13, "R7"},
    {"tests/lint_fixtures/src/engine/failpoints.cpp", 21, "R7"},
    {"tests/lint_fixtures/src/engine/failpoints.cpp", 26, "R7"},
    {"tests/lint_fixtures/suppressed.cpp", 16, "R3"},
    {"tests/lint_fixtures/tags.cpp", 16, "R2"},
    {"tests/lint_fixtures/tags.cpp", 21, "R2"},
};

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!python_available()) GTEST_SKIP() << "python3 not on PATH";
  }
};

TEST_F(LintTest, FixtureCorpusDetectedExactly) {
  const RunResult r =
      run_lint(std::string("\"") + BDDMIN_REPO_ROOT + "/tests/lint_fixtures\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::vector<ParsedFinding> found = parse_findings(r.output);
  ASSERT_EQ(found.size(), kSeeded.size()) << r.output;
  for (const ParsedFinding& want : kSeeded) {
    EXPECT_TRUE(std::find(found.begin(), found.end(), want) != found.end())
        << "missing finding " << want.path << ":" << want.line << " "
        << want.rule << "\n"
        << r.output;
  }
}

TEST_F(LintTest, JustifiedSuppressionSilencesFinding) {
  // suppressed.cpp seeds two raw asserts; only the naked allow() surfaces.
  const RunResult r = run_lint(std::string("--rules R3 \"") +
                               BDDMIN_REPO_ROOT +
                               "/tests/lint_fixtures/suppressed.cpp\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("suppressed.cpp:16: R3: suppression without "
                          "justification"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("suppressed.cpp:11"), std::string::npos)
      << "justified suppression leaked a finding:\n"
      << r.output;
}

TEST_F(LintTest, RuleSubsetSelection) {
  const RunResult r = run_lint(std::string("--rules R5 \"") +
                               BDDMIN_REPO_ROOT +
                               "/tests/lint_fixtures/scopes.cpp\"");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::vector<ParsedFinding> found = parse_findings(r.output);
  ASSERT_EQ(found.size(), 2u) << r.output;
  EXPECT_EQ(found[0].line, 42);
  EXPECT_EQ(found[1].line, 44);
  EXPECT_EQ(found[0].rule, "R5");
}

TEST_F(LintTest, RealTreeLintsClean) {
  const std::string root(BDDMIN_REPO_ROOT);
  const RunResult r = run_lint("\"" + root + "/src\" \"" + root +
                               "/tests\" \"" + root + "/bench\" \"" + root +
                               "/examples\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
