//===- tests/lint_semantic_test.cpp - semantic lint engine tests ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for the semantic (cross-TU) half of hds_lint: W1 schema lock, E1
// exhaustive dispatch, and STALE suppression auditing.
// Sources are supplied inline or from tests/lint_fixtures/ with virtual
// display paths, so path-scoped behavior matches the real tree.
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"
#include "lint/Rules.h"
#include "lint/SchemaLock.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hds::lint;

namespace {

std::string readFixture(const std::string &Name) {
  const std::string Path = std::string(HDS_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open fixture " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string dump(const std::vector<Finding> &Fs) {
  std::string S;
  for (const Finding &F : Fs)
    S += formatFinding(F) + "\n";
  return S;
}

int countRule(const std::vector<Finding> &Fs, const std::string &Id) {
  int N = 0;
  for (const Finding &F : Fs)
    if (F.RuleId == Id)
      ++N;
  return N;
}

std::vector<Finding> lintSources(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    const LintOptions &Opts = LintOptions()) {
  std::vector<LexedFile> Files;
  for (const auto &[Path, Text] : Sources)
    Files.push_back(lexSource(Path, Text));
  return runLint(Files, Opts);
}

//===----------------------------------------------------------------------===//
// E1: exhaustive dispatch
//===----------------------------------------------------------------------===//

TEST(LintE1, PositiveFixtureFires) {
  auto Fs = lintSources(
      {{"src/obs/e1_positive.cpp", readFixture("e1_positive.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 3) << dump(Fs);
}

TEST(LintE1, SuppressedFixtureIsClean) {
  auto Fs = lintSources(
      {{"src/obs/e1_suppressed.cpp", readFixture("e1_suppressed.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, EnumDefinitionCrossesFiles) {
  const char *Header = R"(
// hds-exhaustive
enum class Kind { A = 0, B = 1 };
)";
  const char *User = R"(
enum class Kind;
int pick(Kind K) {
  switch (K) {
  case Kind::A:
    return 0;
  }
  return -1;
}
)";
  auto Fs = lintSources({{"src/obs/Kind.h", Header},
                         {"src/obs/pick.cpp", User}});
  ASSERT_EQ(countRule(Fs, "E1"), 1) << dump(Fs);
  for (const Finding &F : Fs)
    if (F.RuleId == "E1") {
      EXPECT_NE(F.Message.find("B"), std::string::npos);
    }
}

TEST(LintE1, ClassScopeFixtureFires) {
  auto Fs = lintSources({{"src/prefetch/e1_class_scope.cpp",
                          readFixture("e1_class_scope.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 2) << dump(Fs);
}

TEST(LintE1, BareLabelsInsideOwningClassCount) {
  const char *Src = R"(
struct Widget {
  // hds-exhaustive
  enum State { Off = 0, On = 1 };
  bool lit(State S) const {
    switch (S) {
    case Off:
      return false;
    case On:
      return true;
    }
    return false;
  }
};
)";
  auto Fs = lintSources({{"src/obs/widget.cpp", Src}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, SameNameEnumIsNotMisattributed) {
  // The JsonValue regression: a switch over an unrelated enum that also
  // happens to be called `Kind` must not be measured against the marked
  // one.  Membership, not the bare name, decides attribution.
  const char *Header = R"(
struct Engine {
  // hds-exhaustive
  enum Kind { Stride = 0, Markov = 1 };
};
)";
  const char *User = R"(
enum class Kind { Number = 0, Text = 1 };
const char *token(Kind K) {
  switch (K) {
  case Kind::Number:
    return "number";
  default:
    return "text";
  }
}
)";
  auto Fs = lintSources(
      {{"src/prefetch/Engine.h", Header}, {"src/engine/json.cpp", User}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, UnmarkedEnumIsIgnored) {
  const char *Src = R"(
enum class Kind { A = 0, B = 1 };
int pick(Kind K) {
  switch (K) {
  case Kind::A:
    return 0;
  default:
    return -1;
  }
}
)";
  auto Fs = lintSources({{"src/obs/unmarked.cpp", Src}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// W1: schema lock
//===----------------------------------------------------------------------===//

/// A miniature schema surface: a locked enum and one metrics visitor, as
/// the tree-side "current" state.  The constant is not schema: W1 locks
/// only enums and metric lists.
const char *SchemaSource = R"(
// hds-schema-enum
enum class FrameType : unsigned char {
  Hello = 1,
  Assign = 2,
};
constexpr unsigned char ProtocolVersion = 3;
struct MetricDef { const char *Id; };
template <typename V> void visitPoolMetrics(V &&Visit) {
  Visit(MetricDef{"hits"});
  Visit(MetricDef{"misses"});
}
)";

std::vector<LexedFile> schemaFiles(const std::string &Text = SchemaSource) {
  std::vector<LexedFile> Files;
  Files.push_back(lexSource("src/engine/MiniSchema.h", Text));
  return Files;
}

LintOptions schemaOpts(const std::string &LockText) {
  static std::string Keep;
  Keep = LockText;
  LintOptions Opts;
  Opts.OnlyRules = {"W1"};
  Opts.SchemaLockText = &Keep;
  Opts.SchemaLockPath = "tests/golden/mini.lock";
  return Opts;
}

TEST(LintW1, RoundTripIsClean) {
  auto Files = schemaFiles();
  const std::string Lock = renderSchemaLock(collectSchema(Files));
  auto Fs = runLint(Files, schemaOpts(Lock));
  EXPECT_EQ(countRule(Fs, "W1"), 0) << dump(Fs);
}

TEST(LintW1, CollectFindsAllSections) {
  auto Sections = collectSchema(schemaFiles());
  ASSERT_EQ(Sections.size(), 2u);
  // Sorted by (kind, name): enum FrameType, metrics visitPool.
  EXPECT_EQ(Sections[0].Kind, "enum");
  EXPECT_EQ(Sections[0].Name, "FrameType");
  ASSERT_EQ(Sections[0].Entries.size(), 2u);
  EXPECT_EQ(Sections[0].Entries[1].Name, "Assign");
  EXPECT_EQ(Sections[0].Entries[1].Value, 2);
  EXPECT_EQ(Sections[1].Kind, "metrics");
  EXPECT_EQ(Sections[1].Name, "visitPoolMetrics");
  ASSERT_EQ(Sections[1].Entries.size(), 2u);
  EXPECT_EQ(Sections[1].Entries[0].Name, "hits");
  EXPECT_EQ(Sections[1].Entries[1].Value, 1);
}

TEST(LintW1, ReorderedTagFails) {
  auto Files = schemaFiles();
  std::string Lock = renderSchemaLock(collectSchema(Files));
  // Swap the two metric entries in the lock.
  size_t H = Lock.find("hits 0\nmisses 1");
  ASSERT_NE(H, std::string::npos);
  Lock.replace(H, std::string("hits 0\nmisses 1").size(),
               "misses 1\nhits 0");
  auto Fs = runLint(Files, schemaOpts(Lock));
  ASSERT_GE(countRule(Fs, "W1"), 1) << dump(Fs);
  EXPECT_NE(dump(Fs).find("reordered"), std::string::npos) << dump(Fs);
}

TEST(LintW1, DeletedMetricFails) {
  // The lock remembers a metric the tree no longer enumerates.
  auto Files = schemaFiles();
  std::string Lock = renderSchemaLock(collectSchema(Files));
  std::string Without = SchemaSource;
  size_t M = Without.find("  Visit(MetricDef{\"misses\"});\n");
  ASSERT_NE(M, std::string::npos);
  Without.erase(M, std::string("  Visit(MetricDef{\"misses\"});\n").size());
  auto Fs = runLint(schemaFiles(Without), schemaOpts(Lock));
  ASSERT_GE(countRule(Fs, "W1"), 1) << dump(Fs);
  EXPECT_NE(dump(Fs).find("removed"), std::string::npos) << dump(Fs);
}

TEST(LintW1, RenumberedFrameTypeFails) {
  auto Files = schemaFiles();
  std::string Lock = renderSchemaLock(collectSchema(Files));
  std::string Renumbered = SchemaSource;
  size_t A = Renumbered.find("Assign = 2");
  ASSERT_NE(A, std::string::npos);
  Renumbered.replace(A, std::string("Assign = 2").size(), "Assign = 9");
  auto Fs = runLint(schemaFiles(Renumbered), schemaOpts(Lock));
  ASSERT_GE(countRule(Fs, "W1"), 1) << dump(Fs);
  EXPECT_NE(dump(Fs).find("renumbered"), std::string::npos) << dump(Fs);
}

TEST(LintW1, LegalAppendReportsStaleLock) {
  auto Files = schemaFiles();
  std::string Lock = renderSchemaLock(collectSchema(Files));
  std::string Appended = SchemaSource;
  size_t E = Appended.find("  Assign = 2,\n");
  ASSERT_NE(E, std::string::npos);
  Appended.insert(E + std::string("  Assign = 2,\n").size(),
                  "  Result = 3,\n");
  auto Fs = runLint(schemaFiles(Appended), schemaOpts(Lock));
  ASSERT_EQ(countRule(Fs, "W1"), 1) << dump(Fs);
  EXPECT_NE(dump(Fs).find("stale"), std::string::npos) << dump(Fs);
}

TEST(LintW1, SuppressionCannotSilenceW1) {
  // W1 has no suppression tag; an unknown tag in a note is itself a SUP
  // finding and the W1 finding survives.
  auto Files = schemaFiles();
  std::string Lock = renderSchemaLock(collectSchema(Files));
  std::string Renumbered = SchemaSource;
  size_t A = Renumbered.find("Assign = 2");
  ASSERT_NE(A, std::string::npos);
  Renumbered.replace(A, std::string("Assign = 2").size(),
                     "Assign = 9, // hds-lint: schema-ok(nope)");
  LintOptions Opts = schemaOpts(Lock);
  Opts.OnlyRules.clear(); // let SUP run too
  auto Fs = runLint(schemaFiles(Renumbered), Opts);
  EXPECT_GE(countRule(Fs, "W1"), 1) << dump(Fs);
  EXPECT_GE(countRule(Fs, "SUP"), 1) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// STALE: suppression audit
//===----------------------------------------------------------------------===//

TEST(LintStale, UnusedSuppressionIsReportedOnlyWhenAsked) {
  const char *Src = R"(
// hds-lint: ordered-ok(nothing here iterates anything)
int answer() { return 42; }
)";
  auto Quiet = lintSources({{"src/core/quiet.cpp", Src}});
  EXPECT_EQ(countRule(Quiet, "STALE"), 0) << dump(Quiet);

  LintOptions Opts;
  Opts.ReportStale = true;
  auto Audited = lintSources({{"src/core/quiet.cpp", Src}}, Opts);
  ASSERT_EQ(countRule(Audited, "STALE"), 1) << dump(Audited);
  EXPECT_NE(dump(Audited).find("ordered-ok"), std::string::npos);
}

TEST(LintStale, UsedSuppressionIsNotStale) {
  const char *Src = R"(
#include <unordered_map>
void walk(const std::unordered_map<int, int> &Table) {
  // hds-lint: ordered-ok(sums are order-independent)
  for (const auto &KV : Table)
    (void)KV;
}
)";
  LintOptions Opts;
  Opts.ReportStale = true;
  auto Fs = lintSources({{"src/core/used.cpp", Src}}, Opts);
  EXPECT_EQ(countRule(Fs, "D2"), 0) << dump(Fs);
  EXPECT_EQ(countRule(Fs, "STALE"), 0) << dump(Fs);
}

} // namespace
