//===- tests/cli_test.cpp - Shared command-line option tests --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Covers every registration kind in cli::OptionSet (src/cli/Options.h)
// plus the vocabulary helpers the tools share (prefetcher flags, the
// --adaptive tuning flag, generated token lists), including the strict
// error paths that exit the process.
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"

#include "engine/ExperimentSpec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace hds;
using namespace hds::cli;

namespace {

/// Runs \p Set.parse over \p Args as if they were argv[1..]; argv[0] is
/// a dummy binary name, matching how the tools call it.
void parseArgs(const OptionSet &Set, std::vector<std::string> Args) {
  std::vector<char *> Argv;
  static std::string Binary = "test-tool";
  Argv.push_back(Binary.data());
  for (std::string &Arg : Args)
    Argv.push_back(Arg.data());
  Set.parse(static_cast<int>(Argv.size()), Argv.data());
}

TEST(OptionSet, EveryRegistrationKindParses) {
  bool Flag = false;
  std::string Str;
  std::vector<std::string> List;
  std::string PairA, PairB;
  uint64_t U64 = 0;
  uint32_t U32 = 0;
  unsigned Uns = 0;
  double Positive = 0.0, NonNegative = -1.0;
  std::string Operand;
  core::RunMode Mode = core::RunMode::Original;

  bool UsageCalled = false;
  OptionSet Set([&UsageCalled] { UsageCalled = true; });
  Set.flag("--flag", Flag)
      .str("--str", Str)
      .strList("--list", List)
      .strPair("--pair", PairA, PairB)
      .u64("--u64", U64)
      .u32("--u32", U32)
      .uns("--uns", Uns)
      .positiveDouble("--positive", Positive)
      .nonNegativeDouble("--nonneg", NonNegative)
      .runMode("--mode", Mode)
      .operand(Operand);

  parseArgs(Set, {"--flag", "--str", "hello", "--list", "a", "--list", "b",
                  "--pair", "left", "right", "--u64", "18446744073709551615",
                  "--u32", "4096", "--uns", "7", "doc.json", "--positive",
                  "2.25", "--nonneg", "0", "--mode", "dynpref"});

  EXPECT_FALSE(UsageCalled);
  EXPECT_TRUE(Flag);
  EXPECT_EQ(Str, "hello");
  EXPECT_EQ(List, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(PairA, "left");
  EXPECT_EQ(PairB, "right");
  EXPECT_EQ(U64, 18446744073709551615ull);
  EXPECT_EQ(U32, 4096u);
  EXPECT_EQ(Uns, 7u);
  EXPECT_EQ(Operand, "doc.json");
  EXPECT_DOUBLE_EQ(Positive, 2.25);
  EXPECT_DOUBLE_EQ(NonNegative, 0.0);
  EXPECT_EQ(Mode, core::RunMode::DynamicPrefetch);
}

TEST(OptionSet, UnknownOptionAndMissingOperandHitUsage) {
  bool Flag = false;
  std::string Str;
  unsigned UsageCalls = 0;
  OptionSet Set([&UsageCalls] { ++UsageCalls; });
  Set.flag("--flag", Flag).str("--str", Str);

  parseArgs(Set, {"--bogus"});
  EXPECT_EQ(UsageCalls, 1u);
  // The operand for --str runs off the end of argv.
  parseArgs(Set, {"--str"});
  EXPECT_EQ(UsageCalls, 2u);
  // An unparsable run-mode token also routes through usage.
  core::RunMode Mode = core::RunMode::Original;
  Set.runMode("--mode", Mode);
  parseArgs(Set, {"--mode", "spicy"});
  EXPECT_EQ(UsageCalls, 3u);
  // A bare argument needs an operand slot, and the slot takes one.
  parseArgs(Set, {"a.json"});
  EXPECT_EQ(UsageCalls, 4u);
  std::string Operand;
  Set.operand(Operand);
  parseArgs(Set, {"a.json", "b.json"});
  EXPECT_EQ(UsageCalls, 5u);
  EXPECT_EQ(Operand, "a.json");
}

TEST(OptionSetDeathTest, StrictNumericOptionsExitWithLegacyMessages) {
  double Positive = 0.0, NonNegative = 0.0;
  unsigned Repeat = 0;
  OptionSet Set([] {});
  Set.positiveDouble("--scale", Positive)
      .nonNegativeDouble("--threshold", NonNegative)
      .unsAtLeastOne("--repeat", Repeat);

  EXPECT_EXIT(parseArgs(Set, {"--scale", "0"}),
              testing::ExitedWithCode(2),
              "error: invalid --scale '0' \\(need a finite number > 0\\)");
  for (const char *Bad : {"1.5x", "abc", "-1", "inf", "nan"})
    EXPECT_EXIT(parseArgs(Set, {"--scale", Bad}), testing::ExitedWithCode(2),
                std::string("error: invalid --scale '") + Bad +
                    "' \\(need a finite number > 0\\)")
        << Bad;
  EXPECT_EXIT(parseArgs(Set, {"--threshold", "-1"}),
              testing::ExitedWithCode(2),
              "error: invalid --threshold '-1' \\(need a number >= 0\\)");
  EXPECT_EXIT(parseArgs(Set, {"--repeat", "0"}),
              testing::ExitedWithCode(2), "error: --repeat must be >= 1");
}

//===----------------------------------------------------------------------===//
// Vocabulary helpers
//===----------------------------------------------------------------------===//

TEST(CliVocabulary, PrefetcherFlagsCoverTheRoster) {
  prefetch::PrefetcherSelection Selection;
  OptionSet Set([] { FAIL() << "usage must not fire"; });
  addPrefetcherFlags(Set, Selection);

  parseArgs(Set, {"--stride", "--duel"});
  EXPECT_TRUE(Selection.has(prefetch::Prefetcher::Stride));
  EXPECT_TRUE(Selection.has(prefetch::Prefetcher::Duel));
  EXPECT_FALSE(Selection.has(prefetch::Prefetcher::Markov));
  EXPECT_EQ(Selection.token(), "stride+duel");

  parseArgs(Set, {"--markov", "--stream", "--pair"});
  EXPECT_EQ(Selection.count(), prefetch::PrefetcherSelection::NumKinds);
}

TEST(CliVocabulary, TunedFlagIsDefinedOnce) {
  EXPECT_STREQ(TunedFlag, "--adaptive");
  bool Tuned = false;
  OptionSet Set([] { FAIL() << "usage must not fire"; });
  addTunedFlag(Set, Tuned);
  parseArgs(Set, {"--adaptive"});
  EXPECT_TRUE(Tuned);
}

TEST(CliVocabulary, UsageFragmentsComeFromSharedTokenLists) {
  EXPECT_EQ(prefetcherFlagsUsage(),
            " [--stride] [--markov] [--stream] [--pair] [--duel]");
  EXPECT_EQ(core::runModeTokenList(),
            "original|base|prof|hds|nopref|seqpref|dynpref");
  // The filter help every tool prints must name the spec axes (the
  // usage-parity ctest greps tool output for the same strings).
  const std::string Help = engine::filterHelp();
  EXPECT_NE(Help.find("prefetcher=<none|stride|markov|stream|pair|duel>"),
            std::string::npos);
  EXPECT_NE(Help.find("tuning=<adaptive|fixed>"), std::string::npos);
  EXPECT_NE(Help.find("mode=<original|base|prof|hds|nopref|seqpref|dynpref>"),
            std::string::npos);
}

} // namespace
