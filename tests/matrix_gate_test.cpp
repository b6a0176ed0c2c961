//===- tests/matrix_gate_test.cpp - Adaptive gates over the golden --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Every adaptive mechanism must hold its ground against the fixed
// configuration it claims to improve.  These checks read the committed
// golden matrix (tests/golden/matrix_scale005.json, which the tier-2
// tool_matrix_golden test keeps equal to the simulation) and compare
// cycles as a percent change against each workload's Original cell:
//
//   * a +tuned cell is at most 1 point worse than its fixed engine
//     (Dyn-pref, stream and pair);
//   * the dueling selector is at most 2 points worse than the best of
//     its members (stride, Markov, stream, pair).
//
// The tolerances are fixed; a change that cannot meet them leaves these
// tests failing.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultsDiff.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace hds;

namespace {

constexpr double TunedSlackPts = 1.0;
constexpr double DuelSlackPts = 2.0;

/// Splits a cell key ("workload=vpr mode=original ...") into its fields.
std::map<std::string, std::string> identityOf(const std::string &Key) {
  std::map<std::string, std::string> Fields;
  std::istringstream Words(Key);
  std::string Word;
  while (Words >> Word) {
    const size_t Eq = Word.find('=');
    if (Eq != std::string::npos)
      Fields[Word.substr(0, Eq)] = Word.substr(Eq + 1);
  }
  return Fields;
}

/// The cell's configuration within its workload: the zoo engine when one
/// is enabled, the run mode otherwise, with "+tuned" when tuning is on.
std::string configOf(const std::map<std::string, std::string> &Id) {
  std::string Config = Id.at("mode");
  for (const char *Engine :
       {"stride", "markov", "stream_pf", "pair_pf", "duel_pf"})
    if (Id.at(Engine) == "true") {
      Config = Engine;
      if (const size_t Suffix = Config.find("_pf");
          Suffix != std::string::npos)
        Config.erase(Suffix);
    }
  return Id.at("tuned") == "true" ? Config + "+tuned" : Config;
}

/// Cycles per (workload, configuration) of the golden matrix.
class GoldenMatrix : public ::testing::Test {
protected:
  void SetUp() override {
    std::ifstream In(HDS_GOLDEN_DIR "/matrix_scale005.json");
    ASSERT_TRUE(In) << "cannot open the golden matrix";
    std::stringstream Text;
    Text << In.rdbuf();
    std::vector<engine::ResultCell> Cells;
    std::string Error;
    ASSERT_TRUE(engine::readResultCells(Text.str(), Cells, Error)) << Error;
    for (const engine::ResultCell &Cell : Cells) {
      ASSERT_EQ(Cell.Status, "ok") << Cell.Key;
      const std::map<std::string, std::string> Id = identityOf(Cell.Key);
      for (const auto &[Path, Value] : Cell.Metrics)
        if (Path == "cycles") {
          const bool Fresh =
              Cycles[Id.at("workload")]
                  .emplace(configOf(Id), std::stod(Value))
                  .second;
          ASSERT_TRUE(Fresh) << "two cells share " << Cell.Key;
        }
    }
    ASSERT_EQ(Cycles.size(), 6u) << "the matrix covers six workloads";
  }

  /// Cycles of \p Config on \p Workload as a percent change against the
  /// workload's Original cell (negative is faster).
  double pctVsOriginal(const std::string &Workload, const std::string &Config) {
    const std::map<std::string, double> &Row = Cycles.at(Workload);
    const double Original = Row.at("original");
    return 100.0 * (Row.at(Config) - Original) / Original;
  }

  std::map<std::string, std::map<std::string, double>> Cycles;
};

TEST_F(GoldenMatrix, TunedCellsHoldTheirFixedEngine) {
  for (const auto &Entry : Cycles) {
    const std::string &Workload = Entry.first;
    for (const char *Fixed : {"dynpref", "stream", "pair"}) {
      const std::string Tuned = std::string(Fixed) + "+tuned";
      const double FixedPct = pctVsOriginal(Workload, Fixed);
      const double TunedPct = pctVsOriginal(Workload, Tuned);
      EXPECT_LE(TunedPct, FixedPct + TunedSlackPts)
          << Workload << " " << Tuned << " " << TunedPct << "% vs "
          << Fixed << " " << FixedPct << "%";
    }
  }
}

TEST_F(GoldenMatrix, DuelHoldsItsBestMember) {
  for (const auto &Entry : Cycles) {
    const std::string &Workload = Entry.first;
    std::string Best;
    double BestPct = 0.0;
    for (const char *Member : {"stride", "markov", "stream", "pair"}) {
      const double Pct = pctVsOriginal(Workload, Member);
      if (Best.empty() || Pct < BestPct) {
        Best = Member;
        BestPct = Pct;
      }
    }
    const double DuelPct = pctVsOriginal(Workload, "duel");
    EXPECT_LE(DuelPct, BestPct + DuelSlackPts)
        << Workload << " duel " << DuelPct << "% vs best member " << Best
        << " " << BestPct << "%";
  }
}

} // namespace
