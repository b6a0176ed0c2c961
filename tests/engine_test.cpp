//===- tests/engine_test.cpp - Parallel experiment engine tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for src/engine: the JobScheduler worker pool, the spec-order
// ResultSink merge, and the determinism contract of runMatrix —
// the aggregate JSON must be byte-identical for any job count, shard
// failures must not corrupt or reorder the merged output, and
// cancellation must leave no leaked threads (this binary also runs
// under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "engine/JobScheduler.h"
#include "engine/ResultSink.h"
#include "engine/ResultsDiff.h"
#include "engine/ResultsJson.h"
#include "engine/Views.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <semaphore>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// JobScheduler
//===----------------------------------------------------------------------===//

TEST(JobScheduler, RunsEverySubmittedJob) {
  std::atomic<int> Counter{0};
  {
    JobScheduler Pool(4);
    EXPECT_EQ(Pool.threadCount(), 4u);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Pool.executed(), 64u);
    EXPECT_EQ(Pool.dropped(), 0u);
  }
  EXPECT_EQ(Counter.load(), 64);
}

TEST(JobScheduler, ZeroThreadsClampsToOne) {
  JobScheduler Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::atomic<int> Counter{0};
  Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 1);
}

TEST(JobScheduler, WaitWithNoJobsReturnsImmediately) {
  JobScheduler Pool(2);
  Pool.wait();
  EXPECT_EQ(Pool.executed(), 0u);
}

TEST(JobScheduler, CancelDropsQueuedJobsButFinishesRunningOnes) {
  std::binary_semaphore JobStarted{0};
  std::binary_semaphore ReleaseJob{0};
  std::atomic<int> Ran{0};

  JobScheduler Pool(1);
  // First job occupies the only worker until we release it.
  Pool.submit([&] {
    JobStarted.release();
    ReleaseJob.acquire();
    Ran.fetch_add(1);
  });
  for (int I = 0; I < 9; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });

  JobStarted.acquire(); // the worker is now inside job 0
  Pool.cancel();        // drops the 9 queued jobs
  ReleaseJob.release();
  Pool.wait();

  EXPECT_EQ(Ran.load(), 1);
  EXPECT_EQ(Pool.executed(), 1u);
  EXPECT_EQ(Pool.dropped(), 9u);
}

TEST(JobScheduler, DestructorJoinsWithQueuedJobs) {
  // Destroying the pool while jobs are still queued must not leak
  // threads or deadlock (TSan/ASan in CI would flag either).
  std::atomic<int> Ran{0};
  {
    JobScheduler Pool(2);
    for (int I = 0; I < 8; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No wait(): the destructor drops what has not started and joins.
  }
  EXPECT_LE(Ran.load(), 8);
}

//===----------------------------------------------------------------------===//
// ResultSink
//===----------------------------------------------------------------------===//

RunResult okResult(const std::string &Workload, uint64_t Cycles) {
  RunResult Result;
  Result.Spec.Workload = Workload;
  Result.State = RunResult::Status::Ok;
  Result.Cycles = Cycles;
  return Result;
}

TEST(ResultSink, MergesOutOfOrderDeliveriesInSpecOrder) {
  ResultSink Sink(3);
  Sink.deliver(2, okResult("c", 30));
  Sink.deliver(0, okResult("a", 10));
  Sink.deliver(1, okResult("b", 20));
  EXPECT_EQ(Sink.completed(), 3u);

  const std::vector<RunResult> Results = Sink.take();
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Spec.Workload, "a");
  EXPECT_EQ(Results[1].Spec.Workload, "b");
  EXPECT_EQ(Results[2].Spec.Workload, "c");
  EXPECT_EQ(Results[1].Cycles, 20u);
}

TEST(ResultSink, CallbackFiresInCompletionOrder) {
  ResultSink Sink(2);
  std::vector<std::size_t> Order;
  Sink.setCallback([&Order](std::size_t Index, const RunResult &) {
    Order.push_back(Index);
  });
  Sink.deliver(1, okResult("b", 2));
  Sink.deliver(0, okResult("a", 1));
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1u);
  EXPECT_EQ(Order[1], 0u);
}

TEST(ResultSink, UnfilledSlotsComeBackCancelled) {
  ResultSink Sink(2);
  Sink.deliver(0, okResult("a", 1));
  const std::vector<RunResult> Results = Sink.take();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].ok());
  EXPECT_EQ(Results[1].State, RunResult::Status::Cancelled);
}

//===----------------------------------------------------------------------===//
// Spec vocabulary
//===----------------------------------------------------------------------===//

TEST(ExperimentSpec, ModeTokensRoundTrip) {
  const core::RunMode Modes[] = {
      core::RunMode::Original,         core::RunMode::ChecksOnly,
      core::RunMode::Profile,          core::RunMode::ProfileAnalyze,
      core::RunMode::MatchNoPrefetch,  core::RunMode::SequentialPrefetch,
      core::RunMode::DynamicPrefetch};
  for (core::RunMode Mode : Modes) {
    core::RunMode Parsed;
    ASSERT_TRUE(core::parseRunModeToken(core::runModeToken(Mode), Parsed));
    EXPECT_EQ(Parsed, Mode);
  }
  core::RunMode Parsed;
  EXPECT_FALSE(core::parseRunModeToken("bogus", Parsed));
}

TEST(ExperimentSpec, FilterNarrowsTheMatrix) {
  std::vector<ExperimentSpec> Specs = defaultMatrix();
  ASSERT_TRUE(applyFilter(Specs, "workload=mcf"));
  ASSERT_FALSE(Specs.empty());
  for (const ExperimentSpec &Spec : Specs)
    EXPECT_EQ(Spec.Workload, "mcf");

  ASSERT_TRUE(applyFilter(Specs, "mode=dynpref"));
  ASSERT_EQ(Specs.size(), 2u);
  for (const ExperimentSpec &Spec : Specs)
    EXPECT_EQ(Spec.Mode, core::RunMode::DynamicPrefetch);
  EXPECT_NE(Specs[0].Tuned, Specs[1].Tuned);

  ASSERT_TRUE(applyFilter(Specs, "tuning=fixed"));
  ASSERT_EQ(Specs.size(), 1u);
  EXPECT_FALSE(Specs[0].Tuned);
}

TEST(ExperimentSpec, BadFilterReportsErrorAndLeavesSpecsAlone) {
  std::vector<ExperimentSpec> Specs = defaultMatrix();
  const std::size_t Before = Specs.size();
  std::string Error;
  EXPECT_FALSE(applyFilter(Specs, "flavor=spicy", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Specs.size(), Before);
  EXPECT_FALSE(applyFilter(Specs, "no-equals-sign", &Error));
  EXPECT_EQ(Specs.size(), Before);
}

TEST(ExperimentSpec, DefaultSpecMaterializesTheDefaultConfig) {
  const core::OptimizerConfig Default;
  const core::OptimizerConfig FromSpec = ExperimentSpec().materializeConfig();
  EXPECT_EQ(FromSpec.Dfsm.HeadLength, Default.Dfsm.HeadLength);
  EXPECT_EQ(FromSpec.L2.SizeBytes, Default.L2.SizeBytes);
  EXPECT_EQ(FromSpec.Tracing.NCheck0, Default.Tracing.NCheck0);
  EXPECT_EQ(FromSpec.QuietHeadPlacement, Default.QuietHeadPlacement);
}

TEST(ExperimentSpec, HeadLengthZeroIsRejected) {
  ExperimentSpec Spec;
  Spec.Iterations = 50;
  Spec.HeadLength = 0;
  const RunResult Result = runExperiment(Spec);
  EXPECT_EQ(Result.State, RunResult::Status::Error);
  EXPECT_NE(Result.Error.find("head length"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// runMatrix determinism and failure isolation
//===----------------------------------------------------------------------===//

std::vector<ExperimentSpec> smallMatrix() {
  // vpr under every mode, at a fixed tiny iteration count so the whole
  // matrix stays fast even when run three times.
  std::vector<ExperimentSpec> Specs;
  const core::RunMode Modes[] = {
      core::RunMode::Original,         core::RunMode::ChecksOnly,
      core::RunMode::Profile,          core::RunMode::ProfileAnalyze,
      core::RunMode::MatchNoPrefetch,  core::RunMode::SequentialPrefetch,
      core::RunMode::DynamicPrefetch};
  for (core::RunMode Mode : Modes) {
    ExperimentSpec Spec;
    Spec.Workload = "vpr";
    Spec.Mode = Mode;
    Spec.Iterations = 300;
    Specs.push_back(Spec);
  }
  return Specs;
}

std::string jsonForJobs(const std::vector<ExperimentSpec> &Specs,
                        unsigned Jobs) {
  return resultsToJson(runMatrix(Specs, Jobs));
}

TEST(RunMatrix, AggregateJsonIsByteIdenticalAcrossJobCounts) {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  const std::string Json1 = jsonForJobs(Specs, 1);
  const std::string Json2 = jsonForJobs(Specs, 2);
  const std::string Json8 = jsonForJobs(Specs, 8);
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json8);
}

TEST(RunMatrix, FailedShardKeepsOrderAndDoesNotPoisonNeighbours) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Good;
  Good.Workload = "vpr";
  Good.Iterations = 200;
  ExperimentSpec Bad = Good;
  Bad.Workload = "no-such-workload";
  Specs.push_back(Good);
  Specs.push_back(Bad);
  Specs.push_back(Good);

  const std::vector<RunResult> Results = runMatrix(Specs, 2);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].ok());
  EXPECT_EQ(Results[1].State, RunResult::Status::Error);
  EXPECT_FALSE(Results[1].Error.empty());
  EXPECT_EQ(Results[1].Spec.Workload, "no-such-workload");
  EXPECT_TRUE(Results[2].ok());
  // The two good shards are the same experiment: identical cycles.
  EXPECT_EQ(Results[0].Cycles, Results[2].Cycles);
}

TEST(RunMatrix, CancellationKeepsSpecOrderAndJoinsCleanly) {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  std::atomic<bool> Cancel{false};

  const std::vector<RunResult> Results = runMatrix(
      Specs, /*Jobs=*/1, // serial: deliveries happen in spec order
      [&Cancel](std::size_t, const RunResult &) {
        Cancel.store(true); // request cancellation after the first delivery
      },
      &Cancel);

  ASSERT_EQ(Results.size(), Specs.size());
  EXPECT_TRUE(Results[0].ok());
  std::size_t Cancelled = 0;
  for (std::size_t I = 0; I < Results.size(); ++I) {
    // Every slot still carries its own spec, run or not.
    EXPECT_EQ(Results[I].Spec.Workload, Specs[I].Workload);
    EXPECT_EQ(Results[I].Spec.Mode, Specs[I].Mode);
    if (Results[I].State == RunResult::Status::Cancelled)
      ++Cancelled;
  }
  EXPECT_GE(Cancelled, 1u);
}

//===----------------------------------------------------------------------===//
// Results diffing (the --diff surface)
//===----------------------------------------------------------------------===//

TEST(ResultsDiff, IdenticalDocumentsCompareClean) {
  const std::string Json = jsonForJobs(smallMatrix(), 2);
  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(Json, Json, DiffOptions(), Report, Error))
      << Error;
  EXPECT_FALSE(Report.regressed());
  EXPECT_EQ(Report.CellsCompared, smallMatrix().size());
}

TEST(ResultsDiff, CycleGrowthIsARegressionAndThresholdSilencesIt) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Spec;
  Spec.Workload = "vpr";
  Spec.Iterations = 200;
  Specs.push_back(Spec);
  std::vector<RunResult> Results = runMatrix(Specs);
  const std::string Before = resultsToJson(Results);
  Results[0].Cycles += Results[0].Cycles / 100 + 1; // ~1% slower
  const std::string After = resultsToJson(Results);

  DiffReport Exact;
  std::string Error;
  ASSERT_TRUE(diffResults(Before, After, DiffOptions(), Exact, Error))
      << Error;
  EXPECT_TRUE(Exact.regressed());
  ASSERT_EQ(Exact.Regressions.size(), 1u);
  EXPECT_NE(Exact.Regressions[0].Detail.find("cycles"), std::string::npos);

  DiffOptions Loose;
  Loose.ThresholdPct = 50.0;
  DiffReport Tolerant;
  ASSERT_TRUE(diffResults(Before, After, Loose, Tolerant, Error)) << Error;
  EXPECT_TRUE(Tolerant.Regressions.empty());
}

TEST(ResultsDiff, StatusFlipAndMissingCellsAreReported) {
  std::vector<ExperimentSpec> Specs = smallMatrix();
  std::vector<RunResult> Results = runMatrix(Specs);
  const std::string Before = resultsToJson(Results);

  Results[0].State = RunResult::Status::Error;
  Results[0].Error = "synthetic failure";
  Results.pop_back();
  const std::string After = resultsToJson(Results);

  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(Before, After, DiffOptions(), Report, Error))
      << Error;
  EXPECT_TRUE(Report.regressed());
  EXPECT_EQ(Report.StatusChanges.size(), 1u);
  EXPECT_EQ(Report.OnlyInA.size(), 1u);
  EXPECT_TRUE(Report.OnlyInB.empty());
}

TEST(ResultsDiff, RejectsForeignDocuments) {
  DiffReport Report;
  std::string Error;
  EXPECT_FALSE(diffResults("{]", "{}", DiffOptions(), Report, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(diffResults("{\"schema\": \"something-else\"}", "{}",
                           DiffOptions(), Report, Error));
}

TEST(ResultsDiff, MissingAppendedFieldsKeyAsTheirDefaults) {
  // Documents written before l2_bytes/ncheck0/quiet_head existed pair
  // with new ones cell for cell.
  const std::string Json = jsonForJobs({smallMatrix().front()}, 1);
  std::istringstream Lines(Json);
  std::string Old, Line;
  while (std::getline(Lines, Line))
    if (Line.find("\"l2_bytes\"") == std::string::npos &&
        Line.find("\"ncheck0\"") == std::string::npos &&
        Line.find("\"quiet_head\"") == std::string::npos)
      Old += Line + "\n";
  ASSERT_NE(Old, Json);
  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(Old, Json, DiffOptions(), Report, Error)) << Error;
  EXPECT_FALSE(Report.regressed()) << Report.render("old", "new");
  EXPECT_EQ(Report.CellsCompared, 1u);
}

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

TEST(ResultsJson, OverheadIsRelativeToTheOriginalBaseline) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Base;
  Base.Workload = "vpr";
  Base.Mode = core::RunMode::Original;
  Base.Iterations = 300;
  ExperimentSpec Opt = Base;
  Opt.Mode = core::RunMode::DynamicPrefetch;
  Specs.push_back(Base);
  Specs.push_back(Opt);

  const std::vector<RunResult> Results = runMatrix(Specs);
  const std::string Json = resultsToJson(Results);
  // The baseline's overhead over itself is exactly zero.
  EXPECT_NE(Json.find("\"overhead_pct\": 0.0000"), std::string::npos);
  EXPECT_NE(Json.find("\"schema\": \"hds-matrix-results-v1\""),
            std::string::npos);
  // Deterministic output carries no timing object unless asked for.
  EXPECT_EQ(Json.find("\"timing\""), std::string::npos);
}

TEST(ResultsJson, TimingObjectOnlyAppearsOnRequest) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Spec;
  Spec.Workload = "vpr";
  Spec.Iterations = 100;
  Specs.push_back(Spec);
  const std::vector<RunResult> Results = runMatrix(Specs);

  TimingInfo Timing;
  Timing.IncludeWall = true;
  Timing.WallMillis = 1234;
  Timing.Jobs = 8;
  const std::string Json = resultsToJson(Results, Timing);
  EXPECT_NE(Json.find("\"timing\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_ms\": 1234"), std::string::npos);
  EXPECT_NE(Json.find("\"jobs\": 8"), std::string::npos);
}

TEST(ResultsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01"
                                   "b")),
            "a\\u0001b");
}

TEST(ResultsJson, LayoutSeedChangesTheRunButNotItsShape) {
  // Seeded runs perturb the heap base; the run still completes and the
  // result echoes the seed so trajectory files can group by it.
  ExperimentSpec Seeded;
  Seeded.Workload = "vpr";
  Seeded.Iterations = 200;
  Seeded.Seed = 3;
  const RunResult Result = runExperiment(Seeded);
  ASSERT_TRUE(Result.ok());
  EXPECT_EQ(Result.Spec.Seed, 3u);
  const std::string Json = resultsToJson({Result});
  EXPECT_NE(Json.find("\"seed\": 3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Views (figures and tables rendered from a results document)
//===----------------------------------------------------------------------===//

std::vector<std::string> allViews() {
  std::vector<std::string> Names;
  std::istringstream List(viewNameList());
  std::string Name;
  while (std::getline(List, Name, ','))
    Names.push_back(Name.substr(Name.find_first_not_of(' ')));
  return Names;
}

TEST(Views, EveryViewReadsDistinctlyLabelledCells) {
  ASSERT_EQ(allViews().size(), 10u);
  for (const std::string &View : allViews()) {
    std::vector<ExperimentSpec> Cells;
    ASSERT_TRUE(viewCells(View, 0.5, Cells)) << View;
    EXPECT_FALSE(Cells.empty()) << View;
    std::set<std::string> Labels;
    for (const ExperimentSpec &Cell : Cells) {
      EXPECT_EQ(Cell.Scale, 0.5) << View;
      EXPECT_TRUE(Labels.insert(Cell.label()).second)
          << View << " reads two cells labelled " << Cell.label();
    }
  }
}

TEST(Views, RendersAMarkdownTableFromTheCellsItNeeds) {
  std::vector<ExperimentSpec> Cells;
  ASSERT_TRUE(viewCells("fig12", 0.01, Cells));
  EXPECT_EQ(Cells.size(), 24u); // six workloads x Original + three modes
  const std::string Json = resultsToJson(runMatrix(Cells, 2));
  std::string Table, Error;
  ASSERT_TRUE(renderView("fig12", 0.01, Json, Table, Error)) << Error;
  EXPECT_EQ(Table.rfind("| benchmark | No-pref | Seq-pref | Dyn-pref |\n"
                        "|---|---|---|---|\n| vpr | ",
                        0),
            0u)
      << Table;
  EXPECT_EQ(std::count(Table.begin(), Table.end(), '\n'), 8);
  // The same cells at another scale are not in the document.
  EXPECT_FALSE(renderView("fig12", 0.02, Json, Table, Error));
}

TEST(Views, RejectsUnknownViewsMissingCellsAndForeignDocuments) {
  std::vector<ExperimentSpec> Cells;
  EXPECT_FALSE(viewCells("fig13", 1.0, Cells));
  std::string Table, Error;
  const std::string Json = jsonForJobs(smallMatrix(), 2);
  EXPECT_FALSE(renderView("fig13", 1.0, Json, Table, Error));
  EXPECT_NE(Error.find("fig11, fig12, table2"), std::string::npos) << Error;

  // smallMatrix runs vpr only: the first missing cell is mcf's baseline.
  EXPECT_FALSE(renderView("fig11", 1.0, Json, Table, Error));
  EXPECT_NE(Error.find("lacks cell mcf/original"), std::string::npos)
      << Error;

  EXPECT_FALSE(renderView("fig11", 1.0, "{]", Table, Error));
  EXPECT_NE(Error.find("JSON parse error"), std::string::npos) << Error;
  EXPECT_FALSE(renderView("fig11", 1.0, "{\"schema\": \"other\"}", Table,
                          Error));
  EXPECT_TRUE(Table.empty());
}

} // namespace
