//===- tests/prefetchers_test.cpp - Prefetcher zoo -------------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for the pluggable prefetcher zoo (src/prefetch/): the stride,
// Markov, stream, and pair-table engines, the dueling selector, the
// runtime's prefetcher stack, and the static-scheme pinning model.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "obs/PrefetchStats.h"
#include "prefetch/DuelingSelector.h"
#include "prefetch/MarkovPrefetcher.h"
#include "prefetch/PairTablePrefetcher.h"
#include "prefetch/PrefetcherStack.h"
#include "prefetch/StreamPrefetcher.h"
#include "prefetch/StridePrefetcher.h"
#include "support/Rng.h"
#include "testing/ReferenceMarkov.h"
#include "testing/TraceGen.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace hds;
using namespace hds::core;
using namespace hds::prefetch;

namespace {

/// A demand access as the stack would deliver it on an L1 hit.
AccessEvent hit(vulcan::SiteId Site, memsim::Addr Addr) {
  return AccessEvent{Site, Addr, 1, false};
}

/// A demand access as the stack would deliver it on an L1 miss.
AccessEvent miss(memsim::Addr Addr) {
  return AccessEvent{1, Addr, 100, true};
}

//===----------------------------------------------------------------------===//
// StridePrefetcher
//===----------------------------------------------------------------------===//

class StrideTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  StridePrefetcher Prefetcher{StridePrefetcherConfig(), /*AssignedTag=*/0};

  void access(vulcan::SiteId Site, memsim::Addr Addr) {
    Prefetcher.onAccess(hit(Site, Addr), Memory);
  }
};

TEST_F(StrideTest, ConfirmedStrideIssuesPrefetches) {
  // Three accesses with the same stride: the third confirms and issues.
  access(1, 0x1000);
  access(1, 0x1040);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.confirmed(), 1u);
  EXPECT_EQ(Prefetcher.issued(), 2u); // degree 2
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x10C0));
  EXPECT_TRUE(Memory.l1().contains(0x1100));
}

TEST_F(StrideTest, NegativeStrideWorks) {
  access(1, 0x2000);
  access(1, 0x1FC0);
  access(1, 0x1F80);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x1F40));
}

TEST_F(StrideTest, IrregularAddressesNeverConfirm) {
  // Pointer-chase-like deltas (huge, varying) never train the entry.
  const memsim::Addr Addrs[] = {0x1000, 0x9000, 0x3000, 0xF000, 0x2000};
  for (memsim::Addr A : Addrs)
    access(1, A);
  EXPECT_EQ(Prefetcher.issued(), 0u);
}

TEST_F(StrideTest, SmallIrregularStridesDoNotConfirm) {
  access(1, 0x1000);
  access(1, 0x1040); // stride 0x40
  access(1, 0x10C0); // stride 0x80: retrain
  EXPECT_EQ(Prefetcher.issued(), 0u);
}

TEST_F(StrideTest, DistinctPcsTrainIndependently) {
  access(1, 0x1000);
  access(2, 0x8000); // different pc, different entry
  access(1, 0x1040);
  access(2, 0x8100);
  access(1, 0x1080);
  access(2, 0x8200);
  EXPECT_EQ(Prefetcher.confirmed(), 2u);
}

TEST_F(StrideTest, SameAddressIsNeutral) {
  access(1, 0x1000);
  access(1, 0x1040);
  access(1, 0x1040); // repeat: neither trains nor breaks
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.confirmed(), 1u);
}

TEST_F(StrideTest, HardwarePrefetchesSpendNoIssueSlots) {
  const uint64_t Before = Memory.now();
  access(1, 0x1000);
  access(1, 0x1040);
  access(1, 0x1080);
  EXPECT_EQ(Memory.now(), Before);
}

TEST_F(StrideTest, ResetClearsState) {
  access(1, 0x1000);
  access(1, 0x1040);
  Prefetcher.reset();
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  EXPECT_EQ(Prefetcher.trains(), 1u);
}

TEST_F(StrideTest, IssueGateBlocksWithoutForgetting) {
  // The dueling selector's gate: a disabled prefetcher keeps training
  // but nothing reaches the hierarchy; re-enabling resumes issue.
  Prefetcher.setIssueEnabled(false);
  access(1, 0x1000);
  access(1, 0x1040);
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.confirmed(), 1u);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  Prefetcher.setIssueEnabled(true);
  access(1, 0x10C0);
  EXPECT_EQ(Prefetcher.issued(), 2u);
}

//===----------------------------------------------------------------------===//
// MarkovPrefetcher
//===----------------------------------------------------------------------===//

class MarkovTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  MarkovPrefetcher Prefetcher{MarkovPrefetcherConfig(), /*AssignedTag=*/0};

  void onMiss(memsim::Addr Addr) { Prefetcher.onMiss(miss(Addr), Memory); }
};

TEST_F(MarkovTest, LearnsDigramAndPrefetches) {
  // Miss sequence A, B teaches A -> B; the next miss on A prefetches B.
  onMiss(0x1000);
  onMiss(0x5000);
  EXPECT_EQ(Prefetcher.trains(), 1u);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  onMiss(0x1000);
  EXPECT_EQ(Prefetcher.issued(), 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
}

TEST_F(MarkovTest, SuccessorSlotsAreBounded) {
  // A followed by three different blocks: only the most recent
  // SuccessorsPerNode (2) survive.
  for (memsim::Addr B : {0x5000, 0x6000, 0x7000}) {
    onMiss(0x1000);
    onMiss(B);
  }
  onMiss(0x1000);
  // Intermediate A-misses predicted {5}, then {6,5}; the final one
  // predicts {7,6}: 1 + 2 + 2 prefetches, never more than 2 per miss.
  EXPECT_EQ(Prefetcher.issued(), 5u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x7000)); // most recent always kept
}

TEST_F(MarkovTest, RepeatedMissOfSameBlockIsNotATransition) {
  onMiss(0x1000);
  onMiss(0x1000);
  EXPECT_EQ(Prefetcher.trains(), 0u);
}

TEST_F(MarkovTest, TableCapacityEvicts) {
  MarkovPrefetcherConfig Config;
  Config.MaxNodes = 4;
  MarkovPrefetcher Small(Config, /*AssignedTag=*/0);
  // Create 8 nodes; only 4 survive.
  for (memsim::Addr A = 0; A < 9; ++A)
    Small.onMiss(miss(0x1000 + A * 0x1000), Memory);
  EXPECT_LE(Small.nodeCount(), 4u);
}

TEST_F(MarkovTest, PrioritizedByRecency) {
  // A->B, then A->C: C is the more recent, listed first.
  onMiss(0x1000);
  onMiss(0x5000); // A->B
  onMiss(0x1000); // issues prefetch for B
  onMiss(0x6000); // A->C
  const uint64_t Before = Prefetcher.issued();
  onMiss(0x1000); // issues B and C
  EXPECT_EQ(Prefetcher.issued() - Before, 2u);
}

//===----------------------------------------------------------------------===//
// MarkovPrefetcher vs ReferenceMarkov (lockstep)
//===----------------------------------------------------------------------===//

/// Records the blocks a hierarchy fills, in completion order.
class FillLog : public memsim::PrefetchListener {
public:
  std::vector<memsim::Addr> Filled;

  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t,
                      memsim::MemoryHierarchy &) override {
    Filled.push_back(BlockAddr);
  }
  void onPrefetchUseful(memsim::Addr, uint32_t) override {}
  void onPrefetchLate(memsim::Addr, uint32_t) override {}
  void onPrefetchEvicted(memsim::Addr, uint32_t) override {}
};

/// One engine on its own small hierarchy.  Each miss runs on a fresh
/// machine and is then drained, so every prefetch it issues (distinct
/// successors of one node) fills, in issue order: the fill log is the
/// issued target list.
template <typename Engine> struct MarkovRig {
  Engine P;
  memsim::MemoryHierarchy Memory{memsim::CacheConfig{1024, 4, 32},
                                 memsim::CacheConfig{4096, 8, 32}};
  FillLog Log;

  explicit MarkovRig(const MarkovPrefetcherConfig &Cfg) : P(Cfg, 0) {
    Memory.setListener(&Log);
  }
  std::vector<memsim::Addr> onMiss(memsim::Addr Addr) {
    Memory.reset();
    Log.Filled.clear();
    const uint64_t Before = P.issued();
    P.onMiss(miss(Addr), Memory);
    Memory.tick(1000);
    EXPECT_EQ(Log.Filled.size(), P.issued() - Before);
    return Log.Filled;
  }
};

/// Drives the flat table and the reference through the same TraceGen
/// miss stream — with repeated blocks and occasional resets — and
/// requires the same issued targets in the same order, the same training
/// count and the same node count after every event.
void expectMarkovLockstep(const MarkovPrefetcherConfig &Cfg, uint64_t Seed) {
  MarkovRig<MarkovPrefetcher> Flat(Cfg);
  MarkovRig<hds::testing::ReferenceMarkov> Ref(Cfg);
  Rng Ops(Seed * 0x9E3779B97F4A7C15ull + 7);
  uint64_t Block = 0;
  uint64_t Step = 0;
  for (uint32_t Symbol : hds::testing::generateTrace(Seed)) {
    ++Step;
    if (Ops.nextBelow(200) == 0) {
      Flat.P.reset();
      Ref.P.reset();
    }
    if (Ops.nextBelow(8) != 0) // else: the same block misses again
      Block = Symbol;
    const memsim::Addr Addr = Block * 32 + Ops.nextBelow(32);
    ASSERT_EQ(Flat.onMiss(Addr), Ref.onMiss(Addr))
        << "seed " << Seed << " step " << Step;
    ASSERT_EQ(Flat.P.trains(), Ref.P.trains())
        << "seed " << Seed << " step " << Step;
    ASSERT_EQ(Flat.P.nodeCount(), Ref.P.nodeCount())
        << "seed " << Seed << " step " << Step;
  }
}

TEST(MarkovLockstepTest, MatchesReferenceWithEviction) {
  for (uint32_t MaxNodes : {4u, 64u})
    for (uint32_t Successors = 1; Successors <= 4; ++Successors)
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        MarkovPrefetcherConfig Cfg;
        Cfg.MaxNodes = MaxNodes;
        Cfg.SuccessorsPerNode = Successors;
        expectMarkovLockstep(Cfg, Seed);
      }
}

TEST(MarkovLockstepTest, MatchesReferenceWithDefaultCapacity) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed)
    expectMarkovLockstep(MarkovPrefetcherConfig(), Seed);
}

TEST(MarkovLockstepTest, ZeroSuccessorsAndZeroNodesMatchReference) {
  // Edge knobs keep their old meaning: no successor slots (nodes train
  // but never issue) and MaxNodes 0 (one node, always evicted).
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    MarkovPrefetcherConfig NoSuccessors;
    NoSuccessors.SuccessorsPerNode = 0;
    expectMarkovLockstep(NoSuccessors, Seed);
    MarkovPrefetcherConfig NoNodes;
    NoNodes.MaxNodes = 0;
    expectMarkovLockstep(NoNodes, Seed);
  }
}

//===----------------------------------------------------------------------===//
// StreamPrefetcher
//===----------------------------------------------------------------------===//

class StreamTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  StreamPrefetcher Prefetcher{StreamPrefetcherConfig(), /*AssignedTag=*/0};

  void onMiss(memsim::Addr Addr) { Prefetcher.onMiss(miss(Addr), Memory); }
};

TEST_F(StreamTest, AscendingMissRunIssuesAhead) {
  // Blocks are 32 bytes: three consecutive-block misses reach the
  // confidence threshold (2) and run Degree (4) blocks ahead.
  onMiss(0x1000);
  onMiss(0x1020);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  onMiss(0x1040);
  EXPECT_EQ(Prefetcher.issued(), 4u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x1060));
  EXPECT_TRUE(Memory.l1().contains(0x10C0));
}

TEST_F(StreamTest, DescendingRunDetected) {
  // Stays inside one 4 KiB region: the detector is region-indexed.
  onMiss(0x2FC0);
  onMiss(0x2FA0); // unit step against the default direction: flip
  onMiss(0x2F80); // conforming: confident
  EXPECT_EQ(Prefetcher.issued(), 4u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x2F60));
}

TEST_F(StreamTest, UnrelatedJumpInsideRegionResetsDetection) {
  onMiss(0x1000);
  onMiss(0x1020);
  onMiss(0x1040); // confident: issues 4
  const uint64_t AfterRun = Prefetcher.issued();
  onMiss(0x1800); // jump within the 4 KiB region: restart
  onMiss(0x1820); // conforming again, but confidence only 1
  EXPECT_EQ(Prefetcher.issued(), AfterRun);
}

TEST_F(StreamTest, BlindToHitsAndPcs) {
  // The detector trains on the miss stream only: plain accesses (the
  // base-class onAccess hook) never touch the table.
  Prefetcher.onAccess(hit(1, 0x1000), Memory);
  Prefetcher.onAccess(hit(1, 0x1020), Memory);
  Prefetcher.onAccess(hit(1, 0x1040), Memory);
  EXPECT_EQ(Prefetcher.trains(), 0u);
  EXPECT_EQ(Prefetcher.issued(), 0u);
}

//===----------------------------------------------------------------------===//
// PairTablePrefetcher
//===----------------------------------------------------------------------===//

class PairTableTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  PairTablePrefetcher Prefetcher{PairTableConfig(), /*AssignedTag=*/0};

  void onMiss(memsim::Addr Addr) { Prefetcher.onMiss(miss(Addr), Memory); }
};

TEST_F(PairTableTest, RepeatedPairReachesIssueThreshold) {
  // (A -> B) must repeat before it is trusted (IssueThreshold 2): the
  // first traversal trains, the second reinforces, the third predicts.
  onMiss(0x1000);
  onMiss(0x5000); // A->B at confidence 1
  onMiss(0x1000); // predict(A): below threshold
  EXPECT_EQ(Prefetcher.issued(), 0u);
  onMiss(0x5000); // A->B at confidence 2
  onMiss(0x1000); // predict(A): issues B
  EXPECT_EQ(Prefetcher.issued(), 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
}

TEST_F(PairTableTest, FillChainsOneStepDownTheChain) {
  // Train A->B and B->C to confidence >= 2, then simulate B's fill
  // landing: the chain hook prefetches C without a demand miss on B.
  for (int Round = 0; Round < 3; ++Round) {
    onMiss(0x1000);
    onMiss(0x5000);
    onMiss(0x9000);
  }
  const uint64_t Before = Prefetcher.issued();
  Prefetcher.onFill(0x5000, Memory);
  EXPECT_EQ(Prefetcher.issued() - Before, 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x9000));
}

TEST_F(PairTableTest, MetadataStaysStrictlyBounded) {
  // The eviction discipline keeps the table at Sets x Ways entries no
  // matter how many distinct pairs the miss stream produces.
  PairTableConfig Config;
  Config.Sets = 4;
  Config.Ways = 2;
  PairTablePrefetcher Small(Config, /*AssignedTag=*/0);
  EXPECT_EQ(Small.capacityEntries(), 8u);
  for (memsim::Addr A = 0; A < 200; ++A)
    Small.onMiss(miss(0x1000 + A * 0x1000), Memory);
  EXPECT_LE(Small.occupiedEntries(), Small.capacityEntries());
  EXPECT_GT(Small.trains(), 0u);
}

TEST_F(PairTableTest, NoisePairsMustOutvoteResidents) {
  // A full set only surrenders a way after the incumbent fully decays:
  // one traversal of a noise pair cannot displace a reinforced pair.
  for (int Round = 0; Round < 3; ++Round) {
    onMiss(0x1000);
    onMiss(0x5000); // reinforce A->B
  }
  // One traversal of a different successor for A: the reinforced pair
  // must survive it.
  onMiss(0x1000);
  onMiss(0x6000); // A->C noise, same set as A->B
  onMiss(0x1000); // predict(A): B still the confident successor
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
  // The noise successor sits below the issue threshold: never fetched.
  EXPECT_FALSE(Memory.l1().contains(0x6000));
}

/// Forwards completed fills to one pair table (as the prefetcher stack
/// does) and records the filled blocks in completion order.
class PairFillChain : public memsim::PrefetchListener {
public:
  explicit PairFillChain(PairTablePrefetcher &P) : Pair(P) {}
  std::vector<memsim::Addr> Filled;

  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t,
                      memsim::MemoryHierarchy &Hierarchy) override {
    Filled.push_back(BlockAddr);
    Pair.onFill(BlockAddr, Hierarchy);
  }
  void onPrefetchUseful(memsim::Addr, uint32_t) override {}
  void onPrefetchLate(memsim::Addr, uint32_t) override {}
  void onPrefetchEvicted(memsim::Addr, uint32_t) override {}

private:
  PairTablePrefetcher &Pair;
};

TEST_F(PairTableTest, FillLandingDuringIssueDoesNotDisturbTheRanking) {
  // A's successors rank B (confidence 3) then C (2).  X's rank Y1 (way 1,
  // confidence 3) before Y2 (way 0, confidence 2), so a chain step on X
  // ranks its ways in the opposite order to A's.
  const memsim::Addr A = 0x1000, B = 0x5000, C = 0x6000;
  const memsim::Addr X = 0x20000, Y1 = 0x31000, Y2 = 0x32000;
  PairFillChain Chain(Prefetcher);
  Memory.setListener(&Chain);
  Prefetcher.setIssueEnabled(false); // train without touching the caches
  for (memsim::Addr Step : {A, B, A, B, A, B, A, C, A, C, X, Y2, X, Y2, X,
                            Y1, X, Y1, X, Y1})
    onMiss(Step);
  Prefetcher.setIssueEnabled(true);

  // X's prefetch becomes due without a drain: a demand miss charges the
  // clock past its ready cycle, and the next drain runs inside the first
  // issue of predict(A), whose fill chain calls predict(X) re-entrantly.
  Memory.prefetchT0(X, /*ChargeIssueSlot=*/false, Prefetcher.tag());
  Memory.access(0x900000);
  const uint64_t Before = Prefetcher.issued();
  onMiss(A);
  // B and C from predict(A), Y1 from the nested chain step on X.  Y1
  // queues first: the drain that fills X runs before B is queued.
  EXPECT_EQ(Prefetcher.issued() - Before, 3u);
  Memory.tick(500);
  ASSERT_GE(Chain.Filled.size(), 4u);
  EXPECT_EQ(Chain.Filled[0], X);
  EXPECT_EQ(Chain.Filled[1], Y1);
  EXPECT_EQ(Chain.Filled[2], B);
  EXPECT_EQ(Chain.Filled[3], C);
  Memory.setListener(nullptr);
}

TEST(PairTableConfigTest, RejectsKnobsTheLayoutCannotHold) {
  auto Make = [](void (*Edit)(PairTableConfig &)) {
    PairTableConfig Cfg;
    Edit(Cfg);
    PairTablePrefetcher P(Cfg, /*AssignedTag=*/0);
  };
  EXPECT_THROW(Make([](PairTableConfig &C) { C.Ways = 0; }),
               std::invalid_argument);
  EXPECT_THROW(Make([](PairTableConfig &C) {
                 C.Ways = PairTablePrefetcher::MaxWays + 1;
               }),
               std::invalid_argument);
  EXPECT_THROW(Make([](PairTableConfig &C) { C.Sets = 0; }),
               std::invalid_argument);
  EXPECT_THROW(Make([](PairTableConfig &C) { C.MaxConfidence = 256; }),
               std::invalid_argument);
  EXPECT_NO_THROW(Make([](PairTableConfig &C) {
    C.Ways = PairTablePrefetcher::MaxWays;
    C.MaxConfidence = 255;
  }));
}

/// Builds a stack with \p K enabled and one knob set out of range by
/// \p Edit, and expects the constructor to refuse it with an error naming
/// \p Knob.  A zero-sized table would reach Prefetcher::tableIndex(Key, 0)
/// — a division by zero — on the first access; a region shift of 64 or
/// more would shift an address by its full width, which is undefined.
void expectKnobRejected(Prefetcher::Kind K, void (*Edit)(StackConfig &),
                        const char *Knob) {
  StackConfig Cfg;
  Cfg.Enabled.set(K, true);
  Edit(Cfg);
  try {
    PrefetcherStack Stack(Cfg);
    ADD_FAILURE() << "out-of-range " << Knob << " was accepted";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find(Knob), std::string::npos)
        << E.what();
  }
}

TEST(TableConfigTest, ZeroStrideTableIsRejected) {
  StridePrefetcherConfig Cfg;
  Cfg.TableEntries = 0;
  EXPECT_THROW({ StridePrefetcher P(Cfg, /*AssignedTag=*/0); },
               std::invalid_argument);
  expectKnobRejected(
      Prefetcher::Stride,
      [](StackConfig &C) { C.StrideCfg.TableEntries = 0; }, "TableEntries");
}

TEST(TableConfigTest, ZeroStreamTableIsRejected) {
  StreamPrefetcherConfig Cfg;
  Cfg.TableEntries = 0;
  EXPECT_THROW({ StreamPrefetcher P(Cfg, /*AssignedTag=*/0); },
               std::invalid_argument);
  expectKnobRejected(
      Prefetcher::Stream,
      [](StackConfig &C) { C.StreamCfg.TableEntries = 0; }, "TableEntries");
}

TEST(TableConfigTest, ZeroDuelRegionBucketsIsRejected) {
  expectKnobRejected(
      Prefetcher::Duel,
      [](StackConfig &C) { C.DuelCfg.RegionBuckets = 0; }, "RegionBuckets");
}

TEST(TableConfigTest, WideStreamRegionShiftIsRejected) {
  StreamPrefetcherConfig Cfg;
  Cfg.RegionShift = 64;
  EXPECT_THROW({ StreamPrefetcher P(Cfg, /*AssignedTag=*/0); },
               std::invalid_argument);
  Cfg.RegionShift = 63;
  EXPECT_NO_THROW({ StreamPrefetcher P(Cfg, /*AssignedTag=*/0); });
  expectKnobRejected(
      Prefetcher::Stream,
      [](StackConfig &C) { C.StreamCfg.RegionShift = 64; }, "RegionShift");
}

TEST(TableConfigTest, WideDuelRegionShiftIsRejected) {
  DuelConfig Cfg;
  Cfg.RegionShift = 64;
  std::vector<std::unique_ptr<Prefetcher>> Candidates;
  Candidates.push_back(std::make_unique<StridePrefetcher>(
      StridePrefetcherConfig(), /*AssignedTag=*/0));
  EXPECT_THROW(
      { DuelingSelector D(Cfg, /*AssignedTag=*/1, std::move(Candidates)); },
      std::invalid_argument);
  expectKnobRejected(
      Prefetcher::Duel,
      [](StackConfig &C) { C.DuelCfg.RegionShift = 64; }, "RegionShift");
}

TEST(PairTableConfigTest, WidestSetRanksEveryWay) {
  // MaxWays confident successors of A fill A's whole set (the reverse
  // pairs are keyed elsewhere): a degree-MaxWays prediction issues all
  // of them, most confident first.
  PairTableConfig Cfg;
  Cfg.Sets = 4096;
  Cfg.Ways = PairTablePrefetcher::MaxWays;
  Cfg.Degree = PairTablePrefetcher::MaxWays;
  Cfg.ChainOnFill = false;
  PairTablePrefetcher P(Cfg, /*AssignedTag=*/0);
  memsim::MemoryHierarchy Memory;
  FillLog Log;
  Memory.setListener(&Log);
  const memsim::Addr A = 0x100000;
  auto Successor = [](uint32_t I) { return 0x200000 + I * 0x1000; };
  P.setIssueEnabled(false);
  for (uint32_t I = 0; I < Cfg.Ways; ++I)
    for (int Round = 0; Round < (I == Cfg.Ways - 1 ? 3 : 2); ++Round) {
      P.onMiss(miss(A), Memory);
      P.onMiss(miss(Successor(I)), Memory);
    }
  P.setIssueEnabled(true);
  P.onMiss(miss(A), Memory);
  EXPECT_EQ(P.issued(), uint64_t{Cfg.Ways});
  Memory.tick(500);
  ASSERT_EQ(Log.Filled.size(), size_t{Cfg.Ways});
  EXPECT_EQ(Log.Filled[0], Successor(Cfg.Ways - 1)); // confidence 3
  EXPECT_EQ(Log.Filled[1], Successor(0));            // then way order
  Memory.setListener(nullptr);
}

//===----------------------------------------------------------------------===//
// DuelingSelector (unit level)
//===----------------------------------------------------------------------===//

namespace duel {

std::unique_ptr<DuelingSelector> makeSelector(const DuelConfig &Cfg) {
  std::vector<std::unique_ptr<Prefetcher>> Candidates;
  Candidates.push_back(std::make_unique<StridePrefetcher>(
      StridePrefetcherConfig(), /*AssignedTag=*/0));
  Candidates.push_back(std::make_unique<StreamPrefetcher>(
      StreamPrefetcherConfig(), /*AssignedTag=*/1));
  return std::make_unique<DuelingSelector>(Cfg, /*AssignedTag=*/2,
                                           std::move(Candidates));
}

} // namespace duel

TEST(DuelingSelectorTest, ConvergesAfterBoundedEpochs) {
  DuelConfig Cfg;
  Cfg.RegionBuckets = 4;
  Cfg.EpochAccesses = 4;
  Cfg.SampleRounds = 1;
  memsim::MemoryHierarchy Memory;
  auto Selector = duel::makeSelector(Cfg);
  EXPECT_EQ(Selector->convergenceEpochs(), 2u);

  // Epoch 0 (stride sampled): a confirmed stride issues in bucket 0.
  for (memsim::Addr A : {0x100, 0x140, 0x180, 0x1C0})
    Selector->onAccess(hit(1, A), Memory);
  // Simulated hierarchy feedback: two of those prefetches turned useful.
  Selector->noteUseful(0, 0x200);
  Selector->noteUseful(0, 0x240);
  // Epoch 1 (stream sampled): hits only, so the stream engine is idle.
  for (memsim::Addr A : {0x100, 0x140, 0x180, 0x1C0})
    Selector->onAccess(hit(1, A), Memory);
  EXPECT_FALSE(Selector->converged());

  // The first access of epoch 2 freezes the decision.
  Selector->onAccess(hit(1, 0x100), Memory);
  ASSERT_TRUE(Selector->converged());
  // Bucket 0 saw stride issues with positive score: stride wins it.
  EXPECT_EQ(Selector->winnerFor(0x100), 0u);
  // Buckets with no observations fall back to the global winner.
  EXPECT_EQ(Selector->globalWinner(), 0u);
  EXPECT_EQ(Selector->winnerFor(0x3000), 0u);
  // The losing candidate never got an issue through its gate.
  EXPECT_EQ(Selector->candidates()[1]->issued(), 0u);
}

TEST(DuelingSelectorTest, FeedbackAfterConvergenceIsFrozen) {
  DuelConfig Cfg;
  Cfg.RegionBuckets = 4;
  Cfg.EpochAccesses = 2;
  Cfg.SampleRounds = 1;
  memsim::MemoryHierarchy Memory;
  auto Selector = duel::makeSelector(Cfg);
  for (int I = 0; I <= 4; ++I)
    Selector->onAccess(hit(1, 0x100 + static_cast<memsim::Addr>(I) * 0x40),
                       Memory);
  ASSERT_TRUE(Selector->converged());
  const size_t Winner = Selector->globalWinner();
  // Late feedback for the loser must not flip the frozen decision.
  Selector->noteUseful(1, 0x100);
  Selector->noteUseful(1, 0x100);
  EXPECT_EQ(Selector->globalWinner(), Winner);
}

TEST(DuelingSelectorTest, StatsReportSelectorAndCandidates) {
  DuelConfig Cfg;
  Cfg.RegionBuckets = 4;
  Cfg.EpochAccesses = 2;
  Cfg.SampleRounds = 1;
  memsim::MemoryHierarchy Memory;
  auto Selector = duel::makeSelector(Cfg);
  for (int I = 0; I <= 4; ++I)
    Selector->onAccess(hit(1, 0x100 + static_cast<memsim::Addr>(I) * 0x40),
                       Memory);
  ASSERT_TRUE(Selector->converged());
  std::vector<obs::PrefetcherStats> Rows;
  Selector->appendStats(Rows);
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_EQ(Rows[0].Kind, static_cast<uint64_t>(Prefetcher::Duel));
  EXPECT_EQ(Rows[1].Kind, static_cast<uint64_t>(Prefetcher::Stride));
  EXPECT_EQ(Rows[2].Kind, static_cast<uint64_t>(Prefetcher::Stream));
  EXPECT_EQ(Rows[0].SampledEpochs, 2u);
  // Every bucket has a frozen owner: the won-region counts sum to the
  // bucket count.
  EXPECT_EQ(Rows[1].SelectedRegions + Rows[2].SelectedRegions, 4u);
}

TEST(DuelingSelectorTest, RedundantIssuesDoNotLowerTheScore) {
  // Stride is sampled first and runs a confirmed stride over blocks that
  // are already resident: 7 of its 8 issues are redundant and 1 queues a
  // fill, which turns useful.  Scored on issues (4*1 - 8) it would lose
  // the region to the idle stream engine; scored on placed prefetches
  // (4*1 - 1) it wins.
  DuelConfig Cfg;
  Cfg.RegionBuckets = 4;
  Cfg.EpochAccesses = 6;
  Cfg.SampleRounds = 1;
  memsim::MemoryHierarchy Memory;
  for (memsim::Addr A = 0x1C0; A <= 0x280; A += 0x40)
    Memory.access(A);
  auto Selector = duel::makeSelector(Cfg);

  // Epoch 0 (stride sampled): accesses 3..6 issue two targets each.
  for (memsim::Addr A = 0x100; A <= 0x240; A += 0x40)
    Selector->onAccess(hit(1, A), Memory);
  const Prefetcher &Stride = *Selector->candidates()[0];
  ASSERT_EQ(Stride.issued(), 8u);
  ASSERT_EQ(Stride.placed(), 1u);
  Selector->noteUseful(0, 0x2C0);
  // Epoch 1 (stream sampled): hits only, so the stream engine is idle.
  for (memsim::Addr A = 0x100; A <= 0x240; A += 0x40)
    Selector->onAccess(hit(1, A), Memory);

  Selector->onAccess(hit(1, 0x100), Memory);
  ASSERT_TRUE(Selector->converged());
  EXPECT_EQ(Selector->winnerFor(0x100), 0u);
}

TEST(DuelingSelectorTest, FillChainsOnlyWhereItsEngineWonTheRegion) {
  // A converged stride-vs-pair duel: pair wins region R1, stride wins
  // R2.  A pair fill chains by the region it lands in, whichever region
  // the last demand access left the gates set for.
  StackConfig Cfg;
  Cfg.Enabled.set(Prefetcher::Duel, true);
  Cfg.Enabled.set(Prefetcher::Stride, true);
  Cfg.Enabled.set(Prefetcher::PairTable, true);
  Cfg.DuelCfg.RegionBuckets = 4;
  Cfg.DuelCfg.EpochAccesses = 8;
  Cfg.DuelCfg.SampleRounds = 1;
  PrefetcherStack Stack(Cfg);
  memsim::MemoryHierarchy Memory;
  Prefetcher *Stride = Stack.byKind(Prefetcher::Stride);
  Prefetcher *Pair = Stack.byKind(Prefetcher::PairTable);
  ASSERT_NE(Stride, nullptr);
  ASSERT_NE(Pair, nullptr);

  // Regions are 4 KiB; R1 lies in bucket 0, R2 in bucket 1, and the
  // padding address in bucket 2.
  const memsim::Addr X = 0x10000, Y = 0x10040;   // R1
  const memsim::Addr X2 = 0x21800, Y2 = 0x21840; // R2
  const memsim::Addr Pad = 0x32000;
  uint64_t Accesses = 0;
  auto Access = [&](vulcan::SiteId Site, memsim::Addr Addr, bool Miss) {
    Stack.onAccess(Site, Addr, Miss ? 100 : 1, Miss, Memory);
    ++Accesses;
  };
  auto FinishEpoch = [&]() {
    while (Accesses % Cfg.DuelCfg.EpochAccesses != 0)
      Access(9, Pad, false);
  };

  // Epoch 0 (stride sampled): a confirmed stride in R2 places prefetches
  // that turn useful.
  for (memsim::Addr A = 0x21000; A <= 0x210C0; A += 0x40)
    Access(1, A, false);
  FinishEpoch();
  Stack.onPrefetchUseful(0x210C0, Stride->tag());
  Stack.onPrefetchUseful(0x21100, Stride->tag());
  // Epoch 1 (pair sampled): X->Y reaches the issue threshold in R1 and
  // its prefetch turns useful.
  for (memsim::Addr A : {X, Y, X, Y, X})
    Access(2, A, true);
  FinishEpoch();
  Stack.onPrefetchUseful(Y, Pair->tag());
  Stack.onPrefetchUseful(Y, Pair->tag());
  Access(9, Pad, false); // freezes the decision
  DuelingSelector *Selector = Stack.selector();
  ASSERT_NE(Selector, nullptr);
  ASSERT_TRUE(Selector->converged());
  ASSERT_EQ(Selector->candidates()[Selector->winnerFor(X)].get(), Pair);
  ASSERT_EQ(Selector->candidates()[Selector->winnerFor(X2)].get(), Stride);
  // Pair trains X2->Y2 in R2 (it trains everywhere, issuing or not).
  for (memsim::Addr A : {X2, Y2, X2, Y2, X2})
    Access(2, A, true);

  // The last demand access fell in R2: pair's demand gate is shut, yet
  // X's fill lands in R1, which pair won, so it chains to Y.
  Access(3, 0x21F00, false);
  ASSERT_FALSE(Pair->issueEnabled());
  uint64_t Before = Pair->issued();
  Stack.onPrefetchFill(X, Pair->tag(), Memory);
  EXPECT_EQ(Pair->issued() - Before, 1u);
  EXPECT_FALSE(Pair->issueEnabled());

  // The other way round: the demand gate is open (R1) but X2's fill
  // lands in R2, which stride won, so it does not chain.
  Access(3, 0x10F00, false);
  ASSERT_TRUE(Pair->issueEnabled());
  Before = Pair->issued();
  Stack.onPrefetchFill(X2, Pair->tag(), Memory);
  EXPECT_EQ(Pair->issued(), Before);
  EXPECT_TRUE(Pair->issueEnabled());
  // Control: with its gate open, pair would have chained X2 -> Y2.
  Pair->onFill(X2, Memory);
  EXPECT_EQ(Pair->issued() - Before, 1u);
}

//===----------------------------------------------------------------------===//
// Runtime integration (the prefetcher stack)
//===----------------------------------------------------------------------===//

TEST(RuntimePrefetcherTest, StrideCoversSequentialScan) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("scan");
  const auto S = Rt.declareSite(P);
  const memsim::Addr Base = Rt.allocate(1 << 20, 64);

  Runtime::ProcedureScope Scope(Rt, P);
  for (uint64_t I = 0; I < 2000; ++I) {
    Rt.load(S, Base + I * 32);
    Rt.compute(4);
  }
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  Prefetcher *Stride = Rt.prefetcherStack()->byKind(Prefetcher::Stride);
  ASSERT_NE(Stride, nullptr);
  EXPECT_GT(Stride->issued(), 1000u);
  // Most of the scan is covered: far fewer full-latency misses than refs.
  EXPECT_GT(Rt.memory().l1().stats().UsefulPrefetches +
                Rt.memory().stats().PartialHits,
            1000u);
}

TEST(RuntimePrefetcherTest, DisabledStackIsNull) {
  OptimizerConfig Config;
  Runtime Rt(Config);
  EXPECT_EQ(Rt.prefetcherStack(), nullptr);
  EXPECT_TRUE(Rt.prefetcherStats().empty());
}

TEST(RuntimePrefetcherTest, MarkovObservesOnlyMisses) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Markov, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("p");
  const auto S = Rt.declareSite(P);
  const memsim::Addr A = Rt.allocate(64, 64);
  const memsim::Addr B = Rt.allocate(64, 64);
  const memsim::Addr C = Rt.allocate(64, 64);

  Runtime::ProcedureScope Scope(Rt, P);
  Rt.load(S, A); // miss
  Rt.load(S, B); // miss: A -> B
  Rt.load(S, A); // hit: must not be observed
  Rt.load(S, C); // miss: B -> C (an observed hit would record B -> A)
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  Prefetcher *Markov = Rt.prefetcherStack()->byKind(Prefetcher::Markov);
  ASSERT_NE(Markov, nullptr);
  EXPECT_EQ(Markov->trains(), 2u);
}

TEST(RuntimePrefetcherTest, FullRosterComposesWithDenseTags) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Config.Prefetchers.Enabled.set(Prefetcher::Markov, true);
  Config.Prefetchers.Enabled.set(Prefetcher::Stream, true);
  Config.Prefetchers.Enabled.set(Prefetcher::PairTable, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("scan");
  const auto S = Rt.declareSite(P);
  const memsim::Addr Base = Rt.allocate(1 << 16, 64);
  Runtime::ProcedureScope Scope(Rt, P);
  for (uint64_t I = 0; I < 500; ++I)
    Rt.load(S, Base + I * 32);

  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  EXPECT_EQ(Rt.prefetcherStack()->tagCount(), 4u);
  const std::vector<obs::PrefetcherStats> Rows = Rt.prefetcherStats();
  ASSERT_EQ(Rows.size(), 4u);
  EXPECT_EQ(Rows[0].Kind, static_cast<uint64_t>(Prefetcher::Stride));
  EXPECT_EQ(Rows[1].Kind, static_cast<uint64_t>(Prefetcher::Markov));
  EXPECT_EQ(Rows[2].Kind, static_cast<uint64_t>(Prefetcher::Stream));
  EXPECT_EQ(Rows[3].Kind, static_cast<uint64_t>(Prefetcher::PairTable));
  for (uint64_t Tag = 0; Tag < 4; ++Tag)
    EXPECT_EQ(Rows[Tag].Tag, Tag);
  // The scan is stride territory: classification feedback joined from
  // the hierarchy lands on the stride row.
  EXPECT_GT(Rows[0].Issued, 0u);
  EXPECT_GT(Rows[0].Useful + Rows[0].Late, 0u);
}

TEST(RuntimePrefetcherTest, DuelConvergesToClearlyBestCandidate) {
  // The selector-convergence acceptance test: duel a stride engine
  // against a Markov engine on a long single-pass sequential scan.  The
  // scan never repeats a miss digram, so Markov cannot issue anything;
  // the stride engine covers the scan.  The duel must converge to the
  // stride candidate within its bounded epoch budget.
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Duel, true);
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Config.Prefetchers.Enabled.set(Prefetcher::Markov, true);
  Config.Prefetchers.DuelCfg.EpochAccesses = 512;
  Config.Prefetchers.DuelCfg.SampleRounds = 2;
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("scan");
  const auto S = Rt.declareSite(P);
  const memsim::Addr Base = Rt.allocate(1 << 20, 64);

  Runtime::ProcedureScope Scope(Rt, P);
  for (uint64_t I = 0; I < 8000; ++I) {
    Rt.load(S, Base + I * 32);
    // Enough compute per access that a degree-2 stride prefetch (two
    // accesses ahead) beats the 100-cycle memory latency: the stride
    // engine's prefetches classify useful, not just late.
    Rt.compute(64);
  }

  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  DuelingSelector *Selector = Rt.prefetcherStack()->selector();
  ASSERT_NE(Selector, nullptr);
  // Bounded convergence: SampleRounds * candidates = 4 epochs, well
  // inside the 8000-access run.
  EXPECT_EQ(Selector->convergenceEpochs(), 4u);
  ASSERT_TRUE(Selector->converged());
  EXPECT_EQ(Selector->candidates()[Selector->globalWinner()]->kind(),
            Prefetcher::Stride);
  // Every touched region resolves to the stride engine too (Markov
  // never issued, so no bucket prefers it).
  EXPECT_EQ(Selector->candidates()[Selector->winnerFor(Base)]->kind(),
            Prefetcher::Stride);

  // The stats report carries one selector row plus one per candidate.
  const std::vector<obs::PrefetcherStats> Rows = Rt.prefetcherStats();
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_EQ(Rows[0].Kind, static_cast<uint64_t>(Prefetcher::Duel));
  EXPECT_EQ(Rows[0].SampledEpochs, 4u);
  EXPECT_GT(Rows[0].SelectedRegions, 0u);
}

TEST(RuntimePrefetcherTest, HotStreamTagsStartAboveStackTags) {
  // With prefetchers enabled in a prefetching mode, hot-data-stream
  // prefetches must classify under tags above the stack's reserved
  // range, so per-engine attribution never collides.
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 6000);
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  ASSERT_EQ(Rt.prefetcherStack()->tagCount(), 1u);
  EXPECT_GT(Rt.stats().PrefetchesRequested, 0u);
  // Stream-tag buckets beyond the stack's range belong to hot streams.
  EXPECT_GT(Rt.memory().streamClasses().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Static-scheme pinning
//===----------------------------------------------------------------------===//

TEST(PinTest, PinnedRunKeepsFirstOptimizationForever) {
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.PinFirstOptimization = true;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 6000);

  // Exactly one optimization cycle was recorded; the engine stayed
  // installed and the image patched.
  EXPECT_EQ(Rt.stats().Cycles.size(), 1u);
  EXPECT_TRUE(Rt.engine().installed());
  EXPECT_TRUE(Rt.optimizer().pinned());
  EXPECT_EQ(Rt.image().deoptimizations(), 0u);
  EXPECT_GT(Rt.stats().CompleteMatches, 0u);
}

TEST(PinTest, PinnedRunStopsFrameworkCosts) {
  // After pinning, checks stop costing and tracing stops: total checks
  // executed must be far below an unpinned run's.
  auto RunChecks = [](bool Pin) {
    OptimizerConfig Config;
    Config.Mode = RunMode::DynamicPrefetch;
    Config.PinFirstOptimization = Pin;
    Config.Tracing = {1'481, 30, 30, 120, true};
    Runtime Rt(Config);
    auto W = workloads::createWorkload("vpr");
    W->setup(Rt);
    W->run(Rt, 6000);
    return Rt.stats().ChecksExecuted;
  };
  EXPECT_LT(RunChecks(true), RunChecks(false) / 2);
}

TEST(PinTest, TwophaseWorkloadChangesItsStreams) {
  // The phase-change program: a pinned run matches only during the
  // first phase; a dynamic run keeps matching.
  auto RunMatches = [](bool Pin) {
    OptimizerConfig Config;
    Config.Mode = RunMode::DynamicPrefetch;
    Config.PinFirstOptimization = Pin;
    Config.Tracing = {1'481, 30, 30, 120, true};
    Runtime Rt(Config);
    auto W = workloads::createWorkload("twophase");
    W->setup(Rt);
    W->run(Rt, 12000);
    return Rt.stats().CompleteMatches;
  };
  const uint64_t Static = RunMatches(true);
  const uint64_t Dynamic = RunMatches(false);
  EXPECT_GT(Dynamic, 2 * Static);
}

} // namespace

//===----------------------------------------------------------------------===//
// Adaptive hibernation (optimizer side)
//===----------------------------------------------------------------------===//

namespace {

OptimizerConfig adaptiveConfig() {
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Config.AdaptiveHibernation = true;
  return Config;
}

TEST(AdaptiveHibernationTest, StableBehaviourStretchesHibernation) {
  Runtime Rt(adaptiveConfig());
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 16000);
  const RunStats &Stats = Rt.stats();
  ASSERT_GE(Stats.Cycles.size(), 2u);
  // Each stable cycle doubles the hibernation length (bounded).
  EXPECT_GT(Stats.Cycles.back().NextHibernationPeriods,
            Stats.Cycles.front().NextHibernationPeriods);
}

TEST(AdaptiveHibernationTest, BoundedByMaxFactor) {
  OptimizerConfig Config = adaptiveConfig();
  Config.AdaptiveHibernationMaxFactor = 2;
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 24000);
  for (const CycleStats &Cycle : Rt.stats().Cycles)
    EXPECT_LE(Cycle.NextHibernationPeriods, 2 * Config.Tracing.NHibernate);
}

TEST(AdaptiveHibernationTest, PhaseChangeResetsHibernation) {
  Runtime Rt(adaptiveConfig());
  auto W = workloads::createWorkload("twophase");
  W->setup(Rt);
  W->run(Rt, 24000);
  const RunStats &Stats = Rt.stats();
  ASSERT_GE(Stats.Cycles.size(), 3u);
  // At least one later cycle falls back to the base length (the phase
  // transition changed the detected stream set).
  bool SawReset = false;
  for (size_t C = 1; C < Stats.Cycles.size(); ++C)
    SawReset |= Stats.Cycles[C].NextHibernationPeriods ==
                Rt.config().Tracing.NHibernate;
  EXPECT_TRUE(SawReset);
}

TEST(AdaptiveHibernationTest, OffByDefault) {
  OptimizerConfig Config;
  EXPECT_FALSE(Config.AdaptiveHibernation);
}

} // namespace
