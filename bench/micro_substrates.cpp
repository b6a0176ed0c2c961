//===- bench/micro_substrates.cpp - Substrate throughput microbenches ------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// google-benchmark microbenchmarks for the building blocks: Sequitur
// append throughput, hot-stream analysis, DFSM construction and stepping,
// the cache/hierarchy models, and the prefetcher-zoo engines over one
// recorded demand stream.  Not a paper experiment — engineering sanity
// for the substrates everything else stands on.
//
//===----------------------------------------------------------------------===//

#include "analysis/FastAnalyzer.h"
#include "analysis/PreciseAnalyzer.h"
#include "core/Runtime.h"
#include "dfsm/PrefixDfsm.h"
#include "memsim/MemoryHierarchy.h"
#include "prefetch/MarkovPrefetcher.h"
#include "prefetch/PairTablePrefetcher.h"
#include "prefetch/PrefetcherStack.h"
#include "sequitur/Grammar.h"
#include "support/Rng.h"
#include "testing/ReferenceMarkov.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace hds;

namespace {

std::vector<uint32_t> motifTrace(size_t Length, uint32_t Motifs,
                                 uint32_t MotifLen, uint64_t Seed) {
  Rng Rand(Seed);
  std::vector<uint32_t> Trace;
  Trace.reserve(Length + MotifLen);
  uint32_t Cold = 1 << 20;
  while (Trace.size() < Length) {
    if (Rand.nextBool(0.7)) {
      const uint32_t M = static_cast<uint32_t>(Rand.nextBelow(Motifs));
      for (uint32_t J = 0; J < MotifLen; ++J)
        Trace.push_back(1000 + M * 64 + J);
    } else {
      Trace.push_back(Cold++);
    }
  }
  Trace.resize(Length);
  return Trace;
}

void BM_SequiturAppendRandom(benchmark::State &State) {
  Rng Rand(7);
  std::vector<uint32_t> Input(16384);
  for (uint32_t &T : Input)
    T = static_cast<uint32_t>(Rand.nextBelow(64));
  for (auto _ : State) {
    sequitur::Grammar G;
    for (uint32_t T : Input)
      G.append(T);
    benchmark::DoNotOptimize(G.ruleCount());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Input.size()));
}
BENCHMARK(BM_SequiturAppendRandom);

void BM_SequiturAppendRepetitive(benchmark::State &State) {
  const std::vector<uint32_t> Input = motifTrace(16384, 16, 12, 9);
  for (auto _ : State) {
    sequitur::Grammar G;
    for (uint32_t T : Input)
      G.append(T);
    benchmark::DoNotOptimize(G.totalRhsSymbols());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Input.size()));
}
BENCHMARK(BM_SequiturAppendRepetitive);

void BM_FastAnalysis(benchmark::State &State) {
  const std::vector<uint32_t> Input = motifTrace(32768, 24, 14, 11);
  sequitur::Grammar G;
  for (uint32_t T : Input)
    G.append(T);
  const sequitur::GrammarSnapshot Snapshot = G.snapshot();
  analysis::AnalysisConfig Config{8, 60, Input.size() / 100};
  for (auto _ : State) {
    auto Result = analysis::analyzeHotStreams(Snapshot, Config);
    benchmark::DoNotOptimize(Result.Streams.size());
  }
}
BENCHMARK(BM_FastAnalysis);

void BM_PreciseAnalysis(benchmark::State &State) {
  const std::vector<uint32_t> Input = motifTrace(8192, 24, 14, 13);
  analysis::AnalysisConfig Config{8, 60, Input.size() / 100};
  for (auto _ : State) {
    auto Result = analysis::analyzeHotStreamsPrecisely(Input, Config);
    benchmark::DoNotOptimize(Result.Streams.size());
  }
}
BENCHMARK(BM_PreciseAnalysis);

std::vector<std::vector<uint32_t>> syntheticStreams(uint32_t N,
                                                    uint32_t Len) {
  std::vector<std::vector<uint32_t>> Streams;
  for (uint32_t I = 0; I < N; ++I) {
    std::vector<uint32_t> S;
    for (uint32_t J = 0; J < Len; ++J)
      S.push_back(I * Len + J);
    Streams.push_back(std::move(S));
  }
  return Streams;
}

void BM_DfsmConstruction(benchmark::State &State) {
  const auto Streams =
      syntheticStreams(static_cast<uint32_t>(State.range(0)), 16);
  dfsm::DfsmConfig Config;
  for (auto _ : State) {
    dfsm::PrefixDfsm Machine(Streams, Config);
    benchmark::DoNotOptimize(Machine.stateCount());
  }
}
BENCHMARK(BM_DfsmConstruction)->Arg(8)->Arg(32)->Arg(64);

void BM_DfsmStep(benchmark::State &State) {
  const auto Streams = syntheticStreams(32, 16);
  dfsm::DfsmConfig Config;
  dfsm::PrefixDfsm Machine(Streams, Config);
  Rng Rand(3);
  std::vector<uint32_t> Symbols(4096);
  for (uint32_t &S : Symbols)
    S = static_cast<uint32_t>(Rand.nextBelow(32 * 16));
  dfsm::StateId Current = 0;
  for (auto _ : State) {
    for (uint32_t S : Symbols)
      Current = Machine.step(Current, S);
    benchmark::DoNotOptimize(Current);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Symbols.size()));
}
BENCHMARK(BM_DfsmStep);

void BM_CacheAccess(benchmark::State &State) {
  memsim::Cache Cache(memsim::CacheConfig::pentiumIIIL1());
  Rng Rand(5);
  std::vector<memsim::Addr> Addrs(4096);
  for (memsim::Addr &A : Addrs)
    A = Rand.nextBelow(1 << 16) * 32;
  for (auto _ : State) {
    for (memsim::Addr A : Addrs)
      if (!Cache.access(A))
        Cache.fill(A, false);
    benchmark::DoNotOptimize(Cache.validLineCount());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Addrs.size()));
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State &State) {
  memsim::MemoryHierarchy Memory;
  Rng Rand(6);
  std::vector<memsim::Addr> Addrs(4096);
  for (memsim::Addr &A : Addrs)
    A = Rand.nextBelow(1 << 18) * 32;
  for (auto _ : State) {
    for (memsim::Addr A : Addrs)
      Memory.access(A);
    benchmark::DoNotOptimize(Memory.now());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Addrs.size()));
}
BENCHMARK(BM_HierarchyAccess);

void BM_HierarchyPrefetch(benchmark::State &State) {
  memsim::MemoryHierarchy Memory;
  Rng Rand(8);
  for (auto _ : State) {
    const memsim::Addr Base = Rand.nextBelow(1 << 18) * 32;
    for (int I = 0; I < 16; ++I)
      Memory.prefetchT0(Base + static_cast<memsim::Addr>(I) * 32);
    Memory.tick(200);
    benchmark::DoNotOptimize(Memory.stats().PrefetchesIssued);
  }
}
BENCHMARK(BM_HierarchyPrefetch);

//===----------------------------------------------------------------------===//
// Prefetcher-zoo engines.  Each runs over the same recorded stream: vpr's
// demand accesses in Original mode, with the L1 hit/miss outcome of a
// machine without prefetching.  A fresh engine and hierarchy per
// iteration; the clock advances by each access's recorded latency, so
// issued prefetches fill and leave the in-flight queue.
//===----------------------------------------------------------------------===//

/// Captures the unfiltered demand stream of a run.
class StreamRecorder : public core::RuntimeObserver {
public:
  std::vector<prefetch::AccessEvent> Events;

  void onAccess(vulcan::SiteId Site, memsim::Addr Addr, bool) override {
    Events.push_back(prefetch::AccessEvent{Site, Addr, 0, false});
  }
};

const std::vector<prefetch::AccessEvent> &recordedAccesses() {
  static const std::vector<prefetch::AccessEvent> Stream = [] {
    core::OptimizerConfig Config;
    Config.Mode = core::RunMode::Original;
    core::Runtime Rt(Config);
    StreamRecorder Recorder;
    Rt.setObserver(&Recorder);
    std::unique_ptr<workloads::Workload> Vpr =
        workloads::createWorkload("vpr");
    Vpr->setup(Rt);
    Vpr->run(Rt, Vpr->defaultIterations() / 50);
    Rt.setObserver(nullptr);
    // Without prefetches, cache contents depend only on the access
    // sequence, so a replay yields the run's hit/miss outcomes.
    memsim::MemoryHierarchy Replay;
    for (prefetch::AccessEvent &E : Recorder.Events) {
      E.Latency = Replay.access(E.Addr);
      E.L1Miss = E.Latency > memsim::LatencyConfig().L1HitCycles;
    }
    return Recorder.Events;
  }();
  return Stream;
}

const std::vector<prefetch::AccessEvent> &recordedMisses() {
  static const std::vector<prefetch::AccessEvent> Misses = [] {
    std::vector<prefetch::AccessEvent> Out;
    for (const prefetch::AccessEvent &E : recordedAccesses())
      if (E.L1Miss)
        Out.push_back(E);
    return Out;
  }();
  return Misses;
}

template <typename MarkovT> void BM_MarkovOnMiss(benchmark::State &State) {
  const std::vector<prefetch::AccessEvent> &Misses = recordedMisses();
  for (auto _ : State) {
    memsim::MemoryHierarchy Memory;
    MarkovT Engine(prefetch::MarkovPrefetcherConfig(), /*AssignedTag=*/0);
    for (const prefetch::AccessEvent &E : Misses) {
      Engine.onMiss(E, Memory);
      Memory.tick(E.Latency);
    }
    benchmark::DoNotOptimize(Engine.issued());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Misses.size()));
}
BENCHMARK_TEMPLATE(BM_MarkovOnMiss, prefetch::MarkovPrefetcher);
BENCHMARK_TEMPLATE(BM_MarkovOnMiss, hds::testing::ReferenceMarkov);

/// Routes fills back to one pair table, so completed prefetches chain as
/// they do under the runtime's prefetcher stack.
class PairChain : public memsim::PrefetchListener {
public:
  explicit PairChain(prefetch::PairTablePrefetcher &P) : Pair(P) {}
  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t,
                      memsim::MemoryHierarchy &Hierarchy) override {
    Pair.onFill(BlockAddr, Hierarchy);
  }
  void onPrefetchUseful(memsim::Addr, uint32_t) override {}
  void onPrefetchLate(memsim::Addr, uint32_t) override {}
  void onPrefetchEvicted(memsim::Addr, uint32_t) override {}

private:
  prefetch::PairTablePrefetcher &Pair;
};

void BM_PairOnMiss(benchmark::State &State) {
  const std::vector<prefetch::AccessEvent> &Misses = recordedMisses();
  for (auto _ : State) {
    memsim::MemoryHierarchy Memory;
    prefetch::PairTablePrefetcher Engine(prefetch::PairTableConfig(),
                                         /*AssignedTag=*/0);
    PairChain Chain(Engine);
    Memory.setListener(&Chain);
    for (const prefetch::AccessEvent &E : Misses) {
      Engine.onMiss(E, Memory);
      Memory.tick(E.Latency);
    }
    benchmark::DoNotOptimize(Engine.issued());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Misses.size()));
}
BENCHMARK(BM_PairOnMiss);

void BM_DuelOnAccess(benchmark::State &State) {
  const std::vector<prefetch::AccessEvent> &Accesses = recordedAccesses();
  prefetch::StackConfig Config;
  Config.Enabled.set(prefetch::Prefetcher::Duel, true);
  for (auto _ : State) {
    memsim::MemoryHierarchy Memory;
    prefetch::PrefetcherStack Stack(Config);
    Memory.setListener(&Stack);
    for (const prefetch::AccessEvent &E : Accesses) {
      Stack.onAccess(E.Site, E.Addr, E.Latency, E.L1Miss, Memory);
      Memory.tick(E.Latency);
    }
    benchmark::DoNotOptimize(Memory.stats().PrefetchesIssued);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Accesses.size()));
}
BENCHMARK(BM_DuelOnAccess);

} // namespace

BENCHMARK_MAIN();
