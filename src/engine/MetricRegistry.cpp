//===- engine/MetricRegistry.cpp - Catalog of every exported metric -------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/MetricRegistry.h"

#include "core/RunStats.h"
#include "engine/ExperimentRunner.h"
#include "memsim/Cache.h"
#include "memsim/MemoryHierarchy.h"
#include "obs/CycleAccount.h"
#include "obs/PrefetchStats.h"

#include <cstring>

using namespace hds;
using namespace hds::engine;

namespace {

/// Collects the MetricDefs an enumeration visits, discarding the field
/// references (the registry describes shape, not values).
struct DefCollector {
  std::vector<obs::MetricDef> &Defs;
  template <typename FieldT>
  void operator()(const obs::MetricDef &Def, const FieldT &) const {
    Defs.push_back(Def);
  }
};

std::vector<MetricBlock> buildRegistry() {
  std::vector<MetricBlock> Blocks;
  auto Add = [&Blocks](const char *Name, auto VisitFn) {
    MetricBlock Block;
    Block.Name = Name;
    VisitFn(DefCollector{Block.Metrics});
    Blocks.push_back(std::move(Block));
  };

  Add("result", [](auto Collect) {
    core::visitRunStatsMetrics(core::RunStats{}, Collect);
  });
  Add("phase", [](auto Collect) {
    core::visitCycleStatsMetrics(core::CycleStats{}, Collect);
  });
  Add("memory", [](auto Collect) {
    memsim::visitHierarchyStatsMetrics(memsim::HierarchyStats{}, Collect);
  });
  Add("cache", [](auto Collect) {
    memsim::visitCacheStatsMetrics(memsim::CacheStats{}, Collect);
  });
  Add("cycle_breakdown", [](auto Collect) {
    obs::visitCycleBreakdownMetrics(obs::CycleBreakdown{}, Collect);
  });
  Add("stream", [](auto Collect) {
    obs::visitStreamPrefetchStatsMetrics(obs::StreamPrefetchStats{}, Collect);
  });
  Add("prefetcher", [](auto Collect) {
    obs::visitPrefetcherStatsMetrics(obs::PrefetcherStats{}, Collect);
  });
  Add("timing", [](auto Collect) {
    visitResultTimingMetrics(ResultTiming{}, Collect);
  });
  return Blocks;
}

} // namespace

const std::vector<MetricBlock> &hds::engine::metricRegistry() {
  static const std::vector<MetricBlock> Registry = buildRegistry();
  return Registry;
}

const std::vector<const char *> &hds::engine::specIdentityFields() {
  static const std::vector<const char *> Fields = {
      "workload", "mode",   "mode_name", "scale", "seed",
      "head_length", "stride", "markov", "pin",   "adaptive",
      "stream_pf", "pair_pf", "duel_pf", "tuned", "l2_bytes", "ncheck0",
      "quiet_head",
  };
  return Fields;
}

const obs::MetricDef *hds::engine::findMetric(const char *Block,
                                              const std::string &Id) {
  for (const MetricBlock &Candidate : metricRegistry()) {
    if (std::strcmp(Candidate.Name, Block) != 0)
      continue;
    for (const obs::MetricDef &Def : Candidate.Metrics)
      if (Id == Def.Id)
        return &Def;
  }
  return nullptr;
}
