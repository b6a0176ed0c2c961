//===- hds_perfbench/Workloads.h - Benchmark workload cells -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's named workloads as lists of experiment specs, built only
/// from engine::defaultMatrix + engine::applyFilter, plus the layout-seed
/// heap pad runExperiment applies, which cells driven by hand repeat.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PERFBENCH_WORKLOADS_H
#define HDS_PERFBENCH_WORKLOADS_H

#include "core/Runtime.h"
#include "engine/ExperimentSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct BenchWorkload {
  std::string Name;
  double Scale = 1.0;
  /// Scale of the traced run, which records every cell (~64 bytes per
  /// event) and runs it about six times over.
  double TraceScale = 1.0;
  /// The hds_matrix --filter arguments that select the same cells.
  std::vector<std::string> Filters;
  /// Cells whose host time the workload measures, in defaultMatrix order.
  std::vector<hds::engine::ExperimentSpec> Cells;
  /// Original cells run only as the sim_cycles_ratio baseline of programs
  /// that have no Original cell in Cells (the tuned workload).
  std::vector<hds::engine::ExperimentSpec> Baselines;
};

/// Builds workload \p Name ("paper", "zoo", "tuned" or "matrix") with layout
/// seed \p Seed on every cell.  Returns false for an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, BenchWorkload &Out);

/// The heap pad runExperiment applies for a nonzero layout seed, so a cell
/// driven by hand lays out its data exactly as runExperiment does.
void applyLayoutSeed(hds::core::Runtime &Rt, uint64_t Seed);

} // namespace perfbench

#endif // HDS_PERFBENCH_WORKLOADS_H
