//===- hds_perfbench/Workloads.cpp - Benchmark workload cells -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

using namespace hds;

namespace {

std::vector<engine::ExperimentSpec>
filtered(double Scale, const std::vector<std::string> &Filters) {
  std::vector<engine::ExperimentSpec> Specs = engine::defaultMatrix(Scale);
  for (const std::string &Filter : Filters)
    engine::applyFilter(Specs, Filter);
  return Specs;
}

} // namespace

bool perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                             BenchWorkload &Out) {
  Out = BenchWorkload();
  Out.Name = Name;
  // Scales: paper needs 0.1, the smallest at which every program completes
  // enough optimisation cycles for Dyn-pref to beat Original (Figure 12);
  // the others keep one round of their cells near 2-4 s of host time.
  // Traced scales: paper's recordings at 0.1 peak near 1 GB, so it traces
  // at 0.05, where analyses still run; the matrix traces at 0.025 to stay
  // well inside a run's time limit (its paper cells then finish no
  // analysis; the paper workload measures those layers).
  if (Name == "paper") {
    Out.Scale = 0.1;
    Out.TraceScale = 0.05;
    Out.Filters = {"prefetcher=none", "tuning=fixed"};
  } else if (Name == "zoo") {
    Out.Scale = 0.03;
    Out.TraceScale = 0.03;
    Out.Filters = {"mode=original", "tuning=fixed"};
  } else if (Name == "tuned") {
    Out.Scale = 0.05;
    Out.TraceScale = 0.05;
    Out.Filters = {"tuning=adaptive"};
    Out.Baselines = filtered(Out.Scale, {"mode=original", "prefetcher=none",
                                         "tuning=fixed"});
  } else if (Name == "matrix") {
    Out.Scale = 0.05;
    Out.TraceScale = 0.025;
  } else {
    return false;
  }
  Out.Cells = filtered(Out.Scale, Out.Filters);
  for (engine::ExperimentSpec &Spec : Out.Cells)
    Spec.Seed = Seed;
  for (engine::ExperimentSpec &Spec : Out.Baselines)
    Spec.Seed = Seed;
  return !Out.Cells.empty();
}

void perfbench::applyLayoutSeed(core::Runtime &Rt, uint64_t Seed) {
  // Mirrors engine/ExperimentRunner.cpp; the traced run checks the result
  // (cycles equal to runExperiment's) for every cell.
  if (Seed == 0)
    return;
  Rng LayoutRng(Seed);
  Rt.padHeap(LayoutRng.nextInRange(8, 8192) & ~uint64_t{7});
}
