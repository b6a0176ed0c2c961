//===- engine/ExperimentRunner.cpp - Run experiment specs -----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Runtime.h"
#include "engine/JobScheduler.h"
#include "engine/ResultSink.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <memory>
#include <utility>

using namespace hds;
using namespace hds::engine;

RunResult hds::engine::runExperiment(const ExperimentSpec &Spec) {
  RunResult Result;
  Result.Spec = Spec;

  // The prefix DFSM needs at least one head symbol per stream.
  if (Spec.HeadLength == 0) {
    Result.State = RunResult::Status::Error;
    Result.Error = "head length must be >= 1";
    return Result;
  }

  std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(Spec.Workload);
  if (!Bench) {
    Result.State = RunResult::Status::Error;
    Result.Error = "unknown workload '" + Spec.Workload + "'";
    return Result;
  }

  core::Runtime Rt(Spec.materializeConfig());

  // Layout seed: shift the heap base deterministically so every
  // subsequent allocation lands on different cache blocks/sets.  The pad
  // stays below one L2 way so the working set itself is unchanged.
  if (Spec.Seed != 0) {
    Rng LayoutRng(Spec.Seed);
    Rt.padHeap(LayoutRng.nextInRange(8, 8192) & ~uint64_t{7});
  }

  Bench->setup(Rt);

  uint64_t Iterations = Spec.Iterations;
  if (Iterations == 0)
    Iterations = static_cast<uint64_t>(
        static_cast<double>(Bench->defaultIterations()) * Spec.Scale);
  if (Iterations == 0)
    Iterations = 1;
  Bench->run(Rt, Iterations);

  Result.State = RunResult::Status::Ok;
  Result.Iterations = Iterations;
  Result.Cycles = Rt.cycles();
  Result.Stats = Rt.stats();
  Result.Memory = Rt.memory().stats();
  Result.L1 = Rt.memory().l1().stats();
  Result.L2 = Rt.memory().l2().stats();
  Result.Breakdown = Rt.cycleBreakdown();
  Result.Streams = Rt.streamPrefetchStats();
  Result.Prefetchers = Rt.prefetcherStats();
  return Result;
}

std::vector<RunResult>
hds::engine::runMatrix(std::span<const ExperimentSpec> Specs, unsigned Jobs,
                       ResultCallback OnResult,
                       const std::atomic<bool> *Cancel) {
  ResultSink Sink(Specs.size());
  if (OnResult)
    Sink.setCallback(std::move(OnResult));
  {
    JobScheduler Scheduler(Jobs);
    for (std::size_t Index = 0; Index < Specs.size(); ++Index) {
      const ExperimentSpec &Spec = Specs[Index];
      Scheduler.submit([Index, &Spec, &Sink, Cancel, &Scheduler] {
        if (Cancel && Cancel->load(std::memory_order_relaxed)) {
          // Drop everything still queued too, so cancellation takes
          // effect promptly instead of once per remaining job.
          Scheduler.cancel();
          return;
        }
        Sink.deliver(Index, runExperiment(Spec));
      });
    }
    Scheduler.wait();
  }
  std::vector<RunResult> Results = Sink.take();
  // Dropped jobs never delivered; label their slots with the spec they
  // would have run so every result is self-describing.
  for (std::size_t Index = 0; Index < Results.size(); ++Index)
    if (Results[Index].State == RunResult::Status::Cancelled)
      Results[Index].Spec = Specs[Index];
  return Results;
}
