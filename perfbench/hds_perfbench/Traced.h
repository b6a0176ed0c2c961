//===- hds_perfbench/Traced.h - Layer-by-layer traced run -------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run.  For each cell of a workload:
///
///  1. Untimed set-up: run the cell once under a replay::TraceRecorder,
///     wrapped in an observer that holds the Runtime.  The Runtime calls
///     the observer before every dynamic check and flushes buffered
///     accesses before any other callback, so at each callback the
///     observer reads the state those events ran under: the tracer phase
///     (which accesses were traced), PrefetchEngine::siteInstrumented plus
///     frame freshness (which accesses were scanned), and the profiler
///     grammar each analysis saw.
///  2. Re-run each layer's public entry point on that layer's captured
///     input with spans around the calls: MemoryHierarchy::access/tick,
///     PrefetcherStack::onAccess (+ TuningPolicy), BurstyTracer::check,
///     TemporalProfiler::recordRef, analysis::analyzeHotStreams, PrefixDfsm
///     + generateCheckCode, PrefetchEngine::install/onAccess; and spans
///     around runExperiment, Workload::setup, Workload::run and the
///     TraceReplayer (ReplayWorkload) of the recording.
///  3. Check that every re-run reproduces the cell (cycles, traced refs,
///     grammar snapshots, clause scans, ...).  A layer that cannot be
///     re-run exactly is reported as approximate, with the reason.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PERFBENCH_TRACED_H
#define HDS_PERFBENCH_TRACED_H

#include "Workloads.h"

#include <string>

namespace perfbench {

/// Traces every cell of \p W at W.TraceScale, writes the per-layer metrics
/// and checks as JSON to \p OutPath and the span log to \p SpansPath.
/// Returns the process exit code.
int runTraced(const BenchWorkload &W, const std::string &OutPath,
              const std::string &SpansPath);

} // namespace perfbench

#endif // HDS_PERFBENCH_TRACED_H
