//===- hds_perfbench/Traced.cpp - Layer-by-layer traced run ---------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "Spans.h"

#include "analysis/FastAnalyzer.h"
#include "core/Runtime.h"
#include "dfsm/CheckCodeGen.h"
#include "dfsm/PrefixDfsm.h"
#include "engine/ExperimentRunner.h"
#include "engine/ResultsJson.h"
#include "memsim/MemoryHierarchy.h"
#include "prefetch/PrefetcherStack.h"
#include "prefetch/TuningPolicy.h"
#include "profiling/BurstyTracer.h"
#include "profiling/TemporalProfiler.h"
#include "replay/TraceRecorder.h"
#include "replay/TraceReplayer.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace hds;
using namespace perfbench;
using replay::TraceEvent;

namespace {

//===----------------------------------------------------------------------===//
// Capture: what each layer saw during the recorded run.
//===----------------------------------------------------------------------===//

/// The traced references of one profile, up to the analysis that read it.
struct ProfileSegment {
  std::vector<analysis::DataRef> Refs;
  bool Analyzed = false;
  size_t CycleIndex = 0; ///< RunStats::Cycles entry of that analysis
  sequitur::GrammarSnapshot Snapshot;
  bool ResetAfter = false; ///< the profiler started a new cycle after it
};

/// One installation of check code and the accesses that scanned it.
struct InstallWindow {
  dfsm::CheckCode Code;
  std::vector<core::PrefetchEngine::InstalledStream> Streams;
  size_t SiteCount = 0;
  uint64_t InstallCycle = 0;
  std::vector<std::pair<vulcan::SiteId, memsim::Addr>> Scanned;
};

uint8_t tracerState(const profiling::BurstyTracer &T) {
  return static_cast<uint8_t>(
      (T.phase() == profiling::TracerPhase::Awake ? 1 : 0) |
      (T.inInstrumentedCode() ? 2 : 0));
}

/// Forwards every event to the TraceRecorder and, at each callback, reads
/// the Runtime state the events ran under.  Runtime flushes buffered
/// accesses before any other callback and calls onEnterProcedure /
/// onLoopBackEdge before the dynamic check, so no check (and hence no
/// tracer, profiler or check-code change) falls inside one access batch.
class Capture final : public core::RuntimeObserver {
public:
  Capture(core::Runtime &Runtime, replay::TraceRecorder &Recorder)
      : TracerConfig(Runtime.tracer().config()), Rt(Runtime),
        Rec(Recorder), Mode(Runtime.config().Mode),
        LastGrammar(&Runtime.optimizer().profiler().grammar()) {
    Segments.emplace_back();
  }

  void onDeclareProcedure(vulcan::ProcId Proc,
                          const std::string &Name) override {
    sync();
    Rec.onDeclareProcedure(Proc, Name);
  }
  void onDeclareSite(vulcan::SiteId Site, vulcan::ProcId Proc,
                     const std::string &Label) override {
    sync();
    Rec.onDeclareSite(Site, Proc, Label);
  }
  void onAllocate(memsim::Addr Result, uint64_t Bytes,
                  uint64_t Align) override {
    sync();
    Rec.onAllocate(Result, Bytes, Align);
  }
  void onPadHeap(uint64_t Bytes) override {
    sync();
    Rec.onPadHeap(Bytes);
  }
  void onEnterProcedure(vulcan::ProcId Proc) override {
    sync();
    Rec.onEnterProcedure(Proc);
    // Runtime pushes the same frame right after this callback.
    Frames.push_back({Proc, Rt.image().codeVersion(Proc)});
    noteCheck();
  }
  void onLeaveProcedure() override {
    sync();
    Rec.onLeaveProcedure();
    if (!Frames.empty())
      Frames.pop_back();
  }
  void onLoopBackEdge() override {
    sync();
    Rec.onLoopBackEdge();
    noteCheck();
  }
  void onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                bool IsStore) override {
    const AccessEvent Event{Site, Addr, IsStore};
    onAccessBatch(&Event, 1);
  }
  void onAccessBatch(const AccessEvent *Events, size_t Count) override;
  void onCompute(uint64_t Cycles) override {
    sync();
    Rec.onCompute(Cycles);
  }

  /// Picks up whatever the run's last check did.
  void finish() { sync(); }

  profiling::BurstyTracingConfig TracerConfig;
  std::vector<uint8_t> CheckStates; ///< tracer state before each check
  std::vector<ProfileSegment> Segments;
  std::vector<InstallWindow> Windows;
  uint64_t TracedRefs = 0;
  /// Capture could not attribute something (a profiler reset inside a
  /// profile, a scanned access outside any captured installation).
  uint64_t Anomalies = 0;

private:
  struct Frame {
    vulcan::ProcId Proc;
    uint32_t Version;
  };

  void sync();

  void noteCheck() {
    if (core::checksEnabled(Mode) && !Rt.optimizer().pinned())
      CheckStates.push_back(tracerState(Rt.tracer()));
  }

  bool frameFresh() const {
    return Frames.empty() ||
           Frames.back().Version == Rt.image().codeVersion(Frames.back().Proc);
  }

  core::Runtime &Rt;
  replay::TraceRecorder &Rec;
  core::RunMode Mode;
  const sequitur::Grammar *LastGrammar;
  size_t SeenCycles = 0;
  std::vector<Frame> Frames;
};

void Capture::sync() {
  const core::RunStats &Stats = Rt.stats();
  profiling::TemporalProfiler &Profiler = Rt.optimizer().profiler();
  // An analysis ran in the check before this callback.  The tracer is
  // hibernating now, so the profiler still holds what the analysis read.
  while (SeenCycles < Stats.Cycles.size()) {
    ProfileSegment &Seg = Segments.back();
    Seg.Analyzed = true;
    Seg.CycleIndex = SeenCycles;
    Seg.Snapshot = Profiler.grammar().snapshot();
    if (Stats.Cycles[SeenCycles].StreamsInstalled > 0 &&
        Rt.engine().installed()) {
      InstallWindow W;
      W.Code = Rt.engine().installedCode();
      W.Streams = Rt.engine().installedStreams();
      W.SiteCount = Rt.image().siteCount();
      W.InstallCycle = SeenCycles;
      Windows.push_back(std::move(W));
    }
    Segments.emplace_back();
    ++SeenCycles;
  }
  // TemporalProfiler::startNewCycle replaces the grammar object.
  const sequitur::Grammar *Current = &Profiler.grammar();
  if (Current != LastGrammar) {
    LastGrammar = Current;
    if (Segments.size() >= 2 && Segments.back().Refs.empty())
      Segments[Segments.size() - 2].ResetAfter = true;
    else
      ++Anomalies;
  }
}

void Capture::onAccessBatch(const AccessEvent *Events, size_t Count) {
  sync();
  Rec.onAccessBatch(Events, Count);
  if (Mode == core::RunMode::Original)
    return; // Runtime::access never reaches the instrumented tail
  const profiling::BurstyTracer &Tracer = Rt.tracer();
  const bool Traced = Tracer.inInstrumentedCode() &&
                      !Rt.optimizer().pinned() && core::tracingEnabled(Mode) &&
                      Tracer.phase() == profiling::TracerPhase::Awake;
  const core::PrefetchEngine &Engine = Rt.engine();
  const bool Fresh = frameFresh();
  for (size_t I = 0; I < Count; ++I) {
    if (Traced) {
      Segments.back().Refs.push_back({Events[I].Site, Events[I].Addr});
      ++TracedRefs;
    }
    if (Fresh && Engine.siteInstrumented(Events[I].Site)) {
      if (Windows.empty())
        ++Anomalies;
      else
        Windows.back().Scanned.push_back({Events[I].Site, Events[I].Addr});
    }
  }
}

//===----------------------------------------------------------------------===//
// Layer re-runs.
//===----------------------------------------------------------------------===//

struct PassTiming {
  uint64_t Ns = 0;     ///< the timed (post-setup) part of the pass
  uint64_t Cycles = 0; ///< simulated clock at the end
  uint64_t PfNs = 0;   ///< per-call spans around the prefetcher calls
  uint64_t PfCalls = 0;
  uint64_t PfStart = 0, PfEnd = 0;
};

size_t setupEnd(const replay::Trace &T) {
  for (size_t I = 0; I < T.Events.size(); ++I)
    if (T.Events[I].K == TraceEvent::Kind::SetupDone)
      return I;
  return 0;
}

/// Replays the recording's demand accesses and compute ticks into a fresh
/// MemoryHierarchy, with the cell's PrefetcherStack and TuningPolicy
/// observing every access exactly as Runtime::access orders them.  With
/// \p TimeCalls, every prefetcher call is timed on its own.
template <bool TimeCalls>
PassTiming memsimPass(const replay::Trace &T,
                      const core::OptimizerConfig &Cfg) {
  memsim::MemoryHierarchy H(Cfg.L1, Cfg.L2, Cfg.Latency);
  std::unique_ptr<prefetch::PrefetcherStack> Stack;
  std::unique_ptr<prefetch::TuningPolicy> Tuner;
  if (Cfg.Prefetchers.any()) {
    Stack = std::make_unique<prefetch::PrefetcherStack>(Cfg.Prefetchers);
    H.setListener(Stack.get());
  }
  if (Cfg.Tuning.Enabled) {
    Tuner = std::make_unique<prefetch::TuningPolicy>(Cfg.Tuning);
    if (Stack)
      Stack->setTuner(Tuner.get());
  }
  const uint64_t L1Hit = Cfg.Latency.L1HitCycles;
  const size_t TimedFrom = setupEnd(T);

  PassTiming P;
  uint64_t Start = nowNs();
  for (size_t I = 0; I < T.Events.size(); ++I) {
    if (I == TimedFrom)
      Start = nowNs();
    const TraceEvent &E = T.Events[I];
    if (E.K == TraceEvent::Kind::Load || E.K == TraceEvent::Kind::Store) {
      const uint64_t Latency = H.access(E.B);
      if (!Stack && !Tuner)
        continue;
      uint64_t CallStart = 0;
      if constexpr (TimeCalls)
        CallStart = nowNs();
      if (Stack)
        Stack->onAccess(static_cast<vulcan::SiteId>(E.A), E.B, Latency,
                        Latency > L1Hit, H);
      if (Tuner && Tuner->onDemandAccess())
        Tuner->rollEpoch(H.streamClasses());
      if constexpr (TimeCalls) {
        const uint64_t CallEnd = nowNs();
        if (P.PfCalls++ == 0)
          P.PfStart = CallStart;
        P.PfEnd = CallEnd;
        P.PfNs += CallEnd - CallStart;
      }
    } else if (E.K == TraceEvent::Kind::Compute) {
      H.tick(E.A);
    }
  }
  P.Ns = nowNs() - Start;
  P.Cycles = H.now();
  return P;
}

/// The event loop of memsimPass with no layer behind it: the cost of
/// walking the recording, which replay.run and the memsim pass both pay.
uint64_t decodePass(const replay::Trace &T) {
  const size_t TimedFrom = setupEnd(T);
  uint64_t Sum = 0;
  const uint64_t Start = nowNs();
  for (size_t I = TimedFrom; I < T.Events.size(); ++I) {
    const TraceEvent &E = T.Events[I];
    if (E.K == TraceEvent::Kind::Load || E.K == TraceEvent::Kind::Store)
      Sum += E.B;
    else if (E.K == TraceEvent::Kind::Compute)
      Sum ^= E.A;
  }
  const uint64_t Ns = nowNs() - Start;
  asm volatile("" : : "r"(Sum)); // keep the loop
  return Ns;
}

/// DynamicOptimizer::analyzeAndOptimize's choice of streams to install,
/// from the re-run profiler's state (hottest first, quiet head placement,
/// tail / head-traffic / unique-refs / overlap filters).  The traced run
/// checks its DFSM against the recorded cycle's state and clause counts.
std::vector<std::vector<uint32_t>>
selectInstalled(std::vector<analysis::HotDataStream> Streams,
                const profiling::TemporalProfiler &Profiler,
                const core::OptimizerConfig &Config) {
  std::sort(Streams.begin(), Streams.end(),
            [](const analysis::HotDataStream &A,
               const analysis::HotDataStream &B) { return A.Heat > B.Heat; });
  const analysis::DataRefTable &Refs = Profiler.refTable();
  const uint32_t HeadLen = Config.Dfsm.HeadLength;
  auto HeadCostAt = [&](const std::vector<uint32_t> &Symbols, size_t Pos) {
    uint64_t Sum = 0;
    for (uint32_t H = 0; H < HeadLen; ++H)
      Sum += Profiler.pcSampleCount(Refs.refOf(Symbols[Pos + H]).Pc);
    return Sum;
  };
  auto FindQuietHead = [&](const std::vector<uint32_t> &Symbols) -> size_t {
    constexpr size_t MinTailRefs = 4;
    if (Symbols.size() < HeadLen + MinTailRefs + 1)
      return 0;
    const size_t Limit = Symbols.size() - (HeadLen + MinTailRefs);
    size_t Best = 0;
    uint64_t BestCost = ~uint64_t{0};
    for (size_t Pos = 0; Pos <= Limit; ++Pos) {
      const uint64_t PosCost = HeadCostAt(Symbols, Pos);
      if (PosCost < BestCost) {
        BestCost = PosCost;
        Best = Pos;
      }
    }
    return Best;
  };

  std::vector<std::vector<uint32_t>> Selected;
  std::unordered_map<uint32_t, uint64_t> CoveredBy;
  for (const analysis::HotDataStream &Stream : Streams) {
    if (Selected.size() >= Config.MaxStreamsPerCycle)
      break;
    const size_t HeadPos =
        Config.QuietHeadPlacement ? FindQuietHead(Stream.Symbols) : 0;
    std::vector<uint32_t> Symbols(
        Stream.Symbols.begin() + static_cast<ptrdiff_t>(HeadPos),
        Stream.Symbols.end());
    size_t AlreadyCovered = 0;
    for (uint32_t Symbol : Symbols) {
      auto It = CoveredBy.find(Symbol);
      if (It != CoveredBy.end() && It->second >= Stream.Frequency)
        ++AlreadyCovered;
    }
    if (Symbols.size() <= HeadLen)
      continue;
    if (static_cast<double>(HeadCostAt(Stream.Symbols, HeadPos)) >
        Config.MaxHeadTrafficRatio * static_cast<double>(HeadLen) *
            static_cast<double>(Stream.Frequency))
      continue;
    if (Stream.uniqueRefs() <= Config.MinUniqueRefs)
      continue;
    if (static_cast<double>(AlreadyCovered) >
        Config.MaxInstalledOverlap * static_cast<double>(Symbols.size()))
      continue;
    for (uint32_t Symbol : Symbols) {
      uint64_t &Freq = CoveredBy[Symbol];
      Freq = std::max(Freq, Stream.Frequency);
    }
    Selected.push_back(std::move(Symbols));
  }
  return Selected;
}

bool sameSnapshot(const sequitur::GrammarSnapshot &A,
                  const sequitur::GrammarSnapshot &B) {
  if (A.Rules.size() != B.Rules.size())
    return false;
  for (size_t R = 0; R < A.Rules.size(); ++R) {
    const auto &X = A.Rules[R].Rhs, &Y = B.Rules[R].Rhs;
    if (X.size() != Y.size())
      return false;
    for (size_t I = 0; I < X.size(); ++I)
      if (X[I].IsRule != Y[I].IsRule ||
          (X[I].IsRule ? X[I].RuleIndex != Y[I].RuleIndex
                       : X[I].Terminal != Y[I].Terminal))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Per-layer accounting.
//===----------------------------------------------------------------------===//

/// Sums over the workload's cells.  Times are nanoseconds of host time.
struct Totals {
  uint64_t Cells = 0, Accesses = 0, CellNs = 0;
  uint64_t RunExperimentNs = 0, ResultsJsonNs = 0, SetupNs = 0, RunNs = 0;
  uint64_t ReplayNs = 0, DecodeNs = 0, PassPlainNs = 0, PassTracedNs = 0;
  // Layer self times.
  double DriverNs = 0, DispatchNs = 0, MemsimNs = 0, PrefetchNs = 0;
  uint64_t CheckNs = 0, AppendNs = 0, AnalyzeNs = 0, DfsmNs = 0, ScanNs = 0,
           InstallNs = 0;
  // Calls.
  uint64_t PfCalls = 0, Checks = 0, Appends = 0, AnalyzeCalls = 0,
           DfsmCalls = 0, ScanCalls = 0;
  // Memsim: demand-only reference (Original cells without prefetchers) and
  // the cells whose memsim pass also fills prefetches.
  double DemandRefNs = 0;
  uint64_t DemandRefAccesses = 0;
  double FillCellsMemsimNs = 0;
  uint64_t FillCellsAccesses = 0, FillCellsIssued = 0;
  // Simulated counts (deterministic).
  uint64_t DemandAccesses = 0, L1Misses = 0, MemIssued = 0, Dropped = 0,
           MemUseful = 0, OutcomeGap = 0, GapRows = 0, Rows = 0;
  uint64_t PfTrains = 0, PfIssued = 0, PfUseful = 0, PfLate = 0,
           TunerEpochs = 0, Squelches = 0;
  uint64_t ClausesScanned = 0, CompleteMatches = 0, TracedRefs = 0;
  uint64_t HotStreams = 0, RulesAtAnalysis = 0, HeatSum = 0, HeatTrace = 0,
           DfsmStates = 0, DfsmClauses = 0;
};

struct EngineTotals {
  double Ns = 0;
  uint64_t Accesses = 0, Issued = 0, Useful = 0;
};

/// Exactness of one layer's re-run over the workload.
struct LayerStatus {
  uint64_t ExactCells = 0;   ///< cells where the re-run was checked exact
  uint64_t Failed = 0;       ///< exactness checks that failed
  std::string Approximate;   ///< reason, when part of it is approximate
  std::vector<std::string> Failures;
};

class CellTracer {
public:
  CellTracer(SpanLog &L, uint64_t ClockCost) : Log(L), ClockNs(ClockCost) {}

  /// Traces one cell; returns false if it failed (error or failed check).
  bool traceCell(const engine::ExperimentSpec &Spec, uint32_t Cell,
                 bool Baseline);

  Totals T;
  std::map<std::string, EngineTotals> Engines;
  std::map<std::string, LayerStatus> Layers;

private:
  bool check(const std::string &Layer, const std::string &Label, bool Ok,
             const std::string &What) {
    LayerStatus &S = Layers[Layer];
    if (!Ok) {
      ++S.Failed;
      if (S.Failures.size() < 8)
        S.Failures.push_back(Label + ": " + What);
    }
    return Ok;
  }
  void approximate(const std::string &Layer, const std::string &Why) {
    Layers[Layer].Approximate = Why;
  }

  SpanLog &Log;
  uint64_t ClockNs;
};

bool CellTracer::traceCell(const engine::ExperimentSpec &Spec, uint32_t Cell,
                           bool Baseline) {
  const std::string Label = Spec.label();
  const core::OptimizerConfig Cfg = Spec.materializeConfig();
  const bool OriginalMode = Cfg.Mode == core::RunMode::Original;
  const int32_t Root = Log.open("cell", Cell, -1);

  // engine: the cell as the matrix runs it, then its results document.
  int32_t S = Log.open("engine.run_experiment", Cell, Root);
  const engine::RunResult R = engine::runExperiment(Spec);
  const uint64_t RunExperimentNs = Log.close(S);
  S = Log.open("engine.results_json", Cell, Root);
  const std::string Json = engine::resultsToJson({R});
  const uint64_t ResultsJsonNs = Log.close(S);
  bool Ok = check("engine", Label, R.ok(), "runExperiment: " + R.Error);
  if (!R.ok()) {
    Log.close(Root);
    return false;
  }
  Ok &= check("engine", Label, R.Breakdown.total() == R.Cycles,
              "cycle breakdown does not sum to cycles");
  for (const char *Layer : {"engine", "workloads", "replay"})
    ++Layers[Layer].ExactCells;
  const uint64_t Accesses = R.Stats.TotalAccesses;

  // Untimed set-up: record the cell, capturing each layer's input.
  std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(Spec.Workload);
  replay::Trace Recording;
  std::unique_ptr<Capture> Cap;
  uint64_t TunerEpochs = 0;
  {
    const int32_t RecordSpan = Log.open("replay.record", Cell, Root);
    core::Runtime Rt(Cfg);
    replay::TraceRecorder Recorder(
        replay::metaFromConfig(Cfg, Spec.Workload, R.Iterations));
    Cap = std::make_unique<Capture>(Rt, Recorder);
    Rt.setObserver(Cap.get());
    applyLayoutSeed(Rt, Spec.Seed);
    Bench->setup(Rt);
    Rt.flushObserver();
    Recorder.markSetupDone();
    Bench->run(Rt, R.Iterations);
    Rt.setObserver(nullptr);
    Cap->finish();
    Recorder.finish(Rt);
    if (Rt.tuningPolicy())
      TunerEpochs = Rt.tuningPolicy()->epochsRolled();
    Ok &= check("workloads", Label, Rt.cycles() == R.Cycles,
                "recorded run's cycles differ from runExperiment's");
    Recording = Recorder.takeTrace();
    Log.close(RecordSpan);
  }

  // workloads: Workload::setup and Workload::run, untraced inside.
  S = Log.open("workloads.setup", Cell, Root);
  Bench = workloads::createWorkload(Spec.Workload);
  auto Rt = std::make_unique<core::Runtime>(Cfg);
  applyLayoutSeed(*Rt, Spec.Seed);
  Bench->setup(*Rt);
  const uint64_t SetupNs = Log.close(S);
  const int32_t RunSpan = Log.open("workloads.run", Cell, Root);
  Bench->run(*Rt, R.Iterations);
  const uint64_t RunNs = Log.close(RunSpan);
  Ok &= check("workloads", Label, Rt->cycles() == R.Cycles,
              "Workload::run cycles differ from runExperiment's");
  Rt.reset();

  // replay: the Runtime without the workload driver, the logical child of
  // workloads.run.  The layer re-runs below are in turn logical children of
  // replay.run, so every span's self time is busy time minus its children.
  uint64_t ReplayNs = 0;
  int32_t ReplaySpan = -1;
  {
    core::Runtime ReplayRt(Cfg);
    replay::ReplayWorkload Replayer(Recording);
    Replayer.setup(ReplayRt);
    ReplaySpan = Log.open("replay.run", Cell, RunSpan);
    Replayer.run(ReplayRt, 1);
    ReplayNs = Log.close(ReplaySpan);
    Ok &= check("replay", Label,
                ReplayRt.cycles() == R.Cycles &&
                    Replayer.eventMismatches() == 0,
                "TraceReplayer did not reproduce the cell: " +
                    Replayer.firstMismatch());
  }

  // memsim (+ prefetch): plain pass, its bare event loop, then the same
  // pass with a span around every prefetcher call.  The per-call spans,
  // less one clock read each, are logged under the plain pass.
  const int32_t PassSpan = Log.open("memsim.pass", Cell, ReplaySpan);
  const PassTiming Plain = memsimPass<false>(Recording, Cfg);
  Log.close(PassSpan);
  S = Log.open("replay.decode", Cell, PassSpan);
  const uint64_t DecodeNs = decodePass(Recording);
  Log.close(S);
  S = Log.open("memsim.pass_traced", Cell, Root);
  const PassTiming Timed = memsimPass<true>(Recording, Cfg);
  Log.close(S);
  if (OriginalMode) {
    Ok &= check("memsim", Label,
                Plain.Cycles == R.Cycles && Timed.Cycles == R.Cycles,
                "memsim re-run cycles " + std::to_string(Plain.Cycles) +
                    " != cell cycles " + std::to_string(R.Cycles));
    ++Layers["memsim"].ExactCells;
    if (Cfg.Prefetchers.any())
      ++Layers["prefetch"].ExactCells;
  } else {
    approximate("memsim",
                "instrumented cells: the memsim pass replays demand accesses "
                "and compute only; the Runtime's own ticks (checks, tracing, "
                "analysis) and injected prefetches have no observer event, so "
                "those cells serve only as a timing estimate for core "
                "dispatch");
  }
  const uint64_t ClockCost = std::min(Timed.PfNs, Timed.PfCalls * ClockNs);
  const double PfNs = static_cast<double>(Timed.PfNs - ClockCost);
  if (Timed.PfCalls)
    Log.addAggregate("prefetch.on_access", Cell, PassSpan, Timed.PfStart,
                     Timed.PfEnd, Timed.PfCalls, Timed.PfNs - ClockCost);
  const double MemsimNs = static_cast<double>(Plain.Ns) -
                          static_cast<double>(DecodeNs) - PfNs;

  // profiling: BurstyTracer::check, once per recorded check.
  uint64_t CheckNs = 0;
  if (!Cap->CheckStates.empty()) {
    profiling::BurstyTracer Verify(Cap->TracerConfig);
    uint64_t Mismatches = 0;
    for (uint8_t State : Cap->CheckStates) {
      Mismatches += tracerState(Verify) != State;
      Verify.check();
    }
    profiling::BurstyTracer Timing(Cap->TracerConfig);
    S = Log.open("profiling.check", Cell, ReplaySpan);
    for (size_t I = 0; I < Cap->CheckStates.size(); ++I)
      Timing.check();
    CheckNs = Log.close(S);
    if (Cfg.AdaptiveHibernation)
      approximate("profiling", "adaptive hibernation retunes the tracer "
                               "from the optimizer");
    else
      Ok &= check("profiling", Label,
                  Mismatches == 0 &&
                      Cap->CheckStates.size() == R.Stats.ChecksExecuted,
                  "BurstyTracer re-run diverged from the recorded phases");
    ++Layers["profiling"].ExactCells;
  }
  Ok &= check("profiling", Label, Cap->TracedRefs == R.Stats.TracedRefs,
              "captured traced refs " + std::to_string(Cap->TracedRefs) +
                  " != traced_refs " + std::to_string(R.Stats.TracedRefs));
  Ok &= check("core", Label, Cap->Anomalies == 0,
              "capture could not attribute " +
                  std::to_string(Cap->Anomalies) + " events");

  // sequitur -> analysis -> dfsm, one profile at a time.
  uint64_t AppendNs = 0, Appends = 0, AnalyzeNs = 0, AnalyzeCalls = 0,
           DfsmNs = 0, DfsmCalls = 0;
  profiling::TemporalProfiler Profiler;
  for (const ProfileSegment &Seg : Cap->Segments) {
    if (!Seg.Refs.empty()) {
      S = Log.open("sequitur.append", Cell, ReplaySpan);
      for (const analysis::DataRef &Ref : Seg.Refs)
        Profiler.recordRef(Ref);
      AppendNs += Log.close(S);
      Appends += Seg.Refs.size();
    }
    if (Seg.Analyzed && core::tracingEnabled(Cfg.Mode)) {
      const core::CycleStats &Cycle = R.Stats.Cycles[Seg.CycleIndex];
      Ok &= check("sequitur", Label,
                  Seg.Refs.size() == Cycle.TracedRefs &&
                      sameSnapshot(Profiler.grammar().snapshot(),
                                   Seg.Snapshot),
                  "re-driven grammar differs from the captured snapshot");
      T.RulesAtAnalysis += Profiler.grammar().ruleCount();
      if (core::analysisEnabled(Cfg.Mode)) {
        analysis::AnalysisConfig AC = Cfg.Analysis;
        AC.HeatThreshold = std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(Cycle.TracedRefs) *
                                     Cfg.HeatTraceFraction));
        S = Log.open("analysis.analyze", Cell, ReplaySpan);
        const sequitur::GrammarSnapshot Snapshot =
            Profiler.grammar().snapshot();
        analysis::FastAnalysisResult Result =
            analysis::analyzeHotStreams(Snapshot, AC);
        AnalyzeNs += Log.close(S);
        ++AnalyzeCalls;
        Ok &= check("analysis", Label,
                    Result.Streams.size() == Cycle.HotStreamsDetected,
                    "analyzeHotStreams found " +
                        std::to_string(Result.Streams.size()) +
                        " streams, the cell " +
                        std::to_string(Cycle.HotStreamsDetected));
        T.HotStreams += Result.Streams.size();
        for (const analysis::HotDataStream &Stream : Result.Streams)
          T.HeatSum += Stream.Heat;
        T.HeatTrace += Result.TraceLength;

        if (core::injectionEnabled(Cfg.Mode) && !Result.Streams.empty()) {
          const std::vector<std::vector<uint32_t>> Selected =
              selectInstalled(std::move(Result.Streams), Profiler, Cfg);
          if (!Selected.empty()) {
            S = Log.open("dfsm.build", Cell, ReplaySpan);
            const dfsm::PrefixDfsm Machine(Selected, Cfg.Dfsm);
            const dfsm::CheckCode Code =
                dfsm::generateCheckCode(Machine, Profiler.refTable());
            DfsmNs += Log.close(S);
            ++DfsmCalls;
            Ok &= check("dfsm", Label,
                        Selected.size() == Cycle.StreamsInstalled &&
                            Machine.stateCount() == Cycle.DfsmStates &&
                            Code.totalClauses() == Cycle.CheckClausesInjected,
                        "rebuilt DFSM differs from the cell's");
            T.DfsmStates += Machine.stateCount();
            T.DfsmClauses += Code.totalClauses();
          }
        }
      }
    }
    if (Seg.ResetAfter)
      Profiler.startNewCycle();
  }
  if (AnalyzeCalls)
    ++Layers["analysis"].ExactCells;
  if (Appends)
    ++Layers["sequitur"].ExactCells;
  if (DfsmCalls)
    ++Layers["dfsm"].ExactCells;

  // core: PrefetchEngine::install / onAccess on the scanned accesses.
  uint64_t ScanNs = 0, ScanCalls = 0, InstallNs = 0;
  if (!Cap->Windows.empty()) {
    core::PrefetchEngine Engine;
    if (Cfg.Prefetchers.any())
      Engine.setStreamTagBase(
          prefetch::PrefetcherStack(Cfg.Prefetchers).tagCount());
    memsim::MemoryHierarchy Scratch(Cfg.L1, Cfg.L2, Cfg.Latency);
    core::RunStats Stats;
    for (const InstallWindow &W : Cap->Windows) {
      dfsm::CheckCode Code = W.Code;
      std::vector<core::PrefetchEngine::InstalledStream> Streams = W.Streams;
      S = Log.open("core.install", Cell, ReplaySpan);
      Engine.install(std::move(Code), std::move(Streams), W.SiteCount,
                     W.InstallCycle);
      InstallNs += Log.close(S);
      S = Log.open("core.check_scan", Cell, ReplaySpan);
      for (const auto &[Site, Addr] : W.Scanned)
        Engine.onAccess(Site, Addr, Cfg, Scratch, Stats);
      ScanNs += Log.close(S);
      ScanCalls += W.Scanned.size();
      Engine.uninstall();
    }
    Ok &= check("core", Label,
                Stats.MatchClausesScanned == R.Stats.MatchClausesScanned &&
                    Stats.CompleteMatches == R.Stats.CompleteMatches,
                "re-run scanned " + std::to_string(Stats.MatchClausesScanned) +
                    " clauses, the cell " +
                    std::to_string(R.Stats.MatchClausesScanned));
    ++Layers["core"].ExactCells;
  }
  approximate("core",
              "dispatch self time is replay.run minus the re-run layers; on "
              "instrumented cells it also holds the memsim work the memsim "
              "pass cannot replay");
  approximate("workloads",
              "driver self time is workloads.run minus (replay.run minus the "
              "recording's bare decode loop); it reads below zero when "
              "ReplayWorkload decodes events more slowly than that loop by "
              "more than the workload's own loops cost");
  Log.close(Root);

  if (Baseline) {
    // Only the demand-path reference for memsim.prefetch_fill_ns_per_issue.
    T.DemandRefNs += static_cast<double>(Plain.Ns) -
                     static_cast<double>(DecodeNs);
    T.DemandRefAccesses += Accesses;
    return Ok;
  }

  // Self times: each layer's re-run busy time, minus what its children
  // (the other re-runs) account for.
  const double OtherLayers = static_cast<double>(
      CheckNs + AppendNs + AnalyzeNs + DfsmNs + ScanNs + InstallNs);
  T.Cells += 1;
  T.Accesses += Accesses;
  T.CellNs += SetupNs + RunNs;
  T.RunExperimentNs += RunExperimentNs;
  T.ResultsJsonNs += ResultsJsonNs;
  T.SetupNs += SetupNs;
  T.RunNs += RunNs;
  T.ReplayNs += ReplayNs;
  T.DecodeNs += DecodeNs;
  T.PassPlainNs += Plain.Ns;
  T.PassTracedNs += Timed.Ns;
  T.DriverNs += static_cast<double>(RunNs) - static_cast<double>(ReplayNs) +
                static_cast<double>(DecodeNs);
  T.DispatchNs += static_cast<double>(ReplayNs) -
                  static_cast<double>(Plain.Ns) - OtherLayers;
  T.MemsimNs += MemsimNs;
  T.PrefetchNs += PfNs;
  T.CheckNs += CheckNs;
  T.AppendNs += AppendNs;
  T.AnalyzeNs += AnalyzeNs;
  T.DfsmNs += DfsmNs;
  T.ScanNs += ScanNs;
  T.InstallNs += InstallNs;
  T.PfCalls += Timed.PfCalls;
  T.Checks += Cap->CheckStates.size();
  T.Appends += Appends;
  T.AnalyzeCalls += AnalyzeCalls;
  T.DfsmCalls += DfsmCalls;
  T.ScanCalls += ScanCalls;

  if (OriginalMode && !Cfg.Prefetchers.any()) {
    T.DemandRefNs += MemsimNs;
    T.DemandRefAccesses += Accesses;
  } else if (OriginalMode) {
    T.FillCellsMemsimNs += MemsimNs;
    T.FillCellsAccesses += Accesses;
    T.FillCellsIssued += R.Memory.PrefetchesIssued;
  }

  T.DemandAccesses += R.Memory.DemandAccesses;
  T.L1Misses += R.L1.Misses;
  T.MemIssued += R.Memory.PrefetchesIssued;
  T.Dropped += R.Memory.PrefetchesDroppedQueueFull;
  T.MemUseful += R.Memory.PrefetchesUseful;
  auto Gap = [&](uint64_t Issued, uint64_t Classified) {
    ++T.Rows;
    const uint64_t D =
        Issued > Classified ? Issued - Classified : Classified - Issued;
    T.OutcomeGap += D;
    T.GapRows += D != 0;
  };
  for (const obs::PrefetcherStats &Row : R.Prefetchers) {
    Gap(Row.Issued, Row.Useful + Row.Late + Row.Redundant +
                        Row.DroppedQueueFull + Row.UnusedEvicted);
    T.PfTrains += Row.Trains;
    T.PfIssued += Row.Issued;
    T.PfUseful += Row.Useful;
    T.PfLate += Row.Late;
  }
  for (const obs::StreamPrefetchStats &Row : R.Streams) {
    Gap(Row.Issued, Row.Useful + Row.Late + Row.Redundant +
                        Row.DroppedQueueFull + Row.UnusedEvicted);
    T.Squelches += Row.Squelches;
  }
  T.TunerEpochs += TunerEpochs;
  T.ClausesScanned += R.Stats.MatchClausesScanned;
  T.CompleteMatches += R.Stats.CompleteMatches;
  T.TracedRefs += R.Stats.TracedRefs;

  if (Cfg.Prefetchers.any()) {
    // Zoo cells enable one kind each (duel wraps the others).
    EngineTotals &E = Engines[Spec.Prefetchers.token()];
    E.Ns += PfNs;
    E.Accesses += Accesses;
    for (const obs::PrefetcherStats &Row : R.Prefetchers) {
      E.Issued += Row.Issued;
      E.Useful += Row.Useful;
    }
  }
  return Ok;
}

/// Median cost of one steady_clock reading, measured back to back.
uint64_t clockCostNs() {
  std::vector<uint64_t> Samples;
  for (int I = 0; I < 2001; ++I) {
    const uint64_t A = nowNs();
    const uint64_t B = nowNs();
    Samples.push_back(B - A);
  }
  std::nth_element(Samples.begin(), Samples.begin() + 1000, Samples.end());
  return Samples[1000];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

bool SpanLog::writeJson(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\"spans\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"cell\": %u, "
                 "\"parent\": %d, \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"calls\": %llu, \"busy_ns\": %llu}",
                 I ? ",\n" : "", I, S.Name.c_str(), S.Cell, S.Parent,
                 (unsigned long long)S.StartNs, (unsigned long long)S.EndNs,
                 (unsigned long long)S.Calls, (unsigned long long)S.BusyNs);
  }
  std::fprintf(Out, "]}\n");
  return std::fclose(Out) == 0;
}

int perfbench::runTraced(const BenchWorkload &W, const std::string &OutPath,
                         const std::string &SpansPath) {
  SpanLog Log;
  const uint64_t ClockNs = clockCostNs();
  CellTracer Tr(Log, ClockNs);
  uint64_t Failed = 0;
  std::vector<std::string> Labels;
  uint32_t Cell = 0;
  for (const auto *List : {&W.Baselines, &W.Cells})
    for (engine::ExperimentSpec Spec : *List) {
      Spec.Scale = W.TraceScale;
      const bool Baseline = List == &W.Baselines;
      Failed += !Tr.traceCell(Spec, Cell++, Baseline);
      Labels.push_back(Spec.label() + (Baseline ? " (baseline)" : ""));
    }
  if (!Log.writeJson(SpansPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", SpansPath.c_str());
    return 1;
  }

  const Totals &T = Tr.T;
  const double Acc = static_cast<double>(T.Accesses);
  const double DemandNs = ratio(T.DemandRefNs, double(T.DemandRefAccesses));
  std::vector<std::tuple<std::string, double, std::string>> M;
  auto Add = [&](std::string Name, double Value, std::string Unit) {
    M.emplace_back(std::move(Name), Value, std::move(Unit));
  };
  // memsim
  Add("memsim.demand_ns_per_access", DemandNs, "ns/access");
  Add("memsim.prefetch_fill_ns_per_issue",
      ratio(T.FillCellsMemsimNs -
                DemandNs * static_cast<double>(T.FillCellsAccesses),
            double(T.FillCellsIssued)),
      "ns/prefetch");
  Add("memsim.l1_miss_ratio",
      ratio(double(T.L1Misses), double(T.DemandAccesses)), "ratio");
  Add("memsim.prefetches_issued", double(T.MemIssued), "count");
  Add("memsim.dropped_queue_full", double(T.Dropped), "count");
  Add("memsim.useful_ratio", ratio(double(T.MemUseful), double(T.MemIssued)),
      "ratio");
  Add("memsim.outcome_gap", double(T.OutcomeGap), "count");
  Add("memsim.outcome_gap_rows", double(T.GapRows), "count");
  // prefetch
  Add("prefetch.on_access_ns_per_access", ratio(T.PrefetchNs, Acc),
      "ns/access");
  for (const char *Kind : {"stride", "markov", "stream", "pair", "duel"}) {
    const auto It = Tr.Engines.find(Kind);
    const EngineTotals E = It == Tr.Engines.end() ? EngineTotals() : It->second;
    const std::string P = std::string("prefetch.") + Kind + ".";
    Add(P + "on_access_ns_per_access", ratio(E.Ns, double(E.Accesses)),
        "ns/access");
    Add(P + "issued", double(E.Issued), "count");
    Add(P + "useful_ratio", ratio(double(E.Useful), double(E.Issued)), "ratio");
  }
  Add("prefetch.trains", double(T.PfTrains), "count");
  Add("prefetch.issued", double(T.PfIssued), "count");
  Add("prefetch.useful_ratio", ratio(double(T.PfUseful), double(T.PfIssued)),
      "ratio");
  Add("prefetch.late_ratio", ratio(double(T.PfLate), double(T.PfIssued)),
      "ratio");
  Add("prefetch.tuner_epochs", double(T.TunerEpochs), "count");
  Add("prefetch.squelches", double(T.Squelches), "count");
  // core
  Add("core.dispatch_self_ns_per_access", ratio(T.DispatchNs, Acc),
      "ns/access");
  Add("core.check_scan_ns", ratio(double(T.ScanNs), double(T.ScanCalls)),
      "ns/scan");
  Add("core.clauses_scanned", double(T.ClausesScanned), "count");
  Add("core.complete_matches", double(T.CompleteMatches), "count");
  // profiling
  Add("profiling.check_ns", ratio(double(T.CheckNs), double(T.Checks)),
      "ns/check");
  Add("profiling.checks", double(T.Checks), "count");
  Add("profiling.traced_refs", double(T.TracedRefs), "count");
  Add("profiling.traced_share", ratio(double(T.TracedRefs), Acc), "ratio");
  // sequitur
  Add("sequitur.append_ns_per_ref",
      ratio(double(T.AppendNs), double(T.Appends)), "ns/ref");
  Add("sequitur.appends", double(T.Appends), "count");
  Add("sequitur.rules_at_analysis",
      ratio(double(T.RulesAtAnalysis), double(T.AnalyzeCalls)), "rules");
  // analysis
  Add("analysis.analyze_ns_per_call",
      ratio(double(T.AnalyzeNs), double(T.AnalyzeCalls)), "ns/call");
  Add("analysis.calls", double(T.AnalyzeCalls), "count");
  Add("analysis.hot_streams", double(T.HotStreams), "count");
  Add("analysis.heat_coverage", ratio(double(T.HeatSum), double(T.HeatTrace)),
      "ratio");
  // dfsm
  Add("dfsm.build_ns_per_call", ratio(double(T.DfsmNs), double(T.DfsmCalls)),
      "ns/call");
  Add("dfsm.states", double(T.DfsmStates), "count");
  Add("dfsm.clauses", double(T.DfsmClauses), "count");
  // workloads
  Add("workloads.setup_ns", ratio(double(T.SetupNs), double(T.Cells)),
      "ns/cell");
  Add("workloads.driver_self_ns_per_access", ratio(T.DriverNs, Acc),
      "ns/access");
  // engine
  Add("engine.run_experiment_ns",
      ratio(double(T.RunExperimentNs), double(T.Cells)), "ns/cell");
  Add("engine.results_json_ns", ratio(double(T.ResultsJsonNs), double(T.Cells)),
      "ns/cell");
  // tracing
  Add("trace.overhead_pct",
      100.0 * ratio(double(T.PassTracedNs) - double(T.PassPlainNs),
                    double(T.PassPlainNs)),
      "%");
  // Layer shares of the cells' untraced set-up + run time.
  const double Cells = static_cast<double>(T.CellNs);
  Add("share.workloads", ratio(double(T.SetupNs) + T.DriverNs, Cells), "share");
  Add("share.core",
      ratio(T.DispatchNs + double(T.ScanNs + T.InstallNs), Cells), "share");
  Add("share.memsim", ratio(T.MemsimNs, Cells), "share");
  Add("share.prefetch", ratio(T.PrefetchNs, Cells), "share");
  Add("share.profiling", ratio(double(T.CheckNs), Cells), "share");
  Add("share.sequitur", ratio(double(T.AppendNs), Cells), "share");
  Add("share.analysis", ratio(double(T.AnalyzeNs), Cells), "share");
  Add("share.dfsm", ratio(double(T.DfsmNs), Cells), "share");

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\"workload\": \"%s\", \"scale\": %.6g, \"cells\": %llu, "
               "\"traced\": %u, "
               "\"failed\": %llu, \"clock_ns\": %llu, \"busy_ns\": %llu, "
               "\"cell_labels\": [",
               W.Name.c_str(), W.TraceScale,
               (unsigned long long)T.Cells, Cell,
               (unsigned long long)Failed, (unsigned long long)ClockNs,
               (unsigned long long)T.RunExperimentNs);
  for (size_t I = 0; I < Labels.size(); ++I)
    std::fprintf(Out, "%s\"%s\"", I ? ", " : "",
                 engine::jsonEscape(Labels[I]).c_str());
  std::fprintf(Out, "],\n\"filters\": [");
  for (size_t I = 0; I < W.Filters.size(); ++I)
    std::fprintf(Out, "%s\"%s\"", I ? ", " : "", W.Filters[I].c_str());
  std::fprintf(Out, "],\n\"layers\": {");
  bool First = true;
  for (const auto &[Name, S] : Tr.Layers) {
    std::fprintf(Out, "%s\n  \"%s\": {\"exact_cells\": %llu, \"failed\": "
                      "%llu, \"approximate\": \"%s\", \"failures\": [",
                 First ? "" : ",", Name.c_str(),
                 (unsigned long long)S.ExactCells,
                 (unsigned long long)S.Failed,
                 engine::jsonEscape(S.Approximate).c_str());
    for (size_t I = 0; I < S.Failures.size(); ++I)
      std::fprintf(Out, "%s\"%s\"", I ? ", " : "",
                   engine::jsonEscape(S.Failures[I]).c_str());
    std::fprintf(Out, "]}");
    First = false;
  }
  std::fprintf(Out, "},\n\"metrics\": {");
  for (size_t I = 0; I < M.size(); ++I)
    std::fprintf(Out, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 I ? "," : "", std::get<0>(M[I]).c_str(), std::get<1>(M[I]),
                 std::get<2>(M[I]).c_str());
  std::fprintf(Out, "}}\n");
  return std::fclose(Out) == 0 ? 0 : 1;
}
