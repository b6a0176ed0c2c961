//===- engine/Views.cpp - Figures and tables as views of results ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/Views.h"

#include "engine/ResultsDiff.h"
#include "engine/ResultsJson.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cstdlib>
#include <initializer_list>

using namespace hds;
using namespace hds::engine;

namespace {

using core::RunMode;
using Rows = std::vector<std::vector<std::string>>;

/// The key --diff gives \p Spec's cell: the spec is serialized as an
/// unrun result and read back, so views pair cells by exactly the
/// rules --diff uses (appended-field defaults included).
std::string cellKey(const ExperimentSpec &Spec) {
  RunResult Unrun;
  Unrun.Spec = Spec;
  std::vector<ResultCell> Cells;
  std::string Error;
  readResultCells(resultsToJson({Unrun}), Cells, Error);
  return Cells.front().Key;
}

/// What a renderer reads cells through.  Without a document it only
/// records the specs it is asked for and answers 0; with one it answers
/// from the document and records the needed cells it cannot use.  A
/// renderer must read the same cells whatever the answers, so that the
/// recorded list is the list it needs.
class CellReader {
public:
  CellReader() = default;
  explicit CellReader(const std::vector<ResultCell> &Document)
      : Doc(&Document) {}

  /// The scalar at \p Path ("cycles", "l2.misses") of \p Spec's cell.
  double metric(const ExperimentSpec &Spec, const std::string &Path) {
    if (const ResultCell *Cell = find(Spec))
      for (const auto &[Name, Value] : Cell->Metrics)
        if (Name == Path)
          return std::strtod(Value.c_str(), nullptr);
    return 0.0;
  }

  /// \p Field of every optimization cycle of \p Spec's cell, in order.
  std::vector<double> phases(const ExperimentSpec &Spec,
                             const std::string &Field) {
    std::vector<double> Out;
    if (const ResultCell *Cell = find(Spec))
      for (const auto &[Name, Value] : Cell->Metrics)
        if (Name.rfind("phases[", 0) == 0 &&
            Name.size() > Field.size() + 1 &&
            Name.compare(Name.size() - Field.size() - 1, std::string::npos,
                         "." + Field) == 0)
          Out.push_back(std::strtod(Value.c_str(), nullptr));
    return Out;
  }

  /// Every spec read so far, in first-read order.
  std::vector<ExperimentSpec> Needed;
  /// Why the first unusable needed cell cannot be used, and how many
  /// there are.
  std::string Unusable;
  size_t UnusableCount = 0;

private:
  const ResultCell *find(const ExperimentSpec &Spec) {
    const auto It = std::find(Needed.begin(), Needed.end(), Spec);
    if (It != Needed.end())
      return Found[static_cast<size_t>(It - Needed.begin())];
    Needed.push_back(Spec);
    const ResultCell *Cell = Doc ? lookup(Spec) : nullptr;
    Found.push_back(Cell);
    return Cell;
  }

  const ResultCell *lookup(const ExperimentSpec &Spec) {
    const std::string Key = cellKey(Spec);
    for (const ResultCell &Cell : *Doc) {
      if (Cell.Key != Key)
        continue;
      if (Cell.Status == "ok")
        return &Cell;
      note("cell " + Spec.label() + " did not run (status " + Cell.Status +
           ")");
      return nullptr;
    }
    note("the document lacks cell " + Spec.label() + " [" + Key + "]");
    return nullptr;
  }

  void note(const std::string &Reason) {
    if (UnusableCount++ == 0)
      Unusable = Reason;
  }

  const std::vector<ResultCell> *Doc = nullptr;
  std::vector<const ResultCell *> Found;
};

ExperimentSpec spec(const std::string &Workload, RunMode Mode, double Scale) {
  ExperimentSpec Spec;
  Spec.Workload = Workload;
  Spec.Mode = Mode;
  Spec.Scale = Scale;
  return Spec;
}

/// Percent change of \p Spec's cycles against \p Baseline's (negative
/// is faster): the y axis of Figures 11 and 12.
double pctVs(CellReader &R, const ExperimentSpec &Spec,
             const ExperimentSpec &Baseline) {
  const double Base = R.metric(Baseline, "cycles");
  const double Cycles = R.metric(Spec, "cycles");
  return Base == 0.0 ? 0.0 : 100.0 * (Cycles - Base) / Base;
}

/// pctVs against the Original cell of the same workload and L2.
double pct(CellReader &R, const ExperimentSpec &Spec) {
  ExperimentSpec Original = spec(Spec.Workload, RunMode::Original, Spec.Scale);
  Original.L2Bytes = Spec.L2Bytes;
  return pctVs(R, Spec, Original);
}

std::string pctText(double Pct) { return formatString("%+.1f%%", Pct); }

std::string countText(double Value) { return formatString("%.0f", Value); }

/// Useful prefetches (either level) per prefetch issued.
double accuracy(CellReader &R, const ExperimentSpec &Spec) {
  const double Issued = R.metric(Spec, "memory.prefetches_issued");
  const double Useful = R.metric(Spec, "l1.useful_prefetches") +
                        R.metric(Spec, "l2.useful_prefetches");
  return Issued == 0.0 ? 0.0 : Useful / Issued;
}

std::vector<std::string> withTwoPhase() {
  std::vector<std::string> Names = workloads::allWorkloadNames();
  Names.push_back("twophase"); // the phase-changing program
  return Names;
}

/// One row per workload, one column per mode: % cycles vs Original.
Rows modeColumns(CellReader &R, double Scale, Rows Out,
                 std::initializer_list<RunMode> Modes) {
  for (const std::string &Name : workloads::allWorkloadNames()) {
    std::vector<std::string> &Row = Out.emplace_back(1, Name);
    for (RunMode Mode : Modes)
      Row.push_back(pctText(pct(R, spec(Name, Mode, Scale))));
  }
  return Out;
}

// Figure 11: overhead of online profiling and analysis.
Rows fig11(CellReader &R, double Scale) {
  return modeColumns(R, Scale, {{"benchmark", "Base", "Prof", "Hds"}},
                     {RunMode::ChecksOnly, RunMode::Profile,
                      RunMode::ProfileAnalyze});
}

// Figure 12: performance impact of dynamic prefetching.
Rows fig12(CellReader &R, double Scale) {
  return modeColumns(R, Scale,
                     {{"benchmark", "No-pref", "Seq-pref", "Dyn-pref"}},
                     {RunMode::MatchNoPrefetch, RunMode::SequentialPrefetch,
                      RunMode::DynamicPrefetch});
}

// Table 2: Dyn-pref characterization, averaged per optimization cycle.
// The paper counts injected check clauses, not raw DFSM edges.
Rows table2(CellReader &R, double Scale) {
  Rows Out = {{"benchmark", "# opt. cycles", "traced refs", "# hds", "DFSM",
               "# procs modified"}};
  for (const std::string &Name : workloads::allWorkloadNames()) {
    const ExperimentSpec Dyn = spec(Name, RunMode::DynamicPrefetch, Scale);
    auto Mean = [&](const char *Field) {
      const std::vector<double> Values = R.phases(Dyn, Field);
      double Sum = 0.0;
      for (double Value : Values)
        Sum += Value;
      return Values.empty() ? 0.0 : Sum / static_cast<double>(Values.size());
    };
    Out.push_back({Name, std::to_string(R.phases(Dyn, "traced_refs").size()),
                   countText(Mean("traced_refs")),
                   countText(Mean("streams_installed")),
                   formatString("<%.0f states, %.0f checks>",
                                Mean("dfsm_states"),
                                Mean("check_clauses_injected")),
                   countText(Mean("procedures_modified"))});
  }
  return Out;
}

// §4.3: prefix-match length 1..3, with the paper's literal head
// placement and with quiet placement; net % vs Original and the useful
// fraction of issued prefetches.
Rows headlen(CellReader &R, double Scale) {
  Rows Out = {{"benchmark", "placement", "net@1", "net@2", "net@3", "acc@1",
               "acc@2", "acc@3"}};
  for (const std::string &Name : workloads::allWorkloadNames())
    for (const bool Quiet : {false, true}) {
      std::vector<std::string> Net, Acc;
      for (uint32_t Head = 1; Head <= 3; ++Head) {
        ExperimentSpec Dyn = spec(Name, RunMode::DynamicPrefetch, Scale);
        Dyn.HeadLength = Head;
        Dyn.QuietHead = Quiet;
        Net.push_back(pctText(pct(R, Dyn)));
        Acc.push_back(formatString("%.2f", accuracy(R, Dyn)));
      }
      std::vector<std::string> &Row = Out.emplace_back(
          std::vector<std::string>{Name, Quiet ? "quiet" : "literal"});
      Row.insert(Row.end(), Net.begin(), Net.end());
      Row.insert(Row.end(), Acc.begin(), Acc.end());
    }
  return Out;
}

// §2.1: Prof overhead on mcf against the awake sampling rate, sweeping
// nCheck0 at the default burst length.  The off-by-a-bit values keep
// the burst period off the workload's loop period.
Rows samplingRate(CellReader &R, double Scale) {
  const ExperimentSpec Base = spec("mcf", RunMode::ChecksOnly, Scale);
  auto Overhead = [&](const ExperimentSpec &Spec) {
    return formatString("%+.2f%%", pct(R, Spec));
  };
  Rows Out = {{"awake sampling rate", "Prof overhead", "traced refs",
               "checks"},
              {"(checks only)", Overhead(Base), "0",
               countText(R.metric(Base, "checks_executed"))}};
  const double NInstr0 =
      static_cast<double>(core::OptimizerConfig().Tracing.NInstr0);
  for (const uint64_t NCheck0 : {23'971u, 11'971u, 5'971u, 2'971u, 1'471u}) {
    ExperimentSpec Prof = spec("mcf", RunMode::Profile, Scale);
    Prof.NCheck0 = NCheck0;
    Out.push_back(
        {formatString("%.3f%%", 100.0 * NInstr0 /
                                    (static_cast<double>(NCheck0) + NInstr0)),
         Overhead(Prof), countText(R.metric(Prof, "traced_refs")),
         countText(R.metric(Prof, "checks_executed"))});
  }
  return Out;
}

/// A hardware prefetcher alone, Dyn-pref alone, and both together.
Rows complement(CellReader &R, double Scale, prefetch::Prefetcher::Kind Kind) {
  const std::string Token = prefetch::Prefetcher::kindToken(Kind);
  Rows Out = {{"benchmark", Token + " only", "Dyn-pref only",
               "Dyn-pref + " + Token}};
  for (const std::string &Name : workloads::allWorkloadNames()) {
    ExperimentSpec Hardware = spec(Name, RunMode::Original, Scale);
    Hardware.Prefetchers.set(Kind, true);
    const ExperimentSpec Dyn = spec(Name, RunMode::DynamicPrefetch, Scale);
    ExperimentSpec Both = Dyn;
    Both.Prefetchers.set(Kind, true);
    Out.push_back({Name, pctText(pct(R, Hardware)), pctText(pct(R, Dyn)),
                   pctText(pct(R, Both))});
  }
  return Out;
}

// §4.3: stride prefetching as a complement to hot data streams.
Rows stride(CellReader &R, double Scale) {
  return complement(R, Scale, prefetch::Prefetcher::Stride);
}

// §5.1: Markov correlation prefetching (2 successors per node).
Rows markov(CellReader &R, double Scale) {
  return complement(R, Scale, prefetch::Prefetcher::Markov);
}

// §1 future work: static (the first optimization pinned, the profiling
// framework gone) against dynamic, plus the phase-changing program.
Rows staticVsDynamic(CellReader &R, double Scale) {
  Rows Out = {{"benchmark", "static", "dynamic", "static matches",
               "dynamic matches"}};
  for (const std::string &Name : withTwoPhase()) {
    const ExperimentSpec Dynamic =
        spec(Name, RunMode::DynamicPrefetch, Scale);
    ExperimentSpec Static = Dynamic;
    Static.Pin = true;
    Out.push_back({Name, pctText(pct(R, Static)), pctText(pct(R, Dynamic)),
                   countText(R.metric(Static, "complete_matches")),
                   countText(R.metric(Dynamic, "complete_matches"))});
  }
  return Out;
}

// §5.2: adaptive hibernation; the trail lists the hibernation length
// (burst periods) chosen after each optimization cycle.
Rows adaptive(CellReader &R, double Scale) {
  Rows Out = {{"benchmark", "fixed", "adaptive", "cycles",
               "hibernation trail"}};
  for (const std::string &Name : withTwoPhase()) {
    const ExperimentSpec Fixed = spec(Name, RunMode::DynamicPrefetch, Scale);
    ExperimentSpec Adaptive = Fixed;
    Adaptive.Adaptive = true;
    std::string Trail;
    for (double Periods : R.phases(Adaptive, "next_hibernation_periods"))
      Trail += (Trail.empty() ? "" : ",") + countText(Periods);
    Out.push_back({Name, pctText(pct(R, Fixed)), pctText(pct(R, Adaptive)),
                   formatString("%zu->%zu",
                                R.phases(Fixed, "traced_refs").size(),
                                R.phases(Adaptive, "traced_refs").size()),
                   Trail.empty() ? "-" : Trail});
  }
  return Out;
}

// Sensitivity: Dyn-pref % vs Original at each L2 capacity, and the
// Original program's L2 miss rate there.  The hot working sets are a few
// tens of KB, so the transitions sit below the paper's 256 KB.
Rows cachesize(CellReader &R, double Scale) {
  const uint64_t Sizes[] = {16 * 1024, 32 * 1024, 64 * 1024, 256 * 1024,
                            1024 * 1024};
  Rows Out = {{"Dyn-pref / original L2 miss"}};
  for (const uint64_t Bytes : Sizes)
    Out[0].push_back(std::to_string(Bytes / 1024) + "KB");
  for (const char *Name : {"vpr", "mcf", "vortex"}) {
    std::vector<std::string> &Row = Out.emplace_back(1, Name);
    for (const uint64_t Bytes : Sizes) {
      ExperimentSpec Original = spec(Name, RunMode::Original, Scale);
      Original.L2Bytes = Bytes;
      ExperimentSpec Dyn = Original;
      Dyn.Mode = RunMode::DynamicPrefetch;
      const double Misses = R.metric(Original, "l2.misses");
      const double Accesses = R.metric(Original, "l2.hits") + Misses;
      Row.push_back(pctText(pct(R, Dyn)) + " / " +
                    formatString("%.0f%%", Accesses == 0.0
                                               ? 0.0
                                               : 100.0 * Misses / Accesses));
    }
  }
  return Out;
}

struct View {
  const char *Name;
  Rows (*Render)(CellReader &, double Scale);
};

constexpr View Views[] = {
    {"fig11", fig11},       {"fig12", fig12},
    {"table2", table2},     {"headlen", headlen},
    {"sampling_rate", samplingRate},
    {"stride", stride},     {"markov", markov},
    {"static", staticVsDynamic},
    {"adaptive", adaptive}, {"cachesize", cachesize},
};

const View *findView(const std::string &Name) {
  for (const View &V : Views)
    if (Name == V.Name)
      return &V;
  return nullptr;
}

std::string markdown(const Rows &Table) {
  std::string Out;
  for (size_t I = 0; I < Table.size(); ++I) {
    Out += '|';
    for (const std::string &Cell : Table[I])
      Out += ' ' + Cell + " |";
    Out += '\n';
    if (I == 0) {
      Out += '|';
      for (size_t Column = 0; Column < Table[0].size(); ++Column)
        Out += "---|";
      Out += '\n';
    }
  }
  return Out;
}

} // namespace

std::string hds::engine::viewNameList() {
  std::string Out;
  for (const View &V : Views)
    Out += std::string(Out.empty() ? "" : ", ") + V.Name;
  return Out;
}

bool hds::engine::viewCells(const std::string &Name, double Scale,
                            std::vector<ExperimentSpec> &Out) {
  const View *V = findView(Name);
  if (!V)
    return false;
  CellReader Collect;
  V->Render(Collect, Scale);
  Out = std::move(Collect.Needed);
  return true;
}

bool hds::engine::renderView(const std::string &Name, double Scale,
                             const std::string &Json, std::string &Out,
                             std::string &Error) {
  const View *V = findView(Name);
  if (!V) {
    Error = "unknown view '" + Name + "' (expected " + viewNameList() + ")";
    return false;
  }
  std::vector<ResultCell> Cells;
  if (!readResultCells(Json, Cells, Error))
    return false;
  CellReader Read(Cells);
  const Rows Table = V->Render(Read, Scale);
  if (Read.UnusableCount != 0) {
    Error = "view " + Name + ": " + Read.Unusable;
    if (Read.UnusableCount > 1)
      Error += " (and " + std::to_string(Read.UnusableCount - 1) +
               " more needed cells)";
    return false;
  }
  Out = markdown(Table);
  return true;
}
