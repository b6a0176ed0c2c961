//===- hds_perfbench/Main.cpp - Benchmark program entry point -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in-process and writes its raw measurements
// as JSON; perfbench/run.py turns them into the reported metrics.
//
//   hds_perfbench run   --workload W --seed N[,N...] --seconds S --out FILE
//   hds_perfbench trace --workload W --seed N --out FILE --spans FILE
//
// run: untraced, over one or more layout seeds.  Warms the host up, then
// runs rounds of runExperiment over the cells, cycling through the
// layouts, until S seconds have passed (one round per layout at least),
// timing each cell and, just before it, the cell's set-up on its own
// (Runtime construction + Workload::setup).  Every round's simulated
// results must equal the first round's of the same layout byte for byte.
//
// trace: one traced pass over the cells (see Traced.h).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Traced.h"
#include "Workloads.h"

#include "engine/ExperimentRunner.h"
#include "engine/ResultsJson.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace hds;
using namespace perfbench;

namespace {

struct Options {
  std::string Command;
  std::string Workload;
  /// Layout seeds: one for trace, one or more for run.
  std::vector<uint64_t> Seeds;
  double Seconds = 10.0;
  std::string OutPath;
  std::string SpansPath;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: hds_perfbench run --workload W --seed N[,N...] "
               "--seconds S --out FILE\n"
               "       hds_perfbench trace --workload W --seed N --out FILE "
               "--spans FILE\n",
               Why);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  if (Argc < 2)
    usage("missing command");
  Opts.Command = Argv[1];
  if (Opts.Command != "run" && Opts.Command != "trace")
    usage("unknown command");
  for (int I = 2; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      usage("option without value");
    const std::string Key = Argv[I];
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      Opts.Workload = Value;
    } else if (Key == "--seed") {
      for (const char *P = Value;; P = End + 1) {
        Opts.Seeds.push_back(std::strtoull(P, &End, 10));
        if (End == P || (*End != ',' && *End != '\0'))
          usage("--seed takes decimal integers separated by commas");
        if (*End == '\0')
          break;
      }
    } else if (Key == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
      if (*Value == '\0' || *End != '\0' || !(Opts.Seconds >= 0))
        usage("--seconds takes a non-negative number");
    } else if (Key == "--out") {
      Opts.OutPath = Value;
    } else if (Key == "--spans") {
      Opts.SpansPath = Value;
    } else {
      usage("unknown option");
    }
  }
  if (Opts.Workload.empty() || Opts.OutPath.empty() || Opts.Seeds.empty())
    usage("--workload, --seed and --out are required");
  if (Opts.Command == "trace" && Opts.Seeds.size() != 1)
    usage("trace takes one seed");
  if (Opts.Command == "trace" && Opts.SpansPath.empty())
    usage("trace needs --spans");
  return Opts;
}

/// Wall time of constructing the Runtime and running Workload::setup for
/// the cell \p Spec, once.
uint64_t timeSetup(const engine::ExperimentSpec &Spec) {
  const uint64_t Start = nowNs();
  std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(Spec.Workload);
  core::Runtime Rt(Spec.materializeConfig());
  applyLayoutSeed(Rt, Spec.Seed);
  Bench->setup(Rt);
  return nowNs() - Start;
}

/// What one layout's cells gave: the first round's results and the number
/// of later rounds whose results differ from them.
struct LayoutRuns {
  std::vector<engine::RunResult> First;
  std::vector<std::string> FirstJson;
  std::vector<uint64_t> Mismatches;
};

int runUntraced(const Options &Opts,
                const std::vector<BenchWorkload> &Layouts) {
  const size_t L = Layouts.size();
  const BenchWorkload &W0 = Layouts.front();
  const size_t N = W0.Cells.size();

  // Host warm-up (code, allocator, page cache) on a tenth of each cell;
  // the simulated caches still start empty in every measured cell.
  for (engine::ExperimentSpec Spec : W0.Cells) {
    Spec.Scale *= 0.1;
    (void)engine::runExperiment(Spec);
  }

  // Rounds cycle through the layouts; each runs every cell once.
  std::vector<LayoutRuns> Runs(L);
  std::vector<size_t> RoundLayout;
  std::vector<std::vector<uint64_t>> RoundNs;
  std::vector<uint64_t> RoundSetupNs;
  const uint64_t Budget = static_cast<uint64_t>(Opts.Seconds * 1e9);
  const uint64_t Begin = nowNs();
  while (RoundNs.size() < L || nowNs() - Begin < Budget) {
    const size_t Li = RoundNs.size() % L;
    LayoutRuns &Run = Runs[Li];
    std::vector<uint64_t> Ns(N);
    uint64_t SetupNs = 0;
    for (size_t I = 0; I < N; ++I) {
      // The cell's set-up is timed on its own just before the cell runs,
      // so that set-up samples, like cell runs, span the whole run.
      SetupNs += timeSetup(Layouts[Li].Cells[I]);
      const uint64_t Start = nowNs();
      engine::RunResult R = engine::runExperiment(Layouts[Li].Cells[I]);
      Ns[I] = nowNs() - Start;
      std::string Json = engine::resultsToJson({R});
      if (Run.First.size() < N) {
        Run.First.push_back(std::move(R));
        Run.FirstJson.push_back(std::move(Json));
        Run.Mismatches.push_back(0);
      } else if (Json != Run.FirstJson[I]) {
        ++Run.Mismatches[I];
      }
    }
    RoundLayout.push_back(Li);
    RoundNs.push_back(std::move(Ns));
    RoundSetupNs.push_back(SetupNs);
  }
  const uint64_t MeasuredNs = nowNs() - Begin;

  std::FILE *Out = std::fopen(Opts.OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\"workload\": \"%s\", \"scale\": %.6g, "
               "\"measured_ns\": %llu, \"filters\": [",
               W0.Name.c_str(), W0.Scale, (unsigned long long)MeasuredNs);
  for (size_t I = 0; I < W0.Filters.size(); ++I)
    std::fprintf(Out, "%s\"%s\"", I ? ", " : "", W0.Filters[I].c_str());
  std::fprintf(Out, "],\n\"labels\": [");
  for (size_t I = 0; I < N; ++I)
    std::fprintf(Out, "%s\"%s\"", I ? ", " : "",
                 engine::jsonEscape(W0.Cells[I].label()).c_str());
  std::fprintf(Out, "],\n\"rounds\": [");
  for (size_t R = 0; R < RoundNs.size(); ++R) {
    std::fprintf(Out, "%s\n{\"layout\": %zu, \"setup_ns\": %llu, \"ns\": [",
                 R ? "," : "", RoundLayout[R],
                 (unsigned long long)RoundSetupNs[R]);
    for (size_t I = 0; I < N; ++I)
      std::fprintf(Out, "%s%llu", I ? ", " : "",
                   (unsigned long long)RoundNs[R][I]);
    std::fprintf(Out, "]}");
  }
  std::fprintf(Out, "],\n\"layouts\": [");
  for (size_t Li = 0; Li < L; ++Li) {
    const LayoutRuns &Run = Runs[Li];
    std::fprintf(Out, "%s\n{\"seed\": %llu, \"cells\": [",
                 Li ? "," : "",
                 (unsigned long long)Layouts[Li].Cells.front().Seed);
    for (size_t I = 0; I < N; ++I)
      std::fprintf(Out,
                   "%s{\"ok\": %s, \"error\": \"%s\", \"accesses\": %llu, "
                   "\"repeat_mismatches\": %llu}",
                   I ? ", " : "", Run.First[I].ok() ? "true" : "false",
                   engine::jsonEscape(Run.First[I].Error).c_str(),
                   (unsigned long long)Run.First[I].Stats.TotalAccesses,
                   (unsigned long long)Run.Mismatches[I]);
    // The first round as one results document, as hds_matrix writes it
    // for the same specs (overhead_pct is relative to the document's
    // Original).
    std::fprintf(Out, "],\n\"document\": %s,\n\"baselines\": ",
                 engine::resultsToJson(Run.First).c_str());
    std::vector<engine::RunResult> Baselines;
    for (const engine::ExperimentSpec &Spec : Layouts[Li].Baselines)
      Baselines.push_back(engine::runExperiment(Spec));
    std::fprintf(Out, "%s}", engine::resultsToJson(Baselines).c_str());
  }
  std::fprintf(Out, "]}\n");
  return std::fclose(Out) == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);
  std::vector<BenchWorkload> Layouts(Opts.Seeds.size());
  for (size_t I = 0; I < Layouts.size(); ++I)
    if (!makeWorkload(Opts.Workload, Opts.Seeds[I], Layouts[I]))
      usage("unknown workload (paper, zoo, tuned, matrix)");
  if (Opts.Command == "run")
    return runUntraced(Opts, Layouts);
  return runTraced(Layouts.front(), Opts.OutPath, Opts.SpansPath);
}
