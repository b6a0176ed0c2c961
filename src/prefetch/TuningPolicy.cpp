//===- prefetch/TuningPolicy.cpp - Closed-loop degree/distance ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/TuningPolicy.h"

#include <algorithm>

using namespace hds;
using namespace hds::prefetch;

TuningPolicy::StreamState &TuningPolicy::stateFor(uint32_t Tag,
                                                  uint32_t FallbackDegree) {
  if (Tag >= States.size())
    States.resize(Tag + 1);
  StreamState &State = States[Tag];
  if (!State.Active) {
    State.Active = true;
    State.Degree = std::min(FallbackDegree, Config.MaxDegree);
    State.Distance = 0;
  }
  return State;
}

void TuningPolicy::rollEpoch(
    const std::vector<obs::PrefetchClassCounts> &Classes) {
  ++EpochsRolled;
  const size_t Tags = std::min(States.size(), Classes.size());
  for (size_t Tag = 0; Tag < Tags; ++Tag) {
    StreamState &State = States[Tag];
    if (!State.Active)
      continue;
    const obs::PrefetchClassCounts &Now = Classes[Tag];
    const obs::PrefetchClassCounts &Then = State.Snapshot;
    // Placed prefetches queued a fill; redundant and queue-full issues
    // cost the machine nothing, so they are neither signal nor blame.
    const uint64_t Placed = (Now.Issued - Then.Issued) -
                            (Now.Redundant - Then.Redundant) -
                            (Now.DroppedQueueFull - Then.DroppedQueueFull);
    const uint64_t Useful = Now.Useful - Then.Useful;
    const uint64_t Late = Now.Late - Then.Late;
    State.Snapshot = Now;

    if (State.Degree == 0) {
      // Squelched: sit out probation, then probe at degree 1.
      if (++State.SquelchedEpochs >= Config.ProbationEpochs) {
        State.Degree = 1;
        State.SquelchedEpochs = 0;
        ++State.Probes;
      }
      continue;
    }
    if (Placed < Config.MinSample)
      continue; // too little signal; hold the settings

    // accuracy = (useful + late)/placed vs AccuracyNum/AccuracyDen,
    // compared by cross-multiplication to stay in integers.  A late
    // prefetch was still correct; timeliness below steers the distance.
    const uint64_t Demanded = Useful + Late;
    const bool Accurate =
        Demanded * Config.AccuracyDen >= Placed * Config.AccuracyNum;
    if (!Accurate) {
      State.Degree /= 2;
      if (State.Degree == 0) {
        ++State.Squelches;
        State.SquelchedEpochs = 0;
        continue; // newly squelched; distance holds until the re-probe
      }
    } else if (State.Degree < Config.MaxDegree) {
      ++State.Degree;
    }

    // timeliness = useful/(useful+late); grow the distance while late
    // prefetches dominate, shrink it only on an epoch with none at all
    // (the cautious reverse move, so the loop doesn't oscillate).
    if (Demanded == 0)
      continue;
    const bool Timely =
        Useful * Config.TimelyDen >= Demanded * Config.TimelyNum;
    if (!Timely) {
      if (State.Distance < Config.MaxDistance)
        ++State.Distance;
    } else if (Late == 0 && State.Distance > 0) {
      --State.Distance;
    }
  }
}
