//===- prefetch/StridePrefetcher.cpp - PC-indexed stride prefetcher --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/StridePrefetcher.h"

#include <cstdlib>
#include <stdexcept>

using namespace hds;
using namespace hds::prefetch;

StridePrefetcher::StridePrefetcher(const StridePrefetcherConfig &Cfg,
                                   uint32_t AssignedTag)
    : Prefetcher(Kind::Stride, AssignedTag, AccessHook), Config(Cfg) {
  if (Cfg.TableEntries == 0)
    throw std::invalid_argument(
        "StridePrefetcherConfig: TableEntries must be at least 1");
  Table.resize(Cfg.TableEntries);
}

void StridePrefetcher::onAccess(const AccessEvent &Event,
                                memsim::MemoryHierarchy &Hierarchy) {
  countTrain();
  Entry &E = Table[tableIndex(Event.Site, Table.size())];

  if (E.Pc != Event.Site) {
    // Direct-mapped replacement: a new pc takes over the entry.
    E.Pc = Event.Site;
    E.LastAddr = Event.Addr;
    E.Stride = 0;
    E.Confidence = 0;
    return;
  }

  const int64_t NewStride =
      static_cast<int64_t>(Event.Addr) - static_cast<int64_t>(E.LastAddr);
  E.LastAddr = Event.Addr;

  if (NewStride == 0)
    return; // same address: neither trains nor breaks the pattern

  if (static_cast<uint64_t>(std::llabs(NewStride)) > Config.MaxStrideBytes) {
    // A jump: pointer chases and data-structure hops look like huge
    // pseudo-strides; drop the training state.
    E.Stride = 0;
    E.Confidence = 0;
    return;
  }

  if (NewStride == E.Stride) {
    if (E.Confidence < 2)
      ++E.Confidence;
  } else {
    E.Stride = NewStride;
    E.Confidence = 1;
    return;
  }

  if (E.Confidence < 2)
    return;

  ++StridesConfirmed;
  // Confirmed: run ahead.  Hardware prefetches spend no issue slots.
  for (uint32_t I = 1; I <= Config.Degree; ++I) {
    const int64_t Target =
        static_cast<int64_t>(Event.Addr) + NewStride * static_cast<int64_t>(I);
    if (Target < 0)
      break;
    issue(static_cast<memsim::Addr>(Target), Hierarchy);
  }
}

void StridePrefetcher::reset() {
  Prefetcher::reset();
  for (Entry &E : Table)
    E = Entry();
  StridesConfirmed = 0;
}
