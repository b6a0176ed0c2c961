//===- prefetch/PairTablePrefetcher.cpp - Temporal pair table --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/PairTablePrefetcher.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

using namespace hds;
using namespace hds::prefetch;

namespace {

/// \p Cfg, or an std::invalid_argument naming the knob it cannot honour.
const PairTableConfig &validated(const PairTableConfig &Cfg) {
  if (Cfg.Sets == 0)
    throw std::invalid_argument("PairTableConfig: Sets must be at least 1");
  if (Cfg.Ways == 0 || Cfg.Ways > PairTablePrefetcher::MaxWays)
    throw std::invalid_argument(
        "PairTableConfig: Ways must be 1.." +
        std::to_string(PairTablePrefetcher::MaxWays) + ", got " +
        std::to_string(Cfg.Ways));
  if (Cfg.MaxConfidence > 255)
    throw std::invalid_argument(
        "PairTableConfig: MaxConfidence must be at most 255, got " +
        std::to_string(Cfg.MaxConfidence));
  return Cfg;
}

} // namespace

PairTablePrefetcher::PairTablePrefetcher(const PairTableConfig &Cfg,
                                         uint32_t AssignedTag)
    : Prefetcher(Kind::PairTable, AssignedTag, MissHook | FillHook),
      Config(validated(Cfg)),
      SetMask(std::has_single_bit(Cfg.Sets) ? Cfg.Sets - 1 : 0),
      Words(size_t{Cfg.Sets} * 2 * Cfg.Ways + 7, NoBlock),
      Confidence(size_t{Cfg.Sets} * Cfg.Ways, 0) {
  const uintptr_t Base = reinterpret_cast<uintptr_t>(Words.data());
  WordsOffset = ((64 - Base % 64) % 64) / sizeof(uint64_t);
}

void PairTablePrefetcher::train(uint64_t FromBlock, uint64_t ToBlock) {
  countTrain();
  const size_t Set = setIndex(FromBlock);
  uint64_t *Keys = setWords(Set);
  uint64_t *Next = Keys + Config.Ways;
  uint8_t *Conf = setConfidence(Set);

  // Exact pair present: reinforce.
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    if (Keys[Way] == FromBlock && Next[Way] == ToBlock) {
      if (Conf[Way] < Config.MaxConfidence)
        ++Conf[Way];
      return;
    }
  }

  // Empty way: allocate at confidence 1.
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    if (Keys[Way] == NoBlock) {
      Keys[Way] = FromBlock;
      Next[Way] = ToBlock;
      Conf[Way] = 1;
      return;
    }
  }

  // Full set: decay the weakest way (first-wins ties keep replacement
  // deterministic); only a fully decayed way is handed to the new pair.
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way < Config.Ways; ++Way)
    if (Conf[Way] < Conf[Victim])
      Victim = Way;
  if (Conf[Victim] > 0) {
    --Conf[Victim];
    return;
  }
  Keys[Victim] = FromBlock;
  Next[Victim] = ToBlock;
  Conf[Victim] = 1;
}

void PairTablePrefetcher::predict(uint64_t Block, uint32_t Budget,
                                  memsim::MemoryHierarchy &Hierarchy) {
  const size_t Set = setIndex(Block);
  const uint64_t *Keys = setWords(Set);
  const uint64_t *Next = Keys + Config.Ways;
  const uint8_t *Conf = setConfidence(Set);
  // Most confident successors first; ties resolve by way order so the
  // issue sequence is a pure function of table state.  Candidate ways
  // are insertion-sorted by (confidence desc, way asc) into a local
  // array — sets are a handful of ways.  The array must be local: an
  // issue can complete a due fill whose chain step re-enters predict()
  // before this loop ends (issue -> prefetchT0 -> drain -> onFill).
  uint32_t Ranked[MaxWays];
  uint32_t Count = 0;
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    if (Keys[Way] != Block || Conf[Way] < Config.IssueThreshold)
      continue;
    uint32_t Pos = Count++;
    for (; Pos > 0 && Conf[Ranked[Pos - 1]] < Conf[Way]; --Pos)
      Ranked[Pos] = Ranked[Pos - 1];
    Ranked[Pos] = Way;
  }
  const memsim::Cache &L1 = Hierarchy.l1();
  for (uint32_t I = 0; I < Count && I < Budget; ++I)
    issue(L1.blockAddress(Next[Ranked[I]]), Hierarchy);
}

void PairTablePrefetcher::onMiss(const AccessEvent &Event,
                                 memsim::MemoryHierarchy &Hierarchy) {
  const uint64_t Block = Hierarchy.l1().blockNumber(Event.Addr);

  if (LastMissBlock != NoBlock && LastMissBlock != Block)
    train(LastMissBlock, Block);
  LastMissBlock = Block;

  // Closed-loop tuned successor budget (the configured constant with no
  // tuner attached).  A squelched budget of 0 issues nothing.
  predict(Block, effectiveDegree(Config.Degree), Hierarchy);
}

void PairTablePrefetcher::onFill(memsim::Addr BlockAddr,
                                 memsim::MemoryHierarchy &Hierarchy) {
  if (!Config.ChainOnFill)
    return;
  predict(Hierarchy.l1().blockNumber(BlockAddr), 1, Hierarchy);
}

uint64_t PairTablePrefetcher::occupiedEntries() const {
  uint64_t Count = 0;
  const uint64_t *Table = Words.data() + WordsOffset;
  for (size_t Set = 0; Set < Config.Sets; ++Set)
    for (size_t Way = 0; Way < Config.Ways; ++Way)
      Count += Table[Set * 2 * Config.Ways + Way] != NoBlock ? 1 : 0;
  return Count;
}

void PairTablePrefetcher::reset() {
  Prefetcher::reset();
  std::fill(Words.begin(), Words.end(), NoBlock);
  std::fill(Confidence.begin(), Confidence.end(), uint8_t{0});
  LastMissBlock = NoBlock;
}
