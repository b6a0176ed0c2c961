//===- memsim/MemoryHierarchy.cpp - Two-level hierarchy + prefetch --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "memsim/MemoryHierarchy.h"

using namespace hds;
using namespace hds::memsim;

MemoryHierarchy::MemoryHierarchy(const CacheConfig &L1Config,
                                 const CacheConfig &L2Config,
                                 const LatencyConfig &Lat)
    : L1(L1Config), L2(L2Config), Latency(Lat) {
  assert(L1Config.BlockBytes == L2Config.BlockBytes &&
         "levels must share a block size");
  const size_t Capacity = Latency.MaxInFlightPrefetches;
  EntryBlock.resize(Capacity);
  Entries.resize(Capacity);
  FromL2.Ring.resize(Capacity);
  FromMemory.Ring.resize(Capacity);
}

void MemoryHierarchy::removeEntry(uint32_t I) {
  const uint32_t Last = --InFlight;
  if (I == Last)
    return;
  EntryBlock[I] = EntryBlock[Last];
  Entries[I] = Entries[Last];
  (Entries[I].FromMemory ? FromMemory : FromL2).Ring[Entries[I].RingPos] = I;
}

void MemoryHierarchy::drainDuePrefetchesSlow() {
  // Fills every due entry in issue order: the two FIFO heads are the only
  // candidates, and the older issue goes first.  Eviction feedback fires
  // inline as each fill evicts; fill callbacks wait for the loop's end.
  const uint64_t Now = Account.total();
  for (;;) {
    const bool L2Due = FromL2.Count && Entries[FromL2.front()].Ready <= Now;
    const bool MemoryDue =
        FromMemory.Count && Entries[FromMemory.front()].Ready <= Now;
    if (!L2Due && !MemoryDue)
      break;
    const bool FillL2 =
        MemoryDue && (!L2Due || Entries[FromMemory.front()].Seq <
                                    Entries[FromL2.front()].Seq);
    ReadyFifo &Source = FillL2 ? FromMemory : FromL2;
    const uint32_t I = Source.front();
    Source.pop();

    const uint64_t Block = EntryBlock[I];
    const uint32_t StreamTag = Entries[I].Tag;
    removeEntry(I);
    const Addr BlockAddr = L1.blockAddress(Block);
    const Cache::EvictInfo Evicted =
        L1.fill(BlockAddr, /*IsPrefetch=*/true, StreamTag);
    if (Evicted.EvictedUntouchedPrefetch)
      recordEviction(Evicted);
    if (FillL2)
      L2.fill(BlockAddr, /*IsPrefetch=*/true, StreamTag);
    if (Listener) {
      PendingFillBlock.push_back(Block);
      PendingFillTag.push_back(StreamTag);
    }
  }
  NextReadyCycle = earliestReady();

  // Fill callbacks run only now that the queue is consistent, so a
  // chaining listener may issue follow-up prefetches from inside the
  // callback (prefetchT0 re-enters drainDuePrefetches, which has nothing
  // due anymore and returns immediately).
  if (Listener && !PendingFillBlock.empty()) {
    for (size_t I = 0; I < PendingFillBlock.size(); ++I)
      Listener->onPrefetchFill(L1.blockAddress(PendingFillBlock[I]),
                               static_cast<uint32_t>(PendingFillTag[I]),
                               *this);
    PendingFillBlock.clear();
    PendingFillTag.clear();
  }
}

bool MemoryHierarchy::prefetchT0(Addr Address, bool ChargeIssueSlot,
                                 uint32_t StreamTag) {
  drainDuePrefetches();
  if (ChargeIssueSlot)
    Account.charge(Latency.PrefetchIssueCycles,
                   obs::CyclePhase::PrefetchIssue);
  ++Stats.PrefetchesIssued;
  obs::PrefetchClassCounts &Bucket = bucket(StreamTag);
  ++Bucket.Issued;

  const uint64_t Block = blockNumber(Address);
  if (L1.contains(Address) || findInFlight(Block) != NotInFlight) {
    ++Stats.PrefetchesRedundant;
    ++Bucket.Redundant;
    return false;
  }
  if (InFlight >= Latency.MaxInFlightPrefetches) {
    ++Stats.PrefetchesDroppedQueueFull;
    ++Bucket.DroppedQueueFull;
    return false;
  }

  // L2-resident: only the L1 fill is outstanding.  touchIfPresent probes
  // once, refreshing L2 recency on a hit so the line stays resident for
  // the expected demand access.
  const bool FillL2 = !L2.touchIfPresent(Address);
  const uint64_t ReadyCycle =
      Account.total() + (FillL2 ? Latency.MemoryCycles : Latency.L2HitCycles);
  const uint32_t I = InFlight++;
  EntryBlock[I] = Block;
  Entries[I] = InFlightEntry{ReadyCycle, NextSeq++, StreamTag,
                            (FillL2 ? FromMemory : FromL2).push(I), FillL2};
  if (ReadyCycle < NextReadyCycle)
    NextReadyCycle = ReadyCycle;
  return true;
}

void MemoryHierarchy::reset() {
  InFlight = 0;
  FromL2.Head = FromL2.Count = 0;
  FromMemory.Head = FromMemory.Count = 0;
  NextReadyCycle = ~uint64_t{0};
  L1.reset();
  L2.reset();
  Account.reset();
}

void MemoryHierarchy::clearStats() {
  Stats = HierarchyStats();
  L1.clearStats();
  L2.clearStats();
  StreamClasses.clear();
  Untagged = obs::PrefetchClassCounts();
}
