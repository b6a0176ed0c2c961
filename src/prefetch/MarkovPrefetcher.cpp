//===- prefetch/MarkovPrefetcher.cpp - Correlation-based prefetcher --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/MarkovPrefetcher.h"

#include <algorithm>
#include <bit>
#include <new>

#include <sys/mman.h>

using namespace hds;
using namespace hds::prefetch;

template <typename T> T *PageAllocator<T>::allocate(size_t Count) {
  void *P = mmap(nullptr, Count * sizeof(T), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return static_cast<T *>(P);
}

template <typename T>
void PageAllocator<T>::deallocate(T *P, size_t Count) {
  munmap(P, Count * sizeof(T));
}

template struct hds::prefetch::PageAllocator<uint64_t>;

MarkovPrefetcher::MarkovPrefetcher(const MarkovPrefetcherConfig &Cfg,
                                   uint32_t AssignedTag)
    : Prefetcher(Kind::Markov, AssignedTag, MissHook), Config(Cfg),
      SlotWords(2 + size_t{Cfg.SuccessorsPerNode}) {}

size_t MarkovPrefetcher::find(uint64_t Block) const {
  if (Capacity == 0)
    return NoSlot;
  const size_t Mask = Capacity - 1;
  for (size_t Slot = home(Block);; Slot = (Slot + 1) & Mask) {
    const uint64_t Key = Words[Slot * SlotWords];
    if (Key == Block)
      return Slot;
    if (Key == NoBlock)
      return NoSlot;
  }
}

void MarkovPrefetcher::grow() {
  // Pack the live nodes and release the old table before allocating the
  // doubled one, so the two never coexist (the peak is the new table
  // plus the packed nodes, 11/8 of it, not 3/2).
  std::vector<uint64_t, PageAllocator<uint64_t>> Live;
  Live.reserve(Nodes * SlotWords);
  for (size_t From = 0; From < Capacity; ++From)
    if (Words[From * SlotWords] != NoBlock)
      Live.insert(Live.end(), slot(From), slot(From) + SlotWords);
  Capacity = Capacity == 0 ? 16 : 2 * Capacity;
  HashShift = 64 - static_cast<unsigned>(std::countr_zero(Capacity));
  std::vector<uint64_t, PageAllocator<uint64_t>>().swap(Words);
  Words.assign(Capacity * SlotWords, NoBlock);
  const size_t Mask = Capacity - 1;
  for (size_t From = 0; From < Live.size(); From += SlotWords) {
    size_t To = home(Live[From]);
    while (Words[To * SlotWords] != NoBlock)
      To = (To + 1) & Mask;
    std::copy(&Live[From], &Live[From] + SlotWords, slot(To));
  }
}

void MarkovPrefetcher::erase(uint64_t Block) {
  const size_t Mask = Capacity - 1;
  size_t Hole = find(Block);
  // Backward-shift deletion: pull each later member of the probe run
  // into the hole unless that would move it before its home slot.
  for (size_t Next = (Hole + 1) & Mask; Words[Next * SlotWords] != NoBlock;
       Next = (Next + 1) & Mask) {
    const size_t Home = home(Words[Next * SlotWords]);
    if (((Next - Home) & Mask) < ((Next - Hole) & Mask))
      continue;
    std::copy(slot(Next), slot(Next) + SlotWords, slot(Hole));
    Hole = Next;
  }
  Words[Hole * SlotWords] = NoBlock;
  --Nodes;
}

size_t MarkovPrefetcher::insert(uint64_t Block) {
  // MaxNodes 0 holds one node, as the round-robin eviction always did.
  if (Nodes >= std::max<size_t>(Config.MaxNodes, 1)) {
    // Evict the oldest node (round-robin over insertion order).
    erase(InsertionOrder[EvictCursor]);
    InsertionOrder[EvictCursor] = Block;
    EvictCursor = (EvictCursor + 1) % InsertionOrder.size();
  } else {
    InsertionOrder.push_back(Block);
  }
  // At most 3/4 full: a table of 30-40K nodes then takes 2 MB, which a
  // host L2 holds, instead of 4 MB.
  if (4 * (Nodes + 1) > 3 * Capacity)
    grow();
  const size_t Mask = Capacity - 1;
  size_t Slot = home(Block);
  while (Words[Slot * SlotWords] != NoBlock)
    Slot = (Slot + 1) & Mask;
  uint64_t *Node = slot(Slot);
  Node[0] = Block;
  Node[1] = 0;
  ++Nodes;
  return Slot;
}

void MarkovPrefetcher::addSuccessor(size_t Slot, uint64_t Block) {
  uint64_t *Node = slot(Slot);
  uint64_t *Successors = Node + 2;
  const size_t Count = static_cast<size_t>(Node[1]);
  uint64_t *Existing = std::find(Successors, Successors + Count, Block);
  if (Existing != Successors + Count) {
    // Move to front (highest priority).
    std::rotate(Successors, Existing, Existing + 1);
    return;
  }
  countTrain();
  if (Config.SuccessorsPerNode == 0)
    return;
  // Push to the front; the least recent falls off a full node.
  const size_t Kept = std::min<size_t>(Count, Config.SuccessorsPerNode - 1);
  std::copy_backward(Successors, Successors + Kept, Successors + Kept + 1);
  Successors[0] = Block;
  Node[1] = Kept + 1;
}

void MarkovPrefetcher::onMiss(const AccessEvent &Event,
                              memsim::MemoryHierarchy &Hierarchy) {
  const memsim::Cache &L1 = Hierarchy.l1();
  const uint64_t Block = L1.blockNumber(Event.Addr);

  // (a) Learn: the previous miss is followed by this one.  Nothing has
  // touched the table since the previous miss looked up its own node, so
  // that lookup's slot is still current.  A repeated miss of the same
  // block is no transition, and its prediction is that same slot.
  if (Block != LastMissBlock) {
    if (LastMissBlock != NoBlock)
      addSuccessor(LastMissSlot != NoSlot ? LastMissSlot
                                          : insert(LastMissBlock),
                   Block);
    LastMissBlock = Block;
    LastMissSlot = find(Block);
  }

  // (b) Predict: prefetch this block's recorded successors, prioritized
  // by recency.  Issuing never re-enters this table.
  if (LastMissSlot == NoSlot)
    return;
  const uint64_t *Node = slot(LastMissSlot);
  for (uint64_t I = 0; I < Node[1]; ++I)
    issue(L1.blockAddress(Node[2 + I]), Hierarchy);
}

void MarkovPrefetcher::reset() {
  Prefetcher::reset();
  Words.clear();
  Capacity = 0;
  HashShift = 64;
  Nodes = 0;
  InsertionOrder.clear();
  EvictCursor = 0;
  LastMissBlock = NoBlock;
  LastMissSlot = NoSlot;
}
