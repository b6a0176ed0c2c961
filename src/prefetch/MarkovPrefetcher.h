//===- prefetch/MarkovPrefetcher.h - Correlation-based prefetcher -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Markov (correlation-based) prefetcher after Joseph & Grunwald,
/// reference [16] of the paper, as a zoo member.
///
/// The paper calls correlation-based prefetching the hardware technique
/// its scheme is "most similar to", and differentiates itself three ways:
/// software (configurable/tunable), more global access pattern analysis,
/// and "capable of using more context for its predictions than digrams of
/// data accesses" (Section 5.1).  This implementation exists so the
/// comparison can be run (bench/ablation_markov): a digram predictor
/// keyed on cache-miss addresses, with a fixed number of successor slots
/// per node and prefetches issued for all of them, prioritized by
/// recency.
///
/// Model: on every L1 demand miss to block B, (a) record B as a successor
/// of the previously missed block, and (b) issue prefetches for B's
/// recorded successors.  As a hardware mechanism it spends no instruction
/// issue slots; its table capacity is bounded like the original paper's
/// (which dedicated megabytes of state — generous, but that is the
/// comparison point).
///
/// Layout: one flat open-addressed table (linear probing, load factor at
/// most 3/4, backward-shift deletion).  A slot is 2 + SuccessorsPerNode
/// words — the key block, the successor count, then the successors
/// inline, most recent first — so a node is one host-cache probe with
/// no pointer to chase.  The table starts empty and doubles as nodes
/// arrive, so its size follows the node count up to MaxNodes; beyond
/// that, new nodes evict the oldest in insertion order.  The table's
/// pages come straight from the kernel (PageAllocator) and go back when
/// it doubles: malloc would keep the outgrown copies resident in
/// per-thread arenas once its adaptive mmap threshold has risen past
/// them.  The slot found
/// by a miss's prediction is kept for the next miss, whose training
/// updates that same node, so a miss on a known node costs one probe.
/// src/testing/ReferenceMarkov.h keeps the hash-map model this replaced;
/// tests/prefetchers_test.cpp drives both in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_MARKOVPREFETCHER_H
#define HDS_PREFETCH_MARKOVPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Allocates whole anonymous pages with mmap and returns them with munmap.
template <typename T> struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U> PageAllocator(const PageAllocator<U> &) {}

  T *allocate(size_t Count);
  void deallocate(T *P, size_t Count);

  friend bool operator==(const PageAllocator &, const PageAllocator &) {
    return true;
  }
};

/// Knobs for the Markov prefetcher.
struct MarkovPrefetcherConfig {
  /// Successor slots per node (the original evaluates 1-4).  0 keeps
  /// nodes but no successors, so nothing is ever issued.
  uint32_t SuccessorsPerNode = 2;
  /// Maximum nodes in the correlation table; beyond it, new nodes evict
  /// in insertion order (a coarse model of a bounded hardware table).
  /// 0 behaves as 1.
  uint32_t MaxNodes = 1 << 16;
};

/// The correlation table.
class MarkovPrefetcher : public Prefetcher {
public:
  MarkovPrefetcher(const MarkovPrefetcherConfig &Cfg, uint32_t AssignedTag);

  /// Observes a demand access that missed L1 (block granularity) and
  /// issues prefetches for the predicted successors.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  size_t nodeCount() const { return Nodes; }

  void reset() override;

private:
  static constexpr uint64_t NoBlock = ~uint64_t{0};
  static constexpr size_t NoSlot = ~size_t{0};

  /// A slot's words: key (NoBlock = empty), successor count, successors.
  uint64_t *slot(size_t Slot) { return &Words[Slot * SlotWords]; }
  size_t home(uint64_t Block) const {
    return static_cast<size_t>((Block * 0x9E3779B97F4A7C15ull) >> HashShift);
  }
  /// Slot holding \p Block's node, or NoSlot.
  size_t find(uint64_t Block) const;
  /// Adds an empty node for \p Block (absent), evicting the oldest node
  /// at capacity; returns its slot.
  size_t insert(uint64_t Block);
  /// Removes \p Block's node, shifting its probe run back.
  void erase(uint64_t Block);
  /// Doubles the table (16 slots when empty) and re-places every node.
  void grow();
  /// Records \p Block as the most recent successor of the node in
  /// \p Slot.
  void addSuccessor(size_t Slot, uint64_t Block);

  MarkovPrefetcherConfig Config;
  /// 2 + SuccessorsPerNode.
  size_t SlotWords;
  /// Slots (a power of two, 0 before the first node); Words holds
  /// Capacity * SlotWords words.
  size_t Capacity = 0;
  unsigned HashShift = 64;
  std::vector<uint64_t, PageAllocator<uint64_t>> Words;
  size_t Nodes = 0;
  std::vector<uint64_t> InsertionOrder;
  size_t EvictCursor = 0;
  uint64_t LastMissBlock = NoBlock;
  /// Slot of LastMissBlock's node as of the last prediction, or NoSlot.
  size_t LastMissSlot = NoSlot;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_MARKOVPREFETCHER_H
