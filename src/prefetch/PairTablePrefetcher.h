//===- prefetch/PairTablePrefetcher.h - Temporal pair table ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A temporal pair-table prefetcher in the Pangloss / Triangel family
/// (PAPERS.md): miss-to-miss successor prediction like the Markov digram
/// table, but with the properties that made the modern designs practical
/// — strictly bounded set-associative metadata with confidence-guided
/// replacement (Pangloss keeps Markov-chain transition weights in a
/// fixed-size cache; Triangel adds filters so only pairs likely to be
/// accurate and timely occupy metadata), and chained lookahead: when a
/// prefetched block lands, its own best successor is fetched, walking
/// the recorded temporal chain ahead of demand instead of staying one
/// miss ahead.
///
/// Model: a Sets x Ways table of (key block -> successor block,
/// confidence) entries.  On an L1 miss to B after previous miss A: an
/// exact (A -> B) hit gains confidence; otherwise the lowest-confidence
/// way in A's set decays, and only a fully decayed way is reallocated to
/// the new pair — repeat pairs must out-vote noise to claim metadata,
/// the bounded-table discipline of the modern designs.  Prediction
/// issues the most confident successors of B at or above the issue
/// threshold, and the onFill hook chains one step further per completed
/// prefetch.
///
/// Layout: a set's keys and successors are 2 x Ways words in one
/// 64-byte-aligned run — exactly one host cache line for the default 4
/// ways — and the confidences sit in a side array, so the key compare
/// that every lookup starts with touches one line.  The set index is a
/// mask when Sets is a power of two.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PAIRTABLEPREFETCHER_H
#define HDS_PREFETCH_PAIRTABLEPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs for the pair-table prefetcher.  The constructor rejects (with
/// std::invalid_argument) Sets = 0, Ways outside 1..MaxWays and
/// MaxConfidence above 255 (the counters are one byte).
struct PairTableConfig {
  /// Sets in the pair table (power of two recommended, not required).
  uint32_t Sets = 1024;
  /// Ways per set.
  uint32_t Ways = 4;
  /// Saturation ceiling for the per-pair confidence counter.
  uint32_t MaxConfidence = 15;
  /// Minimum confidence before a successor is prefetched.
  uint32_t IssueThreshold = 2;
  /// Successors issued per triggering miss.
  uint32_t Degree = 2;
  /// Whether a completed prefetch chains one step down its own pair
  /// entry (temporal lookahead).
  bool ChainOnFill = true;
};

/// The bounded pair table.
class PairTablePrefetcher : public Prefetcher {
public:
  /// Largest accepted PairTableConfig::Ways (the ranking array size).
  static constexpr uint32_t MaxWays = 16;

  PairTablePrefetcher(const PairTableConfig &Cfg, uint32_t AssignedTag);

  /// Observes an L1 miss: trains the (previous miss -> this miss) pair
  /// and issues this miss's recorded successors.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  /// Chains one step: the landed block's own best successor.
  void onFill(memsim::Addr BlockAddr,
              memsim::MemoryHierarchy &Hierarchy) override;

  uint32_t configuredDegree() const override { return Config.Degree; }

  /// Occupied entries (tests: metadata stays within Sets * Ways).
  uint64_t occupiedEntries() const;
  /// Total table capacity in entries.
  uint64_t capacityEntries() const { return Confidence.size(); }

  void reset() override;

private:
  static constexpr uint64_t NoBlock = ~uint64_t{0};

  size_t setIndex(uint64_t Block) const {
    // Deterministic multiplicative mix so adjacent blocks spread over
    // sets (a plain modulo aliases strided workloads onto few sets).
    const uint64_t Mixed = (Block * 0x9E3779B97F4A7C15ull) >> 32;
    return static_cast<size_t>(SetMask ? Mixed & SetMask
                                       : Mixed % Config.Sets);
  }
  /// The set's keys (Ways words, NoBlock = empty way) followed by its
  /// successors (Ways words).
  uint64_t *setWords(size_t Set) {
    return Words.data() + WordsOffset + Set * 2 * Config.Ways;
  }
  uint8_t *setConfidence(size_t Set) {
    return Confidence.data() + Set * Config.Ways;
  }

  void train(uint64_t FromBlock, uint64_t ToBlock);
  /// Issues up to \p Budget successors of \p Block, most confident first.
  /// Re-entrant: an issue may land a fill whose chain step calls it.
  void predict(uint64_t Block, uint32_t Budget,
               memsim::MemoryHierarchy &Hierarchy);

  PairTableConfig Config;
  /// Sets - 1 when Sets is a power of two, else 0 (modulo indexing).
  uint64_t SetMask;
  /// Set words, over-allocated by one line so the table can start at
  /// Words.data() + WordsOffset on a 64-byte boundary.
  std::vector<uint64_t> Words;
  size_t WordsOffset = 0;
  /// Per-entry confidence, set-major (Set * Ways + Way).
  std::vector<uint8_t> Confidence;
  uint64_t LastMissBlock = NoBlock;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_PAIRTABLEPREFETCHER_H
