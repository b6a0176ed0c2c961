//===- prefetch/StridePrefetcher.h - PC-indexed stride prefetcher -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic reference-prediction-table stride prefetcher (Chen & Baer,
/// reference [7] of the paper), as a zoo member.
///
/// The paper positions stride prefetching as both related work ("mostly
/// limited to programs that make heavy use of loops and arrays") and as a
/// complement: "a stride-based prefetcher could complement our scheme by
/// prefetching data address sequences that do not qualify as hot data
/// streams" (Section 4.3).  This implementation exists to evaluate both
/// claims (`hds_matrix --render stride`): on its own it accelerates the strided
/// cold scans the benchmarks contain but not the pointer chains; combined
/// with hot data stream prefetching the two cover disjoint miss classes.
///
/// Model: a direct-mapped table indexed by the access site (pc).  Each
/// entry tracks the last address, the last observed stride, and a
/// two-state confidence; once the same non-zero stride repeats, the
/// prefetcher issues `Degree` prefetches ahead along the stride.  As a
/// hardware mechanism it spends no instruction issue slots.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_STRIDEPREFETCHER_H
#define HDS_PREFETCH_STRIDEPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs for the stride prefetcher.  The constructor rejects (with
/// std::invalid_argument) TableEntries = 0.
struct StridePrefetcherConfig {
  /// Number of reference-prediction-table entries (direct mapped by pc).
  uint32_t TableEntries = 256;
  /// Prefetches issued ahead once a stride is confirmed.
  uint32_t Degree = 2;
  /// Strides larger than this are treated as pattern breaks (pointer
  /// chases produce huge pseudo-strides that must not train the table).
  uint64_t MaxStrideBytes = 4096;
};

/// The reference prediction table.
class StridePrefetcher : public Prefetcher {
public:
  StridePrefetcher(const StridePrefetcherConfig &Cfg, uint32_t AssignedTag);

  /// Observes a demand access and issues stride prefetches when the
  /// entry's stride is confirmed.
  void onAccess(const AccessEvent &Event,
                memsim::MemoryHierarchy &Hierarchy) override;

  /// Entries that reached full confidence and ran ahead (tests, benches).
  uint64_t confirmed() const { return StridesConfirmed; }

  void reset() override;

private:
  struct Entry {
    uint64_t Pc = ~uint64_t{0};
    memsim::Addr LastAddr = 0;
    int64_t Stride = 0;
    /// 0 = untrained, 1 = stride seen once, 2 = confirmed.
    uint8_t Confidence = 0;
  };

  StridePrefetcherConfig Config;
  std::vector<Entry> Table;
  uint64_t StridesConfirmed = 0;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_STRIDEPREFETCHER_H
