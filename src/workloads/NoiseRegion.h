//===- workloads/NoiseRegion.h - Cold-data traffic generator ---*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic cold-data traffic: a large region walked with a fixed
/// stride, wrapping around.  This is the part of a benchmark's reference
/// stream that is *not* a hot data stream — it evicts the hot chains from
/// L1 between walks (so their re-references miss and prefetching has
/// something to hide), contributes the memory-level misses that make the
/// benchmarks memory-performance-limited, and never repeats the same
/// (pc, addr) sequence, so the analysis correctly leaves it alone.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_WORKLOADS_NOISEREGION_H
#define HDS_WORKLOADS_NOISEREGION_H

#include "core/Runtime.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace workloads {

/// Shape of the cold region and its scan loop.
struct NoiseRegionConfig {
  uint64_t Bytes = 2 * 1024 * 1024;
  /// Address increment between consecutive scan references.  With a
  /// 32-byte block, a stride of 4 touches each block 8 times before
  /// moving on (1/8 of scan references miss).
  uint64_t StrideBytes = 4;
  /// Loop back-edge checks execute every this many references.
  uint32_t RefsPerCheck = 8;
  /// Computation cycles per reference.
  uint64_t ComputePerRef = 1;
  /// Visit the region's blocks in a deterministic shuffled order instead
  /// of ascending addresses.  Footprint, per-wrap coverage, and miss
  /// counts are unchanged — only the address *sequence* becomes
  /// irregular, which is what the cold traffic of pointer-based programs
  /// looks like (and what keeps a hardware stride prefetcher from
  /// trivially covering it; see `hds_matrix --render stride`).
  bool ShuffleBlocks = true;
};

/// The cold region plus its scan procedure.
class NoiseRegion {
public:
  void setup(core::Runtime &Rt, const NoiseRegionConfig &Config,
             const std::string &NamePrefix);

  /// Scans \p Refs references, advancing the wrap-around cursor.
  void step(core::Runtime &Rt, uint64_t Refs);

private:
  NoiseRegionConfig Config;
  vulcan::ProcId Proc = 0;
  vulcan::SiteId Site = 0;
  memsim::Addr Base = 0;
  uint64_t Cursor = 0;
  /// Block visit order when ShuffleBlocks is set (a permutation of the
  /// region's block indices, fixed at setup).
  std::vector<uint32_t> BlockOrder;
};

} // namespace workloads
} // namespace hds

#endif // HDS_WORKLOADS_NOISEREGION_H
