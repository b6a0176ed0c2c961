//===- prefetch/DuelingSelector.cpp - Per-region dueling selector ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/DuelingSelector.h"

#include "obs/PrefetchStats.h"

#include <cassert>
#include <stdexcept>

using namespace hds;
using namespace hds::prefetch;

DuelingSelector::DuelingSelector(
    const DuelConfig &Cfg, uint32_t AssignedTag,
    std::vector<std::unique_ptr<Prefetcher>> CandidatesIn)
    : Prefetcher(Kind::Duel, AssignedTag, AccessHook), Config(Cfg),
      Candidates(std::move(CandidatesIn)) {
  assert(!Candidates.empty() && "duel needs at least one candidate");
  if (Config.RegionBuckets == 0)
    throw std::invalid_argument(
        "DuelConfig: RegionBuckets must be at least 1");
  if (Config.RegionShift >= 64)
    throw std::invalid_argument("DuelConfig: RegionShift must be below 64");
  const size_t Cells =
      static_cast<size_t>(Config.RegionBuckets) * Candidates.size();
  UsefulCount.assign(Cells, 0);
  LateCount.assign(Cells, 0);
  PlacedCount.assign(Cells, 0);
  EpochsSampled.assign(Candidates.size(), 0);
  Winner.assign(Config.RegionBuckets, 0);
}

int64_t DuelingSelector::score(size_t Bucket, size_t Candidate) const {
  const size_t C = cell(Bucket, Candidate);
  return 4 * static_cast<int64_t>(UsefulCount[C]) +
         static_cast<int64_t>(LateCount[C]) -
         static_cast<int64_t>(PlacedCount[C]);
}

void DuelingSelector::converge() {
  const size_t N = Candidates.size();

  // Global fallback: argmax of the summed per-candidate scores.
  int64_t BestTotal = 0;
  GlobalWinner = 0;
  for (size_t I = 0; I < N; ++I) {
    int64_t Total = 0;
    for (size_t B = 0; B < Config.RegionBuckets; ++B)
      Total += score(B, I);
    if (I == 0 || Total > BestTotal) {
      BestTotal = Total;
      GlobalWinner = I;
    }
  }

  // Per-bucket winners where the bucket saw any placed prefetch at all.
  ResolvedBuckets = 0;
  for (size_t B = 0; B < Config.RegionBuckets; ++B) {
    uint64_t BucketPlaced = 0;
    size_t Best = 0;
    int64_t BestScore = 0;
    for (size_t I = 0; I < N; ++I) {
      BucketPlaced += PlacedCount[cell(B, I)];
      const int64_t S = score(B, I);
      if (I == 0 || S > BestScore) {
        BestScore = S;
        Best = I;
      }
    }
    if (BucketPlaced == 0) {
      Winner[B] = static_cast<uint32_t>(GlobalWinner);
    } else {
      Winner[B] = static_cast<uint32_t>(Best);
      ++ResolvedBuckets;
    }
  }
  Converged = true;
}

void DuelingSelector::onAccess(const AccessEvent &Event,
                               memsim::MemoryHierarchy &Hierarchy) {
  const size_t N = Candidates.size();

  if (!Converged) {
    if (AccessesInEpoch >= Config.EpochAccesses) {
      AccessesInEpoch = 0;
      ++EpochsSampled[ActiveIdx];
      ++Epoch;
      if (Epoch >= convergenceEpochs())
        converge();
      else
        ActiveIdx = static_cast<size_t>(Epoch % N);
    }
    ++AccessesInEpoch;
  }

  const size_t Bucket = bucketOf(Event.Addr);
  const size_t Issuer = issuerFor(Bucket);

  for (size_t I = 0; I < N; ++I) {
    Prefetcher &C = *Candidates[I];
    C.setIssueEnabled(I == Issuer);
    const uint64_t Before = C.placed();
    // Train everyone on everything; only the issuer's gate is open.
    C.observe(Event, Hierarchy);
    if (!Converged)
      PlacedCount[cell(Bucket, I)] += C.placed() - Before;
  }
}

void DuelingSelector::noteUseful(uint32_t CandidateTag, memsim::Addr Addr) {
  if (Converged)
    return;
  for (size_t I = 0; I < Candidates.size(); ++I)
    if (Candidates[I]->tag() == CandidateTag) {
      ++UsefulCount[cell(bucketOf(Addr), I)];
      return;
    }
}

void DuelingSelector::noteLate(uint32_t CandidateTag, memsim::Addr Addr) {
  if (Converged)
    return;
  for (size_t I = 0; I < Candidates.size(); ++I)
    if (Candidates[I]->tag() == CandidateTag) {
      ++LateCount[cell(bucketOf(Addr), I)];
      return;
    }
}

Prefetcher *DuelingSelector::candidateByTag(uint32_t CandidateTag) {
  for (std::unique_ptr<Prefetcher> &C : Candidates)
    if (C->tag() == CandidateTag)
      return C.get();
  return nullptr;
}

size_t DuelingSelector::winnerFor(memsim::Addr Addr) const {
  return Winner[bucketOf(Addr)];
}

bool DuelingSelector::mayChain(uint32_t CandidateTag,
                               memsim::Addr BlockAddr) const {
  return Candidates[issuerFor(bucketOf(BlockAddr))]->tag() == CandidateTag;
}

void DuelingSelector::appendStats(
    std::vector<obs::PrefetcherStats> &Rows) const {
  obs::PrefetcherStats Own;
  Own.Kind = kind();
  Own.Tag = tag();
  Own.SelectedRegions = ResolvedBuckets;
  Own.SampledEpochs = Epoch;
  Rows.push_back(Own);

  for (size_t I = 0; I < Candidates.size(); ++I) {
    const Prefetcher &C = *Candidates[I];
    obs::PrefetcherStats Row;
    Row.Kind = C.kind();
    Row.Tag = C.tag();
    Row.Trains = C.trains();
    Row.Issued = C.issued();
    Row.SampledEpochs = EpochsSampled[I];
    if (Converged) {
      uint64_t Won = 0;
      for (size_t B = 0; B < Config.RegionBuckets; ++B)
        Won += Winner[B] == I ? 1 : 0;
      Row.SelectedRegions = Won;
    }
    Rows.push_back(Row);
  }
}

void DuelingSelector::reset() {
  Prefetcher::reset();
  for (std::unique_ptr<Prefetcher> &C : Candidates) {
    C->reset();
    C->setIssueEnabled(true);
  }
  Epoch = 0;
  AccessesInEpoch = 0;
  ActiveIdx = 0;
  Converged = false;
  UsefulCount.assign(UsefulCount.size(), 0);
  LateCount.assign(LateCount.size(), 0);
  PlacedCount.assign(PlacedCount.size(), 0);
  EpochsSampled.assign(EpochsSampled.size(), 0);
  Winner.assign(Winner.size(), 0);
  ResolvedBuckets = 0;
  GlobalWinner = 0;
}
