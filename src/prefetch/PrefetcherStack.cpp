//===- prefetch/PrefetcherStack.cpp - Configured prefetcher set ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/PrefetcherStack.h"

#include "obs/PrefetchStats.h"

using namespace hds;
using namespace hds::prefetch;

std::unique_ptr<Prefetcher> PrefetcherStack::make(Prefetcher::Kind K,
                                                  const StackConfig &Cfg,
                                                  uint32_t AssignedTag) {
  // hds-exhaustive (unqualified class-scope dispatch, lint rule E1)
  switch (K) {
  case Prefetcher::Stride:
    return std::make_unique<StridePrefetcher>(Cfg.StrideCfg, AssignedTag);
  case Prefetcher::Markov:
    return std::make_unique<MarkovPrefetcher>(Cfg.MarkovCfg, AssignedTag);
  case Prefetcher::Stream:
    return std::make_unique<StreamPrefetcher>(Cfg.StreamCfg, AssignedTag);
  case Prefetcher::PairTable:
    return std::make_unique<PairTablePrefetcher>(Cfg.PairCfg, AssignedTag);
  case Prefetcher::Duel:
    break; // the selector is assembled below, never via make()
  }
  return nullptr;
}

PrefetcherStack::PrefetcherStack(const StackConfig &Cfg) {
  std::vector<Prefetcher::Kind> Enabled;
  if (Cfg.Enabled.has(Prefetcher::Stride))
    Enabled.push_back(Prefetcher::Stride);
  if (Cfg.Enabled.has(Prefetcher::Markov))
    Enabled.push_back(Prefetcher::Markov);
  if (Cfg.Enabled.has(Prefetcher::Stream))
    Enabled.push_back(Prefetcher::Stream);
  if (Cfg.Enabled.has(Prefetcher::PairTable))
    Enabled.push_back(Prefetcher::PairTable);

  auto NextTag = [this]() {
    const uint32_t Tag = static_cast<uint32_t>(Owners.size());
    Owners.push_back(nullptr);
    Duels.push_back(nullptr);
    return Tag;
  };

  if (Cfg.Enabled.has(Prefetcher::Duel)) {
    // Duel over the named candidates; an unconstrained duel (or a
    // degenerate single-candidate one) runs the full roster.
    std::vector<Prefetcher::Kind> Roster = Enabled;
    if (Roster.size() < 2)
      Roster = {Prefetcher::Stride, Prefetcher::Markov, Prefetcher::Stream,
                Prefetcher::PairTable};
    std::vector<std::unique_ptr<Prefetcher>> Candidates;
    Candidates.reserve(Roster.size());
    for (Prefetcher::Kind K : Roster)
      Candidates.push_back(make(K, Cfg, NextTag()));
    auto Duel = std::make_unique<DuelingSelector>(Cfg.DuelCfg, NextTag(),
                                                  std::move(Candidates));
    Selector = Duel.get();
    for (const std::unique_ptr<Prefetcher> &C : Selector->candidates()) {
      Owners[C->tag()] = C.get();
      Duels[C->tag()] = Selector;
    }
    Owners[Selector->tag()] = Selector;
    TopLevel.push_back(std::move(Duel));
    return;
  }

  for (Prefetcher::Kind K : Enabled) {
    std::unique_ptr<Prefetcher> P = make(K, Cfg, NextTag());
    Owners[P->tag()] = P.get();
    TopLevel.push_back(std::move(P));
  }
}

void PrefetcherStack::onPrefetchFill(memsim::Addr BlockAddr,
                                     uint32_t StreamTag,
                                     memsim::MemoryHierarchy &Hierarchy) {
  if (StreamTag >= Owners.size())
    return; // hot-stream or untagged prefetch, not ours
  Prefetcher &Owner = *Owners[StreamTag];
  if (!Owner.observesFills())
    return;
  const DuelingSelector *D = Duels[StreamTag];
  if (!D) {
    Owner.onFill(BlockAddr, Hierarchy);
    return;
  }
  // A duel candidate chains only where it is the region's issuer.  The
  // gate is restored afterwards: this fill can land in the middle of a
  // demand access's issue loop (issue -> prefetchT0 -> drain -> here).
  const bool DemandGate = Owner.issueEnabled();
  Owner.setIssueEnabled(D->mayChain(StreamTag, BlockAddr));
  Owner.onFill(BlockAddr, Hierarchy);
  Owner.setIssueEnabled(DemandGate);
}

void PrefetcherStack::onPrefetchUseful(memsim::Addr Addr, uint32_t StreamTag) {
  if (StreamTag >= Owners.size())
    return;
  if (DuelingSelector *D = Duels[StreamTag])
    D->noteUseful(StreamTag, Addr);
}

void PrefetcherStack::onPrefetchLate(memsim::Addr Addr, uint32_t StreamTag) {
  if (StreamTag >= Owners.size())
    return;
  if (DuelingSelector *D = Duels[StreamTag])
    D->noteLate(StreamTag, Addr);
}

void PrefetcherStack::onPrefetchEvicted(memsim::Addr BlockAddr,
                                        uint32_t StreamTag) {
  if (StreamTag >= Owners.size())
    return;
  if (Owners[StreamTag]->observesEvictions())
    Owners[StreamTag]->onEvict(BlockAddr);
}

bool PrefetcherStack::wantsFeedback() const {
  if (Selector)
    return true;
  for (const Prefetcher *P : Owners)
    if (P->observesFills() || P->observesEvictions())
      return true;
  return false;
}

void PrefetcherStack::setTuner(TuningPolicy *Policy) {
  for (Prefetcher *P : Owners)
    if (P)
      P->setTuner(Policy);
}

std::vector<obs::PrefetcherStats>
PrefetcherStack::snapshotStats(const memsim::MemoryHierarchy &Hierarchy) const {
  std::vector<obs::PrefetcherStats> Rows;
  for (const std::unique_ptr<Prefetcher> &P : TopLevel)
    P->appendStats(Rows);

  const std::vector<obs::PrefetchClassCounts> &Buckets =
      Hierarchy.streamClasses();
  for (obs::PrefetcherStats &Row : Rows) {
    if (Row.Tag < Owners.size() && Owners[Row.Tag])
      Row.FinalDegree = Owners[Row.Tag]->finalDegree();
    if (Row.Tag >= Buckets.size())
      continue; // tag never produced a classification event
    const obs::PrefetchClassCounts &B = Buckets[Row.Tag];
    Row.Issued = B.Issued;
    Row.Useful = B.Useful;
    Row.Late = B.Late;
    Row.Redundant = B.Redundant;
    Row.DroppedQueueFull = B.DroppedQueueFull;
    Row.UnusedEvicted = B.UnusedEvicted;
  }
  return Rows;
}

Prefetcher *PrefetcherStack::byKind(Prefetcher::Kind K) {
  for (Prefetcher *P : Owners)
    if (P && P->kind() == K)
      return P;
  return nullptr;
}

void PrefetcherStack::reset() {
  for (const std::unique_ptr<Prefetcher> &P : TopLevel)
    P->reset();
}
