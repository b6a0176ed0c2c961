//===- engine/ResultSink.cpp - Deterministic result collection ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ResultSink.h"

#include <cassert>
#include <utility>

using namespace hds;
using namespace hds::engine;

ResultSink::ResultSink(std::size_t SpecCount)
    : Results(SpecCount), Filled(SpecCount, false) {}

void ResultSink::deliver(std::size_t Index, RunResult Result) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(Index < Results.size() && "result index out of range");
  assert(!Filled[Index] && "slot delivered twice");
  Results[Index] = std::move(Result);
  Filled[Index] = true;
  ++Completed;
  if (Callback)
    Callback(Index, Results[Index]);
}

void ResultSink::setCallback(ResultCallback NewCallback) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Callback = std::move(NewCallback);
}

std::size_t ResultSink::completed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Completed;
}

std::vector<RunResult> ResultSink::take() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Filled.assign(Filled.size(), false);
  Completed = 0;
  return std::move(Results);
}
