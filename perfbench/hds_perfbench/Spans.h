//===- hds_perfbench/Spans.h - In-memory span log ---------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the traced run records around each call (or batch of calls) into
/// a layer.  They stay in memory and are written out once at the end.  A
/// span's self time is its busy time minus the busy time of its children.
///
/// Calls too short to time one by one in a span each (one PrefetcherStack
/// access is tens of nanoseconds) are timed individually but logged as one
/// aggregate span: Calls counts them and BusyNs sums their durations, while
/// StartNs/EndNs bound the first and last call.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PERFBENCH_SPANS_H
#define HDS_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string Name;
  uint32_t Cell = 0;
  int32_t Parent = -1; ///< index into the log, -1 for a root
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Calls = 1;
  uint64_t BusyNs = 0;
};

class SpanLog {
public:
  int32_t open(std::string Name, uint32_t Cell, int32_t Parent) {
    Span S;
    S.Name = std::move(Name);
    S.Cell = Cell;
    S.Parent = Parent;
    S.StartNs = nowNs();
    Spans.push_back(std::move(S));
    return static_cast<int32_t>(Spans.size() - 1);
  }

  /// Closes span \p Id and returns its duration.
  uint64_t close(int32_t Id) {
    Span &S = Spans[static_cast<size_t>(Id)];
    S.EndNs = nowNs();
    S.BusyNs = S.EndNs - S.StartNs;
    return S.BusyNs;
  }

  void addAggregate(std::string Name, uint32_t Cell, int32_t Parent,
                    uint64_t StartNs, uint64_t EndNs, uint64_t Calls,
                    uint64_t BusyNs) {
    Spans.push_back(
        {std::move(Name), Cell, Parent, StartNs, EndNs, Calls, BusyNs});
  }

  bool writeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // HDS_PERFBENCH_SPANS_H
