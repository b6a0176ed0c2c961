//===- src/lint/Finding.h - Lint finding record ----------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Finding record shared by every lint module.  It lives in its own
/// header so rule families (Rules, SchemaLock) can report
/// findings without including each other.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_FINDING_H
#define HDS_LINT_FINDING_H

#include <string>

namespace hds {
namespace lint {

/// One reported violation.
struct Finding {
  std::string RuleId;  ///< "D1" ... "C1", "W1", "E1", "SUP", "STALE"
  std::string Path;    ///< display path of the offending file
  unsigned Line = 0;
  std::string Message;
  std::string FixHint;
};

} // namespace lint
} // namespace hds

#endif // HDS_LINT_FINDING_H
