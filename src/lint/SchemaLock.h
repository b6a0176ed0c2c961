//===- src/lint/SchemaLock.h - W1 results schema lock ----------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// W1 schema lock: the append-only policy of the results JSON schema,
/// machine enforced.  The collector snapshots two kinds of schema surface
/// from the lexed tree:
///
///   enum <Name>         enums marked `// hds-schema-enum` (the
///                       prefetcher Kind) with resolved values
///   metrics <visitFn>   the ordered metric-id list of each
///                       `visit*Metrics` enumeration function
///
/// The canonical rendering is committed as tests/golden/schema.lock.
/// Comparing the committed lock against a fresh snapshot yields W1
/// findings for any reorder, removal, or renumber of a locked entry;
/// legal appends yield a "lock is stale — regenerate" finding so the
/// committed artifact can never silently lag the tree.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_SCHEMALOCK_H
#define HDS_LINT_SCHEMALOCK_H

#include "lint/Finding.h"
#include "lint/Lexer.h"

#include <string>
#include <string_view>
#include <vector>

namespace hds {
namespace lint {

struct SchemaEntry {
  std::string Name;
  long long Value = 0; ///< enum value or metric ordinal
};

struct SchemaSection {
  std::string Kind; ///< "enum" or "metrics"
  std::string Name; ///< "Kind", "visitRunStatsMetrics", ...
  std::vector<SchemaEntry> Entries;
  std::string Path; ///< defining source file, or the lock file when parsed
  unsigned Line = 0;
};

/// Snapshots the schema surface of \p Files, sorted by (Kind, Name) so
/// the rendering is stable under file moves.
std::vector<SchemaSection> collectSchema(const std::vector<LexedFile> &Files);

/// Renders \p Sections in the canonical lock format.
std::string renderSchemaLock(const std::vector<SchemaSection> &Sections);

/// Parses a lock file previously produced by renderSchemaLock.  Returns
/// false and sets \p Error on malformed input.
bool parseSchemaLock(std::string_view Text, const std::string &LockPath,
                     std::vector<SchemaSection> &Out, std::string &Error);

/// Appends W1 findings for every way \p Current breaks the append-only
/// contract relative to \p Locked (reorder, removal, renumber), plus a
/// regenerate reminder when Current legally extends the lock.
void compareSchema(const std::vector<SchemaSection> &Locked,
                   const std::vector<SchemaSection> &Current,
                   const std::string &LockPath, std::vector<Finding> &Out);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_SCHEMALOCK_H
