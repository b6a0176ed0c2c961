//===- src/lint/SchemaLock.cpp - W1 results schema lock -------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "lint/SchemaLock.h"

#include "lint/ScopeTracker.h"
#include "lint/TokenUtil.h"

#include <algorithm>
#include <cstdlib>

namespace hds {
namespace lint {

namespace {

using Toks = std::vector<Token>;

bool isVisitMetricsName(const std::string &Name) {
  return Name.size() > std::string("visitMetrics").size() &&
         startsWith(Name, "visit") && endsWith(Name, "Metrics");
}

} // namespace

std::vector<SchemaSection> collectSchema(const std::vector<LexedFile> &Files) {
  std::vector<SchemaSection> Sections;
  for (const LexedFile &File : Files) {
    const Toks &T = File.Toks;

    // Enums marked hds-schema-enum.
    for (const EnumDef &E : findEnums(File)) {
      if (!E.SchemaLocked)
        continue;
      SchemaSection S;
      S.Kind = "enum";
      S.Name = E.Name;
      S.Path = File.Path;
      S.Line = E.Line;
      for (const auto &[Name, Value] : E.Enumerators)
        S.Entries.push_back({Name, Value});
      Sections.push_back(std::move(S));
    }

    // visit*Metrics enumeration functions: the ordered MetricDef id list.
    for (size_t I = 1; I < T.size(); ++I) {
      if (T[I].K != Token::Ident || !isVisitMetricsName(T[I].Text) ||
          !isPunct(T, I + 1, "(") || !isIdent(T, I - 1, "void"))
        continue;
      size_t ParamClose = matchingClose(T, I + 1);
      if (ParamClose == T.size() || !isPunct(T, ParamClose + 1, "{"))
        continue;
      size_t BodyClose = matchingClose(T, ParamClose + 1);
      if (BodyClose == T.size())
        continue;
      SchemaSection S;
      S.Kind = "metrics";
      S.Name = T[I].Text;
      S.Path = File.Path;
      S.Line = T[I].Line;
      long long Ordinal = 0;
      for (size_t J = ParamClose + 1; J < BodyClose; ++J)
        if (isIdent(T, J, "MetricDef") && isPunct(T, J + 1, "{") &&
            J + 2 < BodyClose && T[J + 2].K == Token::String)
          S.Entries.push_back({T[J + 2].Text, Ordinal++});
      Sections.push_back(std::move(S));
    }
  }
  std::sort(Sections.begin(), Sections.end(),
            [](const SchemaSection &A, const SchemaSection &B) {
              if (A.Kind != B.Kind)
                return A.Kind < B.Kind;
              return A.Name < B.Name;
            });
  return Sections;
}

std::string renderSchemaLock(const std::vector<SchemaSection> &Sections) {
  std::string Out;
  Out += "# hds-schema-lock-v1\n";
  Out += "# Canonical snapshot of the results schema (docs/engine.md).\n";
  Out += "# Regenerate after a legal append with:\n";
  Out += "#   build/tools/hds_lint --write-schema-lock "
         "tests/golden/schema.lock src tools bench tests\n";
  Out += "# Reordering, removing, or renumbering an existing entry is a\n";
  Out += "# W1 lint error: the schema is append-only.\n";
  for (const SchemaSection &S : Sections) {
    Out += "\n[" + S.Kind + " " + S.Name + "]\n";
    for (const SchemaEntry &E : S.Entries)
      Out += E.Name + " " + std::to_string(E.Value) + "\n";
  }
  return Out;
}

bool parseSchemaLock(std::string_view Text, const std::string &LockPath,
                     std::vector<SchemaSection> &Out, std::string &Error) {
  Out.clear();
  size_t Pos = 0;
  unsigned LineNo = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.empty() || Line.front() == '#')
      continue;
    if (Line.front() == '[') {
      size_t Close = Line.find(']');
      size_t Space = Line.find(' ');
      if (Close == std::string_view::npos || Space == std::string_view::npos ||
          Space > Close) {
        Error = LockPath + ":" + std::to_string(LineNo) +
                ": malformed section header";
        return false;
      }
      SchemaSection S;
      S.Kind = std::string(Line.substr(1, Space - 1));
      S.Name = std::string(Line.substr(Space + 1, Close - Space - 1));
      S.Path = LockPath;
      S.Line = LineNo;
      Out.push_back(std::move(S));
      continue;
    }
    size_t Space = Line.find(' ');
    if (Space == std::string_view::npos || Out.empty()) {
      Error = LockPath + ":" + std::to_string(LineNo) +
              ": entry outside a section or missing its value";
      return false;
    }
    SchemaEntry E;
    E.Name = std::string(Line.substr(0, Space));
    E.Value = std::strtoll(std::string(Line.substr(Space + 1)).c_str(),
                           nullptr, 0);
    Out.back().Entries.push_back(std::move(E));
  }
  return true;
}

void compareSchema(const std::vector<SchemaSection> &Locked,
                   const std::vector<SchemaSection> &Current,
                   const std::string &LockPath, std::vector<Finding> &Out) {
  auto FindCurrent = [&](const SchemaSection &L) -> const SchemaSection * {
    for (const SchemaSection &C : Current)
      if (C.Kind == L.Kind && C.Name == L.Name)
        return &C;
    return nullptr;
  };

  bool Stale = false;
  for (const SchemaSection &L : Locked) {
    const SchemaSection *C = FindCurrent(L);
    if (!C) {
      Out.push_back({"W1", LockPath, L.Line,
                     "locked schema section [" + L.Kind + " " + L.Name +
                         "] no longer exists in the tree",
                     "the schema is append-only: restore the section, or "
                     "document the breaking change and regenerate the lock "
                     "in the same commit"});
      continue;
    }
    // The locked entry list must be a prefix of the current one, name and
    // value both: anything else breaks readers of the old schema.
    for (size_t I = 0; I < L.Entries.size(); ++I) {
      if (I >= C->Entries.size()) {
        Out.push_back({"W1", C->Path, C->Line,
                       "[" + L.Kind + " " + L.Name + "] entry '" +
                           L.Entries[I].Name +
                           "' was removed; the schema is append-only",
                       "restore the entry — old readers index by it"});
        break;
      }
      const SchemaEntry &LE = L.Entries[I];
      const SchemaEntry &CE = C->Entries[I];
      if (LE.Name != CE.Name) {
        bool Later = false;
        for (size_t K = I + 1; K < C->Entries.size(); ++K)
          if (C->Entries[K].Name == LE.Name)
            Later = true;
        Out.push_back({"W1", C->Path, C->Line,
                       "[" + L.Kind + " " + L.Name + "] entry '" + LE.Name +
                           "' was " +
                           (Later ? "reordered (now after '" + CE.Name + "')"
                                  : "removed or renamed (found '" + CE.Name +
                                        "' at its position)"),
                       "the schema is append-only: new entries go at the "
                       "end, existing ones never move"});
        break;
      }
      if (LE.Value != CE.Value) {
        Out.push_back({"W1", C->Path, C->Line,
                       "[" + L.Kind + " " + L.Name + "] entry '" + LE.Name +
                           "' was renumbered from " +
                           std::to_string(LE.Value) + " to " +
                           std::to_string(CE.Value),
                       "existing enum values and metric ordinals are "
                       "frozen; append a new entry instead"});
        break;
      }
    }
    if (C->Entries.size() > L.Entries.size())
      Stale = true;
  }
  for (const SchemaSection &C : Current) {
    bool Known = false;
    for (const SchemaSection &L : Locked)
      if (L.Kind == C.Kind && L.Name == C.Name)
        Known = true;
    if (!Known)
      Stale = true;
  }
  if (Stale)
    Out.push_back({"W1", LockPath, 1,
                   "schema.lock is stale: the tree appended schema entries "
                   "or sections not yet in the lock",
                   "regenerate with `build/tools/hds_lint "
                   "--write-schema-lock " +
                       LockPath + " src tools bench tests` and commit the "
                                  "diff"});
}

} // namespace lint
} // namespace hds
