//===- engine/Views.h - Figures and tables as views of results -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every figure, table and ablation of EXPERIMENTS.md is a view of a
/// results document (engine/ResultsJson.h): a name plus one renderer
/// that reads result cells by their ExperimentSpec and prints a
/// GitHub-markdown table.  The cells a view needs at a scale are the
/// ones its renderer reads, so the list cannot drift from the table.
///
/// Views: fig11, fig12, table2 (the paper's figures), headlen,
/// sampling_rate, stride, markov, static, adaptive and cachesize (the
/// ablations).  hds_matrix --render VIEW runs a view's cells, or reads
/// them from a document it is given, and prints the view.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_VIEWS_H
#define HDS_ENGINE_VIEWS_H

#include "engine/ExperimentSpec.h"

#include <string>
#include <vector>

namespace hds {
namespace engine {

/// "fig11, fig12, ..." — every view name, in EXPERIMENTS.md order.
std::string viewNameList();

/// Sets \p Out to the cells view \p Name reads at \p Scale, in the
/// order it first reads them.  False when no view has that name.
bool viewCells(const std::string &Name, double Scale,
               std::vector<ExperimentSpec> &Out);

/// Renders view \p Name at \p Scale from the hds-matrix-results-v1
/// document \p Json into \p Out.  Returns false, with \p Error set,
/// for an unknown view, a malformed document, or a needed cell the
/// document lacks or did not run (the first such cell is named).
bool renderView(const std::string &Name, double Scale,
                const std::string &Json, std::string &Out,
                std::string &Error);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_VIEWS_H
