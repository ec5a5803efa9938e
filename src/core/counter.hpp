#pragma once
// FASCIA's public counting API (Alg. 1).
//
// count_template() estimates the number of non-induced occurrences of
// a tree template in a graph via color coding: `iterations` rounds of
// (random vertex coloring -> bottom-up DP over the partitioned
// template -> unbias by the colorful probability P and the template's
// automorphism count alpha).  Estimates are unbiased for any iteration
// count; variance shrinks as 1/iterations.
//
// Determinism: results depend only on (graph, template, options.seed,
// iterations, num_colors) — *not* on thread count or parallel mode,
// because iteration i always uses the coloring derived from
// (seed, i).  Tests pin this property.
//
// Both entry points run as a one-job batch on the iteration driver
// that sched::run_batch uses (sched/driver.hpp), so checkpoints,
// layouts and reports behave the same on either path.

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/tree_template.hpp"

namespace fascia {

/// Approximate count of non-induced embeddings of `tmpl` in `graph`.
/// Throws std::invalid_argument on inconsistent options (labels on one
/// side only, k < template size, bad root).
CountResult count_template(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options = {});

/// Graphlet degrees: for every graph vertex v, the estimated number of
/// template embeddings in which v plays `orbit_vertex`'s role (§V-F).
/// Returns a full CountResult with vertex_counts filled; the total
/// estimate is also valid.
CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             int orbit_vertex, CountOptions options = {});

/// Unified-shape overload: the orbit vertex is `options.root` (set via
/// builder().root(v)).  Throws Error(kUsage) when root is unset (-1).
CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             const CountOptions& options);

/// Resolved number of colors for an options/template pair.
int effective_colors(const TreeTemplate& tmpl, const CountOptions& options);

namespace detail {

/// The input checks every single-template entry point shares (labels
/// on one side only, color count, iterations, root range, then
/// CountOptions::validate()).  Messages start with `api`.
void validate_count_inputs(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options, const char* api);

}  // namespace detail

}  // namespace fascia
