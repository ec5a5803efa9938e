#pragma once
// The one iteration driver (Alg. 1 under the resilient run layer).
//
// run_batch and count_template are thin entry points over drive():
// run_batch hands it a job list, count_template a one-job batch plus
// the inputs only a single-template count has (template root,
// per-vertex accumulation, reorder permutation).  Those inputs stay
// here instead of on BatchJob/BatchOptions so the public batch API
// keeps its shape.  Internal header: not part of the stable API.

#include <cstdint>
#include <vector>

#include "graph/reorder.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"

namespace fascia::sched::detail {

/// Inputs of a one-job count run (count_template, graphlet_degrees).
struct CountInputs {
  /// Template root (-1 = strategy default); graphlet-degree runs root
  /// the template at the orbit vertex.
  int root = -1;

  /// Accumulate per-vertex root totals across iterations.
  bool per_vertex = false;

  /// Non-null when `graph` is the REORDERED graph: colorings are drawn
  /// in original-id order and scattered through the permutation, and
  /// per-vertex state crosses the checkpoint and result boundaries in
  /// original ids.
  const Permutation* perm = nullptr;

  /// Hybrid mode: force this many outer engine copies (0 = model).
  int outer_copies = 0;
};

/// What a count run reports beyond the BatchResult.
struct CountOutputs {
  /// Per-vertex graphlet degrees keyed by original ids (per_vertex).
  std::vector<double> vertex_counts;
  std::uint64_t root_stabilizer = 0;
  double dp_cost = 0.0;
  int max_live_tables = 0;
  int num_subtemplates = 0;
  std::size_t peak_table_bytes = 0;
};

/// Runs `jobs` as one planned workload and attaches a RunReport built
/// on `header` (kind, label, options, and any timing the entry point
/// measured before the call).  With `count` non-null the batch must
/// hold exactly one job and the report takes the count_template shape
/// (template and sampling constants, trajectory, no job list);
/// `count_out` then receives the count-only outputs.
BatchResult drive(const Graph& graph, const std::vector<BatchJob>& jobs,
                  const BatchOptions& options, obs::RunReport header,
                  const CountInputs* count = nullptr,
                  CountOutputs* count_out = nullptr);

}  // namespace fascia::sched::detail
