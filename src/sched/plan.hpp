#pragma once
// Batch planner: merges every job's partition tree into one DP stage
// DAG with cross-template deduplication.
//
// Each template is partitioned with the existing single-edge-cut
// partitioner; nodes are then interned into a global stage list keyed
// by their rooted canonical form (treelet/canonical*), so a rooted
// subtemplate appearing in several templates becomes ONE stage whose
// table every consumer reads.  The merged node list is itself a valid
// PartitionTree (children precede parents; free_after lifetimes span
// all cross-template consumers), so the unmodified DpEngine executes
// it.  Per-template roots are pinned alive until the end of a pass —
// with mixed template sizes a whole job can be a shared sub-stage of a
// bigger one.

#include <cstddef>
#include <vector>

#include "sched/batch.hpp"
#include "treelet/partition.hpp"

namespace fascia::sched {

struct BatchPlan {
  int num_colors = 0;

  /// The merged stage DAG (a PartitionTree over all templates).
  PartitionTree merged;

  /// Merged node id of each job's root stage.
  std::vector<int> job_root;

  /// Merged node ids reachable from each job's root (sorted) — the
  /// stages one iteration of this job demands.  Used to build the
  /// needed-stage mask once jobs start retiring.
  std::vector<std::vector<int>> job_nodes;

  /// Non-leaf stages each job demands per iteration (cache-hit
  /// accounting numerator).
  std::vector<std::size_t> job_stage_demand;

  /// Per-job standalone DP cost Σ C(k,h)·C(h,a) — the attribution
  /// weight for splitting measured iteration time across jobs.
  std::vector<double> job_dp_cost;

  std::size_t total_stage_instances = 0;  ///< Σ job_stage_demand
  std::size_t unique_stages = 0;          ///< non-leaf merged stages
  double seconds = 0.0;                   ///< planning wall time
};

/// Colors the batch runs with: options.num_colors, or the largest
/// template size when that is 0.
int batch_colors(const std::vector<BatchJob>& jobs,
                 const BatchOptions& options);

/// Builds the merged plan.  Validates per-job template sizes against
/// the batch's color count and the jobs' iteration budgets.  `root`
/// fixes every job's template root (-1 = strategy default); the count
/// entry points pass the orbit vertex of their one job.
BatchPlan plan_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                     const BatchOptions& options, int root = -1);

}  // namespace fascia::sched
