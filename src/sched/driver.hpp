#pragma once
// The one iteration driver (Alg. 1 under the resilient run layer).
//
// run_batch and count_template are thin entry points over drive():
// run_batch hands it a job list, count_template a one-job batch plus
// the inputs only a single-template count has (template root,
// per-vertex accumulation, reorder permutation).  Those inputs stay
// here instead of on BatchJob/BatchOptions so the public batch API
// keeps its shape.  Internal header: not part of the stable API.
//
// The same loop is the incremental counter (core/incremental.hpp): a
// retained run keeps every iteration's DP tables in a RetainedPasses
// slot instead of releasing them, and a delta pass re-adopts them and
// recomputes each stage only inside the dirty balls (DESIGN.md §7).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/count_options.hpp"
#include "graph/reorder.hpp"
#include "obs/report.hpp"
#include "sched/batch.hpp"
#include "treelet/tree_template.hpp"

namespace fascia {
struct DirtyBalls;
struct LabelFrontiers;
}  // namespace fascia

namespace fascia::sched::detail {

/// Per-iteration DP state a retained run keeps between passes.  The
/// driver's table switch creates the concrete per-layout slot.
struct RetainedPasses {
  virtual ~RetainedPasses() = default;
  /// Bytes held by the retained tables and frontiers.
  [[nodiscard]] virtual std::size_t bytes() const noexcept = 0;
  /// Built by the first pass; edge deltas never change labels.
  std::shared_ptr<const LabelFrontiers> label_frontiers;
};

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

  /// In/out slot of a retained run.  Non-null: every iteration's tables
  /// are kept in *retained (created when empty).  With `dirty` also
  /// set, the run is a delta pass: iteration i adopts its retained
  /// state, recomputes inside the dirty balls and keeps the result.
  /// Retained runs need a fixed budget and inert RunControls.
  std::unique_ptr<RetainedPasses>* retained = nullptr;
  const DirtyBalls* dirty = nullptr;
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

  /// Delta-pass work (stage and row counters only), summed over
  /// iterations and engine copies.
  CountResult::DeltaStats delta;
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

/// Test hook for the bit-identity oracle: while on, drive() calls on
/// this thread run the pre-frontier reference kernels
/// (DpEngineOptions::reference_kernels).  Estimates are identical
/// either way, so the hook is not part of any option set.
void use_reference_kernels(bool on) noexcept;

}  // namespace fascia::sched::detail

namespace fascia::detail {

/// count_template's body, shared with the incremental counter: runs
/// `tmpl` as a one-job batch on drive() and converts the BatchResult
/// into a CountResult.  Root and per_vertex come from `options`, the
/// rest of `inputs` from the caller.  Defined in
/// core/counter.cpp.
CountResult drive_count(const Graph& graph, const TreeTemplate& tmpl,
                        const CountOptions& options, obs::RunReport header,
                        sched::detail::CountInputs inputs);

/// Report header of a count run: kind, label and the option echo; the
/// driver fills everything it measures.
obs::RunReport count_report_header(const char* kind, const TreeTemplate& tmpl,
                                   const CountOptions& options);

}  // namespace fascia::detail
