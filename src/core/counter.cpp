#include "core/counter.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sched/driver.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

namespace {

std::string format_bool(bool value) { return value ? "true" : "false"; }

/// count_template and graphlet_degrees: Alg. 1 as a one-job batch on
/// the shared iteration driver (sched/driver.hpp).
CountResult count_one(const Graph& graph, const TreeTemplate& tmpl,
                      const CountOptions& options, const char* kind) {
  if (options.execution.incremental) {
    throw usage_error(
        "count_template does not retain DP state; use begin_incremental "
        "(core/incremental.hpp) for incremental recounting");
  }
  detail::validate_count_inputs(graph, tmpl, options, "count_template");
  if (options.observability.enabled) obs::set_enabled(true);
  FASCIA_TRACE("count.run", tmpl.size(), effective_colors(tmpl, options));
  obs::RunReport header = detail::count_report_header(kind, tmpl, options);

  // The locality pass runs once up front; the driver sees the
  // reordered graph, while colorings, checkpoints, and per-vertex
  // outputs stay keyed by original ids, so the estimate is
  // bit-identical to the unreordered run.
  if (options.execution.reorder == ReorderMode::kNone) {
    return detail::drive_count(graph, tmpl, options, std::move(header), {});
  }
  WallTimer timer;
  const Permutation perm =
      reorder_permutation(graph, options.execution.reorder);
  const Graph reordered = apply_permutation(graph, perm);
  const double reorder_seconds = timer.elapsed_s();
  header.timing.reorder_seconds = reorder_seconds;
  sched::detail::CountInputs inputs;
  inputs.perm = &perm;
  CountResult result = detail::drive_count(reordered, tmpl, options,
                                           std::move(header), inputs);
  result.reorder_seconds = reorder_seconds;
  result.reorder_gap_before = avg_neighbor_gap(graph);
  result.reorder_gap_after = avg_neighbor_gap(reordered);
  return result;
}

}  // namespace

namespace detail {

obs::RunReport count_report_header(const char* kind, const TreeTemplate& tmpl,
                                   const CountOptions& options) {
  obs::RunReport header;
  header.kind = kind;
  header.label = options.observability.label;
  header.options = {
      {"sampling.iterations", std::to_string(options.sampling.iterations)},
      {"sampling.num_colors", std::to_string(effective_colors(tmpl, options))},
      {"sampling.seed", std::to_string(options.sampling.seed)},
      {"execution.table", table_kind_name(options.execution.table)},
      {"execution.partition",
       options.execution.partition == PartitionStrategy::kOneAtATime
           ? "one_at_a_time"
           : "balanced"},
      {"execution.share_tables", format_bool(options.execution.share_tables)},
      {"execution.threads", std::to_string(options.execution.threads)},
      {"execution.reorder", reorder_mode_name(options.execution.reorder)},
      {"execution.outer_copies",
       std::to_string(options.execution.outer_copies)},
      {"root", std::to_string(options.root)},
      {"per_vertex", format_bool(options.per_vertex)},
  };
  if (options.run.active()) {
    header.options.emplace_back(
        "run.deadline_seconds", std::to_string(options.run.deadline_seconds));
    header.options.emplace_back(
        "run.memory_budget_bytes",
        std::to_string(options.run.memory_budget_bytes));
    header.options.emplace_back("run.checkpoint_path",
                                options.run.checkpoint_path);
    header.options.emplace_back("run.resume",
                                format_bool(options.run.resume));
  }
  return header;
}

CountResult drive_count(const Graph& graph, const TreeTemplate& tmpl,
                        const CountOptions& options, obs::RunReport header,
                        sched::detail::CountInputs inputs) {
  sched::BatchOptions batch;
  batch.num_colors = effective_colors(tmpl, options);
  batch.table = options.execution.table;
  batch.partition = options.execution.partition;
  batch.share_tables = options.execution.share_tables;
  // One template: no cross-template interning, so the stage DAG is
  // exactly the template's own partition.
  batch.cross_template_reuse = false;
  batch.outer_copies = options.execution.outer_copies;
  batch.num_threads = options.execution.threads;
  batch.seed = options.sampling.seed;
  batch.run = options.run;
  batch.observability = options.observability;
  std::vector<sched::BatchJob> jobs(1);
  jobs[0].tmpl = tmpl;
  jobs[0].iterations = options.sampling.iterations;
  inputs.root = options.root;
  inputs.per_vertex = options.per_vertex;

  sched::detail::CountOutputs outputs;
  sched::BatchResult batch_result = sched::detail::drive(
      graph, jobs, batch, std::move(header), &inputs, &outputs);
  sched::BatchJobResult& job = batch_result.jobs.front();
  CountResult result;
  result.estimate = batch_result.estimate;
  result.relative_stderr = batch_result.relative_stderr;
  result.run = std::move(batch_result.run);
  result.report = std::move(batch_result.report);
  result.per_iteration = std::move(job.per_iteration);
  result.vertex_counts = std::move(outputs.vertex_counts);
  result.seconds_total = batch_result.seconds_total;
  result.seconds_per_iteration = std::move(batch_result.seconds_per_iteration);
  result.peak_table_bytes = outputs.peak_table_bytes;
  result.colorful_probability = job.colorful_probability;
  result.automorphisms = job.automorphisms;
  result.root_stabilizer = outputs.root_stabilizer;
  result.dp_cost = outputs.dp_cost;
  result.max_live_tables = outputs.max_live_tables;
  result.num_subtemplates = outputs.num_subtemplates;
  result.layout = batch_result.layout;
  const obs::RunReport::Delta& delta = result.report->delta;
  result.delta = {delta.applied_edges,     delta.dirty_vertices,
                  delta.dirty_fraction,    delta.stages_recomputed,
                  delta.rows_recomputed,   delta.rows_copied};
  return result;
}

void validate_count_inputs(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options, const char* api) {
  const std::string prefix = std::string(api) + ": ";
  if (tmpl.has_labels() != graph.has_labels()) {
    throw std::invalid_argument(
        prefix +
        "template and graph must both be labeled or both unlabeled");
  }
  const int k = effective_colors(tmpl, options);
  if (k < tmpl.size()) {
    throw std::invalid_argument(prefix +
                                "num_colors must be >= template size");
  }
  if (k > kMaxTemplateSize) {
    throw std::invalid_argument(prefix + "too many colors");
  }
  if (options.sampling.iterations < 1) {
    throw std::invalid_argument(prefix + "iterations must be >= 1");
  }
  if (options.root < -1 || options.root >= tmpl.size()) {
    throw std::invalid_argument(prefix + "root out of range");
  }
  options.validate();  // grouped-options coherence checks (kUsage)
}

}  // namespace detail

int effective_colors(const TreeTemplate& tmpl, const CountOptions& options) {
  return options.sampling.num_colors > 0 ? options.sampling.num_colors
                                         : tmpl.size();
}

CountResult count_template(const Graph& graph, const TreeTemplate& tmpl,
                           const CountOptions& options) {
  return count_one(graph, tmpl, options, "count_template");
}

CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             int orbit_vertex, CountOptions options) {
  options.root = orbit_vertex;
  options.per_vertex = true;
  return count_one(graph, tmpl, options, "graphlet_degrees");
}

CountResult graphlet_degrees(const Graph& graph, const TreeTemplate& tmpl,
                             const CountOptions& options) {
  if (options.root < 0) {
    throw usage_error(
        "graphlet_degrees: options.root must name the orbit vertex "
        "(builder().root(v))");
  }
  return graphlet_degrees(graph, tmpl, options.root, options);
}

std::vector<double> CountResult::running_estimates() const {
  return prefix_means(per_iteration);
}

}  // namespace fascia
