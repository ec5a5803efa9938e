#include "core/mixed_counter.hpp"

#include <memory>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "core/coloring.hpp"
#include "core/counter.hpp"
#include "core/mixed_engine.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "obs/report.hpp"
#include "sched/thread_layout.hpp"
#include "util/mem_tracker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia {

namespace {

using detail::iteration_seed;
using detail::random_coloring;

template <class Table>
CountResult run_mixed(const Graph& graph, const MixedTemplate& tmpl,
                      const CountOptions& options) {
  const int k = options.sampling.num_colors > 0 ? options.sampling.num_colors : tmpl.size();
  if (tmpl.has_labels() != graph.has_labels()) {
    throw std::invalid_argument(
        "count_mixed_template: template and graph must both be labeled or "
        "both unlabeled");
  }
  if (k < tmpl.size() || k > kMaxTemplateSize) {
    throw std::invalid_argument("count_mixed_template: bad color count");
  }
  if (options.sampling.iterations < 1) {
    throw std::invalid_argument("count_mixed_template: iterations >= 1");
  }
  if (options.per_vertex) {
    throw std::invalid_argument(
        "count_mixed_template: per-vertex counts are tree-only");
  }

  const MixedPartition partition =
      partition_mixed_template(tmpl, options.root);

  CountResult result;
  result.automorphisms = mixed_automorphisms(tmpl);
  result.colorful_probability = colorful_probability(k, tmpl.size());
  result.num_subtemplates = partition.num_nodes();
  const double scale =
      1.0 / (result.colorful_probability *
             static_cast<double>(result.automorphisms));

  const int iterations = options.sampling.iterations;
  result.per_iteration.assign(static_cast<std::size_t>(iterations), 0.0);
  result.seconds_per_iteration.assign(static_cast<std::size_t>(iterations),
                                      0.0);

  std::size_t peak_bytes = 0;
  WallTimer total_timer;
  {
    PeakMemScope peak_scope(peak_bytes);
    // The run_batch layout (sched/thread_layout.hpp): each outer copy
    // runs whole iterations with a private engine that sweeps over its
    // inner-thread share.
    const ThreadLayout layout = resolve_layout(
        options.execution.outer_copies, options.execution.threads);
    const bool parallel_inner = layout.inner_threads > 1;
#ifdef _OPENMP
    if (layout.outer_copies > 1 && parallel_inner) {
      omp_set_max_active_levels(2);
    }
#pragma omp parallel num_threads(layout.outer_copies)
#endif
    {
      MixedDpEngine<Table> engine(graph, tmpl, partition, k,
                                  layout.inner_threads);
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
      for (int iter = 0; iter < iterations; ++iter) {
        WallTimer timer;
        const auto colors =
            random_coloring(graph, k, iteration_seed(options.sampling.seed, iter));
        result.per_iteration[static_cast<std::size_t>(iter)] =
            engine.run(colors, parallel_inner) * scale;
        result.seconds_per_iteration[static_cast<std::size_t>(iter)] =
            timer.elapsed_s();
      }
    }
    result.layout = layout;
  }
  result.peak_table_bytes = peak_bytes;
  result.seconds_total = total_timer.elapsed_s();
  result.estimate = mean(result.per_iteration);
  result.relative_stderr = relative_mean_stderr(result.per_iteration);
  result.run.requested_iterations = iterations;
  result.run.completed_iterations = iterations;
  result.run.table_used = options.execution.table;

  auto report = std::make_shared<obs::RunReport>();
  report->kind = "count_mixed_template";
  report->label = options.observability.label;
  report->options = {
      {"sampling.iterations", std::to_string(iterations)},
      {"sampling.num_colors", std::to_string(k)},
      {"sampling.seed", std::to_string(options.sampling.seed)},
      {"execution.table", table_kind_name(options.execution.table)},
      {"execution.outer_copies",
       std::to_string(options.execution.outer_copies)},
      {"execution.threads", std::to_string(options.execution.threads)},
  };
  report->graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
  report->graph.edges = static_cast<std::int64_t>(graph.num_edges());
  report->graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
  report->graph.labeled = graph.has_labels();
  report->threads.outer_copies = result.layout.outer_copies;
  report->threads.inner_threads = result.layout.inner_threads;
  report->tmpl.vertices = tmpl.size();
  report->tmpl.subtemplates = result.num_subtemplates;
  report->sampling.requested_iterations = iterations;
  report->sampling.completed_iterations = iterations;
  report->sampling.num_colors = k;
  report->sampling.seed = options.sampling.seed;
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->sampling.colorful_probability = result.colorful_probability;
  report->sampling.automorphisms = result.automorphisms;
  report->sampling.trajectory = result.running_estimates();
  report->timing.total_seconds = result.seconds_total;
  report->timing.per_iteration_seconds = result.seconds_per_iteration;
  report->memory.observed_peak_bytes = peak_bytes;
  report->memory.table = table_kind_name(options.execution.table);
  report->run.status = run_status_name(result.run.status);
  result.report = std::move(report);
  return result;
}

}  // namespace

CountResult count_mixed_template(const Graph& graph,
                                 const MixedTemplate& tmpl,
                                 const CountOptions& options) {
  if (tmpl.is_tree()) {
    return count_template(graph, tmpl.as_tree(), options);
  }
  // The mixed DP has no reorder, run-control or retention plumbing and
  // would silently ignore those requests — reject instead (the tree
  // path above supports them).
  reject_unsupported_reorder(options, "count_mixed_template (non-tree)");
  reject_unsupported_run_controls(options, "count_mixed_template (non-tree)");
  options.validate();
  switch (options.execution.table) {
    case TableKind::kNaive:
      return run_mixed<NaiveTable>(graph, tmpl, options);
    case TableKind::kCompact:
      return run_mixed<CompactTable>(graph, tmpl, options);
    case TableKind::kHash:
      return run_mixed<HashTable>(graph, tmpl, options);
    case TableKind::kSuccinct:
      return run_mixed<SuccinctTable>(graph, tmpl, options);
  }
  throw std::logic_error("count_mixed_template: bad TableKind");
}

}  // namespace fascia
