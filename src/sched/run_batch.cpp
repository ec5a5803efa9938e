#include "sched/batch.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "core/coloring.hpp"
#include "core/engine.hpp"
#include "core/run_metrics.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/checkpoint.hpp"
#include "run/guard.hpp"
#include "run/memory.hpp"
#include "sched/driver.hpp"
#include "sched/plan.hpp"
#include "sched/thread_layout.hpp"
#include "treelet/canonical.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fascia::sched {

namespace {

using detail::CountInputs;
using detail::CountOutputs;
using fascia::detail::colorings_metric;
using fascia::detail::iteration_seconds_metric;
using fascia::detail::iteration_seed;
using fascia::detail::peak_bytes_metric;
using fascia::detail::random_coloring;
using fascia::detail::random_coloring_permuted;
using fascia::detail::resolve_threads;
using fascia::detail::run_seconds_metric;

/// Controller view of one job while the batch runs.
struct JobState {
  double scale = 0.0;     ///< raw colorful total -> occurrence estimate
  bool adaptive = false;
  double target = 0.0;    ///< relative-stderr goal (adaptive only)
  int quota = 0;          ///< samples granted so far
  int cap = 0;            ///< never exceed (fixed budget or adaptive cap)
  int base = 0;           ///< sample slot where the current round lands
  bool finished = false;
  bool leaf_root = false; ///< single-vertex template
  double leaf_raw = 0.0;  ///< its coloring-independent raw count

  /// Samples this job has actually collected.  Uniform allocation
  /// keeps every active job in every coloring round, so this equals
  /// the global round counter; under adaptive_batch paused jobs fall
  /// behind it.
  [[nodiscard]] int collected(const BatchJobResult& result) const noexcept {
    return static_cast<int>(result.per_iteration.size());
  }
};

/// Reference-kernel hook state (detail::use_reference_kernels).
thread_local bool t_reference_kernels = false;

/// A retained run's per-iteration DP state for one table layout.
template <class Table>
struct RetainedPassesOf final : detail::RetainedPasses {
  std::vector<typename DpEngine<Table>::Retained> passes;  ///< by iteration

  [[nodiscard]] std::size_t bytes() const noexcept override {
    std::size_t total = 0;
    for (const auto& pass : passes) {
      for (const auto& table : pass.tables) {
        if (table != nullptr) total += table->bytes();
      }
      for (const auto& frontier : pass.frontiers) {
        total += frontier.size() * sizeof(VertexId);
      }
    }
    return total;
  }
};

/// Run-layer configuration resolved once, before table-type dispatch.
struct Setup {
  int threads = 1;      ///< resolved pool size
  ThreadLayout layout;  ///< after demotion and the memory plan's cap
  TableKind table = TableKind::kCompact;
  bool ladder_degraded = false;
  bool spill = false;  ///< plan took the out-of-core rung
  std::uint64_t fingerprint = 0;
  RunReport report;
};

/// out[map[i]] = src[i]: scatters a vertex-indexed array through a
/// permutation direction.  With map = to_old this converts reordered
/// ids to original ids (checkpoints and reported per-vertex outputs
/// are always keyed by original ids); with map = to_new it converts
/// back on resume.
std::vector<double> scatter_vertex_values(const std::vector<double>& src,
                                          const std::vector<VertexId>& map) {
  std::vector<double> out(src.size(), 0.0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[static_cast<std::size_t>(map[i])] = src[i];
  }
  return out;
}

Setup resolve_setup(const Graph& graph, const std::vector<BatchJob>& jobs,
                    const BatchOptions& options, const BatchPlan& plan,
                    const CountInputs* count) {
  Setup setup;
  setup.threads = resolve_threads(options.num_threads);
  ThreadLayout layout =
      resolve_layout(options.outer_copies, options.num_threads);
  const bool per_vertex = count != nullptr && count->per_vertex;
  // Early-stopped multi-copy runs can only keep a contiguous iteration
  // prefix, but per-vertex sums cannot be un-merged per iteration —
  // demote to one copy, whose accumulation is exact per iteration.
  // (Estimates are layout-independent by construction.)
  if (per_vertex && options.run.active() && layout.outer_copies > 1) {
    setup.report.degradations.push_back(
        "per-vertex resilient run: outer copies demoted to one");
    layout = resolve_layout(1, options.num_threads);
  }

  // The plan prices the resolved layout; copies x inner threads never
  // exceeds the pool, so the workspace total is a valid upper bound.
  // A capped run gives its leftover threads to the inner sweeps.
  // Without a budget the plan only records its estimate; the ladder
  // runs under a budget alone.
  const run::MemoryPlan memory = run::plan_memory(
      plan.merged, plan.num_colors, graph.num_vertices(), graph.has_labels(),
      options.table, layout.outer_copies, options.run.memory_budget_bytes,
      layout.inner_threads,
      /*spill_available=*/!options.run.spill_dir.empty());
  setup.table = memory.table;
  setup.layout.outer_copies = memory.engine_copies;
  setup.layout.inner_threads =
      std::max(1, setup.threads / memory.engine_copies);
  setup.spill = memory.spill;
  setup.ladder_degraded = !memory.degradations.empty();
  setup.report.degradations.insert(setup.report.degradations.end(),
                                   memory.degradations.begin(),
                                   memory.degradations.end());
  setup.report.estimated_peak_bytes = memory.estimated_peak_bytes;
  if (count != nullptr && count->retained != nullptr) {
    // A retained run keeps every iteration's non-leaf tables past the
    // pass, so the plan prices the retention on top of the pass peak.
    setup.report.estimated_peak_bytes += run::estimate_retained_bytes(
        plan.merged, plan.num_colors, graph.num_vertices(), setup.table,
        graph.has_labels(), jobs.front().iterations);
  }
  setup.report.table_used = setup.table;

  // Everything the per-iteration estimates depend on, so a checkpoint
  // from a different configuration is rejected instead of silently
  // blended.  The effective (post-ladder) table kind participates too,
  // so a checkpoint never blends values from different layouts.
  std::uint64_t fp = run::kFingerprintSeed;
  fp = run::fingerprint_mix(fp, std::uint64_t{run::Checkpoint::kKindBatch});
  fp = run::fingerprint_mix(fp,
                            static_cast<std::uint64_t>(graph.num_vertices()));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(graph.num_edges()));
  fp = run::fingerprint_mix(fp, options.seed);
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(plan.num_colors));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(setup.table));
  for (const BatchJob& job : jobs) {
    fp = run::fingerprint_mix(fp, job.tmpl.describe());
  }
  fp = run::fingerprint_mix(
      fp, static_cast<std::uint64_t>(count != nullptr ? count->root + 1 : 0));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(options.partition));
  fp = run::fingerprint_mix(fp,
                            static_cast<std::uint64_t>(options.share_tables));
  fp = run::fingerprint_mix(fp, static_cast<std::uint64_t>(per_vertex));
  setup.fingerprint = fp;
  return setup;
}

/// The Alg. 1 loop for a concrete table type: shared colorings drawn
/// in rounds, each iteration one DP pass over the merged stage DAG,
/// with cooperative guard checks, checkpoints, and an honest partial
/// result on early stop.  `vertex_sums` (count runs with per_vertex)
/// receives the raw root-vertex totals of the completed iterations,
/// in the graph's own (possibly reordered) ids.  Retained and delta
/// passes (CountInputs::retained/dirty) run the same loop; only the
/// pass itself and what happens to its tables differ.
template <class Table>
void execute(const Graph& graph, const std::vector<BatchJob>& jobs,
             const BatchOptions& options, const BatchPlan& plan,
             const Setup& setup, const CountInputs* count, BatchResult& out,
             std::vector<double>* vertex_sums, CountOutputs* count_out,
             std::vector<obs::ReportStage>* stages) {
  const int k = plan.num_colors;
  const ThreadLayout layout = setup.layout;
  const bool outer = layout.outer_copies > 1;
  const bool parallel_inner = layout.inner_threads > 1;
  out.layout = layout;

  const int round = options.round_iterations > 0 ? options.round_iterations
                                                 : std::max(4, setup.threads);
#ifdef _OPENMP
  if (outer && parallel_inner) omp_set_max_active_levels(2);
#endif

  const RunControls& controls = options.run;
  // Directory targets resolve to a fingerprint-named file so jobs
  // sharing one work directory keep distinct checkpoints.  Count runs
  // keep their fascia_count_ file names; the format is one kind.
  const std::string checkpoint_path = run::resolve_checkpoint_path(
      controls.checkpoint_path,
      count != nullptr ? run::Checkpoint::kKindCount
                       : run::Checkpoint::kKindBatch,
      setup.fingerprint);
  const bool checkpointing = !checkpoint_path.empty();
  const int checkpoint_every = std::max(1, controls.checkpoint_every);
  RunGuard guard(controls);

  out.run = setup.report;
  out.run.engine_copies = layout.outer_copies;

  // One private engine (and thus private stage tables: memory scales
  // with the copy count, §III-E) per outer copy.
  std::vector<DpEngine<Table>> engines;
  const int engine_count = layout.outer_copies;
  engines.reserve(static_cast<std::size_t>(engine_count));
  // The per-label frontier lists are graph-global: build them once and
  // share them across all engine copies.  Every copy sweeps its stages
  // over its thread share.
  DpEngineOptions engine_opts;
  engine_opts.reference_kernels = t_reference_kernels;
  engine_opts.collect_stats =
      obs::enabled() && options.observability.collect_stages;
  engine_opts.inner_threads = layout.inner_threads;

  // Retained runs keep iteration i's tables in slot i, whichever copy
  // computed them; a delta pass re-adopts them from there.
  RetainedPassesOf<Table>* retained = nullptr;
  const DirtyBalls* dirty = count != nullptr ? count->dirty : nullptr;
  if (count != nullptr && count->retained != nullptr) {
    std::unique_ptr<detail::RetainedPasses>& slot = *count->retained;
    if (slot == nullptr && dirty == nullptr) {
      auto fresh = std::make_unique<RetainedPassesOf<Table>>();
      fresh->passes.resize(static_cast<std::size_t>(jobs.front().iterations));
      fresh->label_frontiers = LabelFrontiers::build(graph);
      slot = std::move(fresh);
    }
    retained = dynamic_cast<RetainedPassesOf<Table>*>(slot.get());
    if (retained == nullptr) {
      throw internal_error("drive: no retained passes of this table layout");
    }
  }
  if (retained != nullptr) {
    engine_opts.label_frontiers = retained->label_frontiers;
  } else if (graph.has_labels()) {
    engine_opts.label_frontiers = LabelFrontiers::build(graph);
  }
  // Out-of-core rung: each engine copy pages completed stage tables
  // against its share of the byte budget (run/spill.hpp).
  if (setup.spill && !options.run.spill_dir.empty() &&
      options.run.memory_budget_bytes > 0) {
    engine_opts.spill_dir = options.run.spill_dir;
    engine_opts.spill_budget_bytes =
        options.run.memory_budget_bytes /
        static_cast<std::size_t>(std::max(1, layout.outer_copies));
  }
  for (int t = 0; t < engine_count; ++t) {
    engines.emplace_back(graph, plan.merged, k, engine_opts);
    engines.back().set_guard(&guard);
  }
  std::vector<typename DpEngine<Table>::DeltaPassStats> delta_stats(
      static_cast<std::size_t>(engine_count));

  // Count-run inputs: per-vertex root totals accumulate per engine copy
  // within a round and merge into vertex_sums at the round's end;
  // colorings are keyed on original ids under a reorder.
  const Permutation* perm = count != nullptr ? count->perm : nullptr;
  const bool per_vertex = vertex_sums != nullptr;
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<std::vector<double>> copy_vertex;
  if (per_vertex) {
    vertex_sums->assign(n, 0.0);
    copy_vertex.assign(static_cast<std::size_t>(engine_count),
                       std::vector<double>(n, 0.0));
  }

  const std::size_t num_jobs = jobs.size();
  std::vector<JobState> states(num_jobs);
  int requested = 0;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.colorful_probability =
        colorful_probability(k, jobs[j].tmpl.size());
    result.automorphisms = automorphisms(jobs[j].tmpl);
    JobState& state = states[j];
    state.scale = 1.0 / (result.colorful_probability *
                         static_cast<double>(result.automorphisms));
    state.adaptive = jobs[j].target_relative_stderr > 0.0;
    state.target = jobs[j].target_relative_stderr;
    state.cap = state.adaptive ? jobs[j].max_iterations : jobs[j].iterations;
    state.quota = state.adaptive
                      ? std::min(state.cap,
                                 std::max(options.min_iterations, round))
                      : state.cap;
    result.adaptive = state.adaptive;
    const int root = plan.job_root[j];
    state.leaf_root = plan.merged.node(root).is_leaf();
    if (state.leaf_root) state.leaf_raw = engines.front().leaf_count(root);
    requested = std::max(requested, state.cap);
  }
  out.run.requested_iterations = requested;

  const auto num_nodes = static_cast<std::size_t>(plan.merged.num_nodes());
  int done = 0;

  // Greedy cross-template reallocation: the adaptive jobs' remaining
  // budgets pool after warm-up, and each controller checkpoint hands
  // the next round to the unconverged job with the worst error.
  const bool greedy = options.adaptive_batch;
  long long grant_pool = 0;
  if (greedy) {
    for (const JobState& state : states) {
      if (state.adaptive) grant_pool += state.cap - state.quota;
    }
  }

  // ---- resume -----------------------------------------------------------
  // A checkpoint holds every job's completed series, then (per-vertex
  // runs) the vertex sums keyed by original ids.
  const std::size_t arrays = num_jobs + (per_vertex ? 1 : 0);
  if (checkpointing && controls.resume) {
    std::string why;
    if (auto loaded = run::load_checkpoint(checkpoint_path, &why)) {
      const run::Checkpoint& ck = *loaded;
      const int restored = static_cast<int>(ck.iterations_done);
      bool lengths_ok = ck.per_job.size() == arrays;
      for (std::size_t j = 0; lengths_ok && j < num_jobs; ++j) {
        if (static_cast<int>(ck.per_job[j].size()) > restored) {
          lengths_ok = false;
        }
      }
      if (lengths_ok && per_vertex && ck.per_job.back().size() != n) {
        lengths_ok = false;
      }
      if (ck.kind != run::Checkpoint::kKindBatch) {
        why = "checkpoint kind mismatch";
      } else if (ck.fingerprint != setup.fingerprint) {
        why = "checkpoint fingerprint mismatch";
      } else if (!lengths_ok) {
        why = "checkpoint arrays inconsistent";
      } else {
        for (std::size_t j = 0; j < num_jobs; ++j) {
          out.jobs[j].per_iteration = ck.per_job[j];
        }
        if (per_vertex) {
          // Checkpoints key per-vertex state by original ids, so a
          // resume may use a different (or no) reorder mode.
          *vertex_sums = perm != nullptr
                             ? scatter_vertex_values(ck.per_job.back(),
                                                     perm->to_new)
                             : ck.per_job.back();
        }
        done = restored;
        out.seconds_per_iteration.assign(static_cast<std::size_t>(done),
                                         0.0);
        // Quotas and retirement flags are not serialized: the
        // controller is deterministic in the restored estimates, so
        // replaying its retirement tests against the restored arrays
        // reconstructs them exactly as the interrupted run left them.
        int sim_done = 0;
        while (sim_done < done) {
          int quota_edge = 0;
          bool any = false;
          for (const JobState& state : states) {
            if (state.finished) continue;
            quota_edge =
                any ? std::min(quota_edge, state.quota) : state.quota;
            any = true;
          }
          if (!any) break;
          sim_done = std::min(quota_edge, done);
          if (sim_done != quota_edge) break;  // checkpoint fell mid-round
          for (std::size_t j = 0; j < num_jobs; ++j) {
            JobState& state = states[j];
            if (state.finished || state.quota != sim_done) continue;
            BatchJobResult& result = out.jobs[j];
            const auto prefix_len = std::min(
                result.per_iteration.size(),
                static_cast<std::size_t>(sim_done));
            const std::vector<double> prefix(
                result.per_iteration.begin(),
                result.per_iteration.begin() +
                    static_cast<std::ptrdiff_t>(prefix_len));
            result.relative_stderr = relative_mean_stderr(prefix);
            if (!state.adaptive) {
              state.finished = true;
              continue;
            }
            if (result.relative_stderr <= state.target) {
              state.finished = true;
              result.converged = true;
            } else if (sim_done >= state.cap) {
              state.finished = true;
              result.converged = false;
            } else {
              state.quota = std::min(state.cap, sim_done + round);
            }
          }
        }
        out.run.resumed = true;
        out.run.resumed_iterations = done;
        why.clear();
      }
      if (!why.empty()) out.run.resume_rejected = why;
    } else if (why != "cannot open checkpoint") {
      // A missing file is a fresh start, not a problem; anything else
      // (corrupt, truncated, foreign) is reported.
      out.run.resume_rejected = why;
    }
  }
  int last_saved = done;

  const auto save_checkpoint = [&]() {
    FASCIA_TRACE("checkpoint.save", done);
    run::Checkpoint ck;
    ck.kind = run::Checkpoint::kKindBatch;
    ck.seed = options.seed;
    ck.num_colors = static_cast<std::uint32_t>(k);
    ck.fingerprint = setup.fingerprint;
    ck.iterations_done = static_cast<std::uint32_t>(done);
    ck.per_job.reserve(arrays);
    for (std::size_t j = 0; j < num_jobs; ++j) {
      ck.per_job.push_back(out.jobs[j].per_iteration);
    }
    if (per_vertex) {
      ck.per_job.push_back(perm != nullptr
                               ? scatter_vertex_values(*vertex_sums,
                                                       perm->to_old)
                               : *vertex_sums);
    }
    try {
      run::save_checkpoint(checkpoint_path, ck);
      ++out.run.checkpoints_written;
      last_saved = done;
    } catch (const Error&) {
      // Checkpoints are best-effort: a failed write (disk full,
      // injected fault) must not kill a healthy run.  The previous
      // file is still intact thanks to the temp+rename protocol.
      ++out.run.checkpoint_failures;
    }
  };

  std::exception_ptr first_error;
  while (!guard.stopped()) {
    // Active = jobs with granted samples still to collect.  Under
    // uniform allocation every unfinished job qualifies; under greedy
    // allocation paused jobs (quota spent, not yet re-granted) drop
    // out, and with them their exclusive DP stages.
    std::vector<std::size_t> active;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      if (!states[j].finished &&
          states[j].quota > states[j].collected(out.jobs[j])) {
        active.push_back(j);
      }
    }
    if (active.empty()) break;
    if (fault::fire("run.crash")) throw fault::Injected("run.crash");

    // Round length: the smallest outstanding grant among active jobs
    // (every active job collects one sample per coloring).  Fixed-
    // budget jobs grant their whole cap up front, which would make one
    // giant round; when checkpointing, cap the round so the on-disk
    // state never lags more than checkpoint_every iterations.
    int len = states[active.front()].quota -
              states[active.front()].collected(out.jobs[active.front()]);
    for (std::size_t j : active) {
      len = std::min(len, states[j].quota - states[j].collected(out.jobs[j]));
    }
    if (checkpointing) len = std::min(len, checkpoint_every);
    const int end = done + len;

    // Stages this round's iterations must compute: union over active
    // jobs.  Retired jobs' exclusive stages drop out, so late rounds
    // spend every thread on what the hard templates still need.
    std::vector<char> needed(num_nodes, 0);
    std::size_t demand = 0;
    double cost_sum = 0.0;
    for (std::size_t j : active) {
      for (int id : plan.job_nodes[j]) {
        needed[static_cast<std::size_t>(id)] = 1;
      }
      demand += plan.job_stage_demand[j];
      cost_sum += plan.job_dp_cost[j];
    }
    std::size_t computed = 0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      if (needed[i] != 0 && !plan.merged.node(static_cast<int>(i)).is_leaf()) {
        ++computed;
      }
    }

    const int begin = done;
    out.seconds_per_iteration.resize(static_cast<std::size_t>(end), 0.0);
    for (std::size_t j : active) {
      // A job's samples append at its own base (= its collected count:
      // the global round counter under uniform allocation, less for a
      // greedily re-granted job that sat out some rounds).
      states[j].base = states[j].collected(out.jobs[j]);
      out.jobs[j].per_iteration.resize(
          static_cast<std::size_t>(states[j].base + len), 0.0);
    }
    std::vector<char> completed(static_cast<std::size_t>(end - begin), 0);

    const auto run_one = [&](int iter, std::size_t copy) {
      if (guard.poll()) return;
      DpEngine<Table>& engine = engines[copy];
      WallTimer timer;
      try {
        FASCIA_TRACE("iteration", iter);
        colorings_metric().add();
        // Iteration i's coloring depends only on (seed, i) and is
        // drawn in ORIGINAL id order; under reorder the stream scatters
        // through the permutation, so estimates match the unreordered
        // run bit for bit.
        const std::uint64_t iter_seed = iteration_seed(options.seed, iter);
        const ColorArray colors =
            perm != nullptr
                ? random_coloring_permuted(k, iter_seed, perm->to_new)
                : random_coloring(graph, k, iter_seed);
        if (dirty != nullptr) {
          // Same (seed, iter) -> same coloring as the retained pass: the
          // stream is keyed on vertex ids, never on edges.
          engine.adopt_retained(std::move(
              retained->passes[static_cast<std::size_t>(iter)]));
          engine.run_delta(colors, parallel_inner, *dirty, &delta_stats[copy]);
        } else {
          engine.compute_tables(colors, parallel_inner, &needed,
                                /*keep_tables=*/retained != nullptr);
        }
        if (guard.stopped()) {
          engine.release_all_tables();  // aborted mid-pass: discard
          return;
        }
        for (std::size_t j : active) {
          const double raw = states[j].leaf_root
                                 ? states[j].leaf_raw
                                 : engine.node_total(plan.job_root[j]);
          out.jobs[j].per_iteration[static_cast<std::size_t>(
              states[j].base + (iter - begin))] = raw * states[j].scale;
        }
        if (per_vertex) {
          engine.add_vertex_totals(plan.job_root.front(), copy_vertex[copy]);
        }
        if (retained != nullptr) {
          retained->passes[static_cast<std::size_t>(iter)] =
              engine.take_retained();
        } else {
          engine.release_all_tables();
        }
        const double secs = timer.elapsed_s();
        out.seconds_per_iteration[static_cast<std::size_t>(iter)] = secs;
        iteration_seconds_metric().observe(secs);
        completed[static_cast<std::size_t>(iter - begin)] = 1;
      } catch (const std::bad_alloc&) {
        engine.release_all_tables();
        guard.stop(RunStatus::kMemDegraded);
      } catch (const Error& error) {
        engine.release_all_tables();
        if (error.category() == ErrorCategory::kResource) {
          guard.stop(RunStatus::kMemDegraded);
        } else {
#ifdef _OPENMP
#pragma omp critical(fascia_run_error)
#endif
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
          guard.stop(RunStatus::kCancelled);
        }
      }
    };

    // Iterations within a round are dynamically scheduled over the
    // outer copies; determinism holds because iteration i's coloring
    // depends only on (seed, i).
#ifdef _OPENMP
    if (outer) {
#pragma omp parallel num_threads(layout.outer_copies)
      {
        const auto copy = static_cast<std::size_t>(omp_get_thread_num());
#pragma omp for schedule(dynamic, 1)
        for (int iter = begin; iter < end; ++iter) run_one(iter, copy);
      }
    } else
#endif
    {
      for (int iter = begin; iter < end; ++iter) {
        if (fault::fire("run.crash")) throw fault::Injected("run.crash");
        run_one(iter, 0);
        if (guard.stopped()) break;
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
    for (std::vector<double>& local : copy_vertex) {
      for (std::size_t v = 0; v < n; ++v) {
        (*vertex_sums)[v] += local[v];
        local[v] = 0.0;
      }
    }

    // Contiguous completed prefix: a counter-mode resume point.  On a
    // clean round this is simply `end`.
    int prefix = begin;
    while (prefix < end &&
           completed[static_cast<std::size_t>(prefix - begin)] != 0) {
      ++prefix;
    }
    const auto round_completed = static_cast<std::size_t>(
        std::count(completed.begin(), completed.end(), char{1}));
    out.stage_requests += demand * round_completed;
    out.stage_evaluations += computed * round_completed;
    for (int iter = begin; iter < prefix; ++iter) {
      const double share =
          out.seconds_per_iteration[static_cast<std::size_t>(iter)] /
          (cost_sum > 0.0 ? cost_sum : 1.0);
      for (std::size_t j : active) {
        out.jobs[j].seconds += share * plan.job_dp_cost[j];
      }
    }
    done = prefix;
    if (done < end) {
      // Early stop mid-round: stragglers past the gap are discarded so
      // the retained estimates form an exact iteration prefix (they are
      // unbiased too, but resuming needs a counter-mode prefix).
      out.seconds_per_iteration.resize(static_cast<std::size_t>(done));
      for (std::size_t j : active) {
        out.jobs[j].per_iteration.resize(
            static_cast<std::size_t>(states[j].base + (done - begin)));
      }
    }
    if (checkpointing && done > last_saved) save_checkpoint();

    // Controller checkpoint: retire fixed jobs whose budget is spent;
    // test adaptive jobs against their target and either retire them,
    // grant another round (uniform), or leave them paused for the
    // greedy grant below.
    for (std::size_t j : active) {
      JobState& state = states[j];
      if (state.quota != state.collected(out.jobs[j])) continue;
      BatchJobResult& result = out.jobs[j];
      result.relative_stderr = relative_mean_stderr(result.per_iteration);
      if (!state.adaptive) {
        state.finished = true;
        continue;
      }
      if (result.relative_stderr <= state.target) {
        state.finished = true;
        result.converged = true;
      } else if (greedy) {
        if (grant_pool <= 0) {
          state.finished = true;
          result.converged = false;
        }
        // else: paused until the greedy grant picks it
      } else if (done >= state.cap) {
        state.finished = true;
        result.converged = false;
      } else {
        state.quota = std::min(state.cap, done + round);
      }
    }

    if (greedy) {
      // Grant the next round to the unconverged adaptive job with the
      // worst relative standard error — remaining budget flows to the
      // templates that still need it (the cross-template analogue of
      // Motivo's adaptive sampling).
      if (grant_pool > 0) {
        std::size_t best = num_jobs;
        double worst = -1.0;
        for (std::size_t j = 0; j < num_jobs; ++j) {
          const JobState& state = states[j];
          if (state.finished || !state.adaptive) continue;
          if (state.quota > state.collected(out.jobs[j])) continue;
          if (out.jobs[j].relative_stderr > worst) {
            worst = out.jobs[j].relative_stderr;
            best = j;
          }
        }
        if (best < num_jobs) {
          const int grant =
              static_cast<int>(std::min<long long>(round, grant_pool));
          states[best].quota += grant;
          grant_pool -= grant;
        }
      }
      if (grant_pool <= 0) {
        // Budget exhausted: retire every still-paused adaptive job so
        // the batch terminates (a job mid-grant finishes its round and
        // retires at the controller above).
        for (std::size_t j = 0; j < num_jobs; ++j) {
          JobState& state = states[j];
          if (state.finished || !state.adaptive) continue;
          if (state.quota <= state.collected(out.jobs[j])) {
            state.finished = true;
            out.jobs[j].converged = false;
          }
        }
      }
    }
  }

  out.coloring_rounds = done;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    BatchJobResult& result = out.jobs[j];
    result.iterations = static_cast<int>(result.per_iteration.size());
    result.estimate = mean(result.per_iteration);
    result.relative_stderr = relative_mean_stderr(result.per_iteration);
    out.iterations_total += result.iterations;
  }
  if (engine_opts.collect_stats) {
    for (const DpEngine<Table>& engine : engines) {
      merge_stage_stats(engine.stage_stats(), Table::kName, stages);
    }
  }
  for (const DpEngine<Table>& engine : engines) {
    out.run.spilled_bytes += engine.spilled_bytes();
    out.run.spill_events += engine.spill_events();
  }
  if (count_out != nullptr) {
    for (const auto& pass : delta_stats) {
      count_out->delta.stages_recomputed +=
          static_cast<std::uint64_t>(pass.stages_recomputed);
      count_out->delta.rows_recomputed += pass.rows_recomputed;
      count_out->delta.rows_copied += pass.rows_copied;
    }
  }
  out.run.completed_iterations = done;
  if (guard.stopped()) {
    out.run.status = guard.status();
  } else if (setup.ladder_degraded) {
    out.run.status = RunStatus::kMemDegraded;
  } else {
    out.run.status = RunStatus::kCompleted;
  }
}

}  // namespace

namespace detail {

void use_reference_kernels(bool on) noexcept { t_reference_kernels = on; }

BatchResult drive(const Graph& graph, const std::vector<BatchJob>& jobs,
                  const BatchOptions& options, obs::RunReport header,
                  const CountInputs* count, CountOutputs* count_out) {
  WallTimer total_timer;
  const BatchPlan plan =
      plan_batch(graph, jobs, options, count != nullptr ? count->root : -1);

  BatchResult result;
  result.jobs.resize(jobs.size());
  result.num_colors = plan.num_colors;
  result.seconds_plan = plan.seconds;
  result.total_stage_instances = plan.total_stage_instances;
  result.unique_stages = plan.unique_stages;

  const Setup setup = resolve_setup(graph, jobs, options, plan, count);
  std::vector<double> vertex_sums;
  std::vector<double>* sums =
      count != nullptr && count->per_vertex ? &vertex_sums : nullptr;
  std::vector<obs::ReportStage> stages;
  std::size_t peak_bytes = 0;
  {
    PeakMemScope peak_scope(peak_bytes);
    switch (setup.table) {
      case TableKind::kNaive:
        execute<NaiveTable>(graph, jobs, options, plan, setup, count,
                            result, sums, count_out, &stages);
        break;
      case TableKind::kCompact:
        execute<CompactTable>(graph, jobs, options, plan, setup, count,
                              result, sums, count_out, &stages);
        break;
      case TableKind::kHash:
        execute<HashTable>(graph, jobs, options, plan, setup, count,
                           result, sums, count_out, &stages);
        break;
      case TableKind::kSuccinct:
        execute<SuccinctTable>(graph, jobs, options, plan, setup, count,
                               result, sums, count_out, &stages);
        break;
    }
  }

  result.seconds_total = total_timer.elapsed_s();
  run_seconds_metric().observe(result.seconds_total);
  peak_bytes_metric().set(static_cast<double>(peak_bytes));

  // RunOutcome view of the batch: sum of job estimates, worst per-job
  // error (sums of counts at heterogeneous scales make a pooled stderr
  // meaningless; the max is the honest "all jobs at least this good").
  result.estimate = 0.0;
  result.relative_stderr = 0.0;
  for (const BatchJobResult& job : result.jobs) {
    result.estimate += job.estimate;
    result.relative_stderr =
        std::max(result.relative_stderr, job.relative_stderr);
  }

  auto report = std::make_shared<obs::RunReport>(std::move(header));
  report->graph.vertices = static_cast<std::int64_t>(graph.num_vertices());
  report->graph.edges = static_cast<std::int64_t>(graph.num_edges());
  report->graph.max_degree = static_cast<std::int64_t>(graph.max_degree());
  report->graph.labeled = graph.has_labels();
  report->sampling.requested_iterations = result.run.requested_iterations;
  report->sampling.completed_iterations = result.run.completed_iterations;
  report->sampling.num_colors = plan.num_colors;
  report->sampling.seed = options.seed;
  report->sampling.estimate = result.estimate;
  report->sampling.relative_stderr = result.relative_stderr;
  report->timing.total_seconds = result.seconds_total;
  report->timing.plan_seconds = result.seconds_plan;
  report->timing.per_iteration_seconds = result.seconds_per_iteration;
  report->memory.planned_peak_bytes = result.run.estimated_peak_bytes;
  report->memory.observed_peak_bytes = peak_bytes;
  report->memory.spilled_bytes = result.run.spilled_bytes;
  report->memory.spill_events = result.run.spill_events;
  report->memory.table = table_kind_name(result.run.table_used);
  report->memory.degradations = result.run.degradations;
  report->threads.outer_copies = result.layout.outer_copies;
  report->threads.inner_threads = result.layout.inner_threads;
#ifdef _OPENMP
  report->threads.omp_max_threads = omp_get_max_threads();
#else
  report->threads.omp_max_threads = 1;
#endif
  report->run.status = run_status_name(result.run.status);
  report->run.resumed = result.run.resumed;
  report->run.resumed_iterations = result.run.resumed_iterations;
  report->run.resume_rejected = result.run.resume_rejected;
  report->run.checkpoints_written = result.run.checkpoints_written;
  report->run.checkpoint_failures = result.run.checkpoint_failures;
  report->stages = std::move(stages);

  if (count != nullptr) {
    // One-job count run: the count_template report shape and outputs.
    const BatchJobResult& job = result.jobs.front();
    const int root_node = plan.job_root.front();
    report->tmpl.vertices = jobs.front().tmpl.size();
    report->tmpl.root = count->root;
    report->tmpl.subtemplates = plan.merged.num_nodes();
    report->sampling.colorful_probability = job.colorful_probability;
    report->sampling.automorphisms = job.automorphisms;
    report->sampling.trajectory = prefix_means(job.per_iteration);

    count_out->root_stabilizer = vertex_stabilizer(
        jobs.front().tmpl, plan.merged.node(root_node).root);
    count_out->dp_cost = plan.job_dp_cost.front();
    count_out->max_live_tables = plan.merged.max_live_tables();
    count_out->num_subtemplates = plan.merged.num_nodes();
    count_out->peak_table_bytes = peak_bytes;
    report->delta.stages_recomputed = count_out->delta.stages_recomputed;
    report->delta.rows_recomputed = count_out->delta.rows_recomputed;
    report->delta.rows_copied = count_out->delta.rows_copied;
    if (sums != nullptr) {
      // Per-vertex rooted totals count each occurrence through v once
      // per stabilizer element of the root's orbit; reported counts
      // are keyed by ORIGINAL vertex ids.
      const double vertex_scale =
          1.0 / (job.colorful_probability *
                 static_cast<double>(count_out->root_stabilizer));
      const int done = result.run.completed_iterations;
      const double denominator = done > 0 ? static_cast<double>(done) : 1.0;
      count_out->vertex_counts.assign(vertex_sums.size(), 0.0);
      for (std::size_t v = 0; v < vertex_sums.size(); ++v) {
        const auto id = count->perm != nullptr
                            ? static_cast<std::size_t>(count->perm->to_old[v])
                            : v;
        count_out->vertex_counts[id] =
            vertex_sums[v] * vertex_scale / denominator;
      }
    }
  } else {
    report->tmpl.subtemplates = static_cast<int>(result.unique_stages);
    report->jobs.reserve(result.jobs.size());
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      obs::ReportJob entry;
      entry.name = jobs[j].tmpl.describe();
      entry.estimate = result.jobs[j].estimate;
      entry.relative_stderr = result.jobs[j].relative_stderr;
      entry.iterations = result.jobs[j].iterations;
      entry.converged = result.jobs[j].converged;
      report->jobs.push_back(std::move(entry));
    }
  }
  result.report = std::move(report);
  return result;
}

}  // namespace detail

BatchResult run_batch(const Graph& graph, const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  if (options.observability.enabled) obs::set_enabled(true);
  FASCIA_TRACE("batch.run", static_cast<std::int64_t>(jobs.size()));
  obs::RunReport header;
  header.kind = "run_batch";
  header.label = options.observability.label;
  header.options = {
      {"jobs", std::to_string(jobs.size())},
      {"num_colors", std::to_string(batch_colors(jobs, options))},
      {"seed", std::to_string(options.seed)},
      {"table", table_kind_name(options.table)},
      {"partition", options.partition == PartitionStrategy::kOneAtATime
                        ? "one_at_a_time"
                        : "balanced"},
      {"share_tables", options.share_tables ? "true" : "false"},
      {"cross_template_reuse",
       options.cross_template_reuse ? "true" : "false"},
      {"outer_copies", std::to_string(options.outer_copies)},
      {"num_threads", std::to_string(options.num_threads)},
      {"min_iterations", std::to_string(options.min_iterations)},
      {"round_iterations", std::to_string(options.round_iterations)},
      {"adaptive_batch", options.adaptive_batch ? "true" : "false"},
  };
  return detail::drive(graph, jobs, options, std::move(header));
}

}  // namespace fascia::sched
