#include "sched/batch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/counter.hpp"
#include "core/motifs.hpp"
#include "exact/backtrack.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "sched/plan.hpp"
#include "treelet/free_trees.hpp"
#include "util/stats.hpp"
#include "util/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(60, 150, 7));
  return g;
}

std::vector<sched::BatchJob> fixed_jobs(int k, int iterations) {
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(k)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.iterations = iterations;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The per-template reference: count_template under the batch's shared
/// coloring seed and color count.
CountResult reference(const Graph& g, const TreeTemplate& tree,
                      int iterations, std::uint64_t seed, int num_colors) {
  CountOptions options;
  options.sampling.iterations = iterations;
  options.sampling.seed = seed;
  options.sampling.num_colors = num_colors;
  options.execution.threads = 1;
  return count_template(g, tree, options);
}

TEST(Sched, BatchMatchesPerTemplatePathWithReuse) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 4);
  sched::BatchOptions options;
  options.seed = 11;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  ASSERT_EQ(batch.jobs.size(), jobs.size());
  EXPECT_EQ(batch.num_colors, 5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 4, 11, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
    EXPECT_EQ(batch.jobs[j].estimate, ref.estimate) << "job " << j;
    EXPECT_EQ(batch.jobs[j].iterations, 4);
    EXPECT_TRUE(batch.jobs[j].converged);
    EXPECT_FALSE(batch.jobs[j].adaptive);
  }
  EXPECT_EQ(batch.iterations_total, 4 * static_cast<long long>(jobs.size()));
  EXPECT_EQ(batch.coloring_rounds, 4);
}

TEST(Sched, ReuseDisabledBitIdentical) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 3);
  sched::BatchOptions options;
  options.seed = 23;
  options.cross_template_reuse = false;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 3, 23, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
    EXPECT_EQ(batch.jobs[j].estimate, ref.estimate) << "job " << j;
  }
  // No sharing: every demanded stage is evaluated.
  EXPECT_EQ(batch.unique_stages, batch.total_stage_instances);
  EXPECT_EQ(batch.stage_evaluations, batch.stage_requests);
  EXPECT_DOUBLE_EQ(batch.cache_hit_rate(), 0.0);
}

TEST(Sched, DeterministicAcrossLayoutsAndTables) {
  // Every table layout, serial against outer_copies 1, 0 and 2 on 4
  // threads (inner, outer and nested 2 x 2).
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 3);
  for (TableKind table : {TableKind::kNaive, TableKind::kCompact,
                          TableKind::kHash, TableKind::kSuccinct}) {
    sched::BatchOptions serial;
    serial.seed = 5;
    serial.table = table;
    serial.num_threads = 1;
    const auto a = sched::run_batch(g, jobs, serial);
    for (int copies : {1, 0, 2}) {
      sched::BatchOptions layout = serial;
      layout.outer_copies = copies;
      layout.num_threads = 4;
      const auto b = sched::run_batch(g, jobs, layout);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(a.jobs[j].per_iteration, b.jobs[j].per_iteration)
            << table_kind_name(table) << " outer_copies " << copies;
      }
    }
  }
}

TEST(Sched, LeavesOmpThreadCountUnchanged) {
#ifdef _OPENMP
  // Threads reach the engines through DpEngineOptions::inner_threads
  // only: no entry point may reset the caller's OpenMP default.
  const int before = omp_get_max_threads();
  const int pinned = before == 2 ? 3 : 2;
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 2);
  // Serial, inner, outer and nested outer x inner layouts.
  const std::vector<std::pair<int, int>> layouts = {
      {1, 1}, {1, pinned}, {0, pinned}, {2, pinned}};
  for (const auto& [copies, threads] : layouts) {
    sched::BatchOptions batch;
    batch.outer_copies = copies;
    batch.num_threads = threads;
    sched::run_batch(g, jobs, batch);
    EXPECT_EQ(omp_get_max_threads(), before)
        << "run_batch " << copies << " x " << threads;

    CountOptions count;
    count.sampling.iterations = 2;
    count.execution.outer_copies = copies;
    count.execution.threads = threads;
    count_template(g, jobs.front().tmpl, count);
    EXPECT_EQ(omp_get_max_threads(), before)
        << "count_template " << copies << " x " << threads;
  }
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(Sched, LayoutMatchesCountTemplate) {
  // Both entry points resolve outer_copies through the one
  // resolver, so a one-job batch and count_template agree on the
  // layout as well as on every estimate.
  const Graph small = test_graph();
  const Graph large = erdos_renyi_gnm(20000, 40000, 3);
  const TreeTemplate tmpl = all_free_trees(5).front();
  for (const Graph* g : {&small, &large}) {
    for (int copies : {1, 0, 2}) {
      const int iterations = 3;
      CountOptions count;
      count.sampling.iterations = iterations;
      count.sampling.seed = 21;
      count.execution.outer_copies = copies;
      count.execution.threads = 4;
      const CountResult direct = count_template(*g, tmpl, count);

      sched::BatchOptions options;
      options.outer_copies = copies;
      options.num_threads = 4;
      options.seed = 21;
      const sched::BatchResult batch =
          sched::run_batch(*g, {{tmpl, iterations}}, options);
      EXPECT_EQ(direct.layout.outer_copies, batch.layout.outer_copies)
          << g->num_vertices() << " vertices, outer_copies " << copies;
      EXPECT_EQ(direct.layout.inner_threads, batch.layout.inner_threads)
          << g->num_vertices() << " vertices, outer_copies " << copies;
      EXPECT_EQ(direct.per_iteration, batch.jobs[0].per_iteration);
    }
  }
}

TEST(Sched, CrossTemplateReuseSharesStages) {
  const Graph g = test_graph();
  const auto jobs = fixed_jobs(5, 2);
  sched::BatchOptions options;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  // The 3 size-5 trees share small rooted subtemplates (every one-at-
  // a-time partition contains the rooted pair, for a start).
  EXPECT_LT(batch.unique_stages, batch.total_stage_instances);
  EXPECT_LT(batch.stage_evaluations, batch.stage_requests);
  EXPECT_GT(batch.cache_hit_rate(), 0.0);
}

TEST(Sched, PlanDeduplicatesByRootedCanonicalForm) {
  const auto jobs = fixed_jobs(5, 1);
  sched::BatchOptions options;
  const sched::BatchPlan plan = sched::plan_batch(test_graph(), jobs, options);
  ASSERT_EQ(plan.job_root.size(), jobs.size());
  // Merged DAG is a valid bottom-up DAG covering every job.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(plan.merged.node(plan.job_root[j]).size(), 5);
    EXPECT_EQ(plan.merged.node(plan.job_root[j]).free_after, -1);
    EXPECT_GT(plan.job_stage_demand[j], 0u);
    EXPECT_GT(plan.job_dp_cost[j], 0.0);
  }
  for (int i = 0; i < plan.merged.num_nodes(); ++i) {
    const Subtemplate& node = plan.merged.node(i);
    if (node.is_leaf()) continue;
    EXPECT_LT(node.active, i);
    EXPECT_LT(node.passive, i);
  }
}

TEST(Sched, MixedTemplateSizesPinSharedRoots) {
  // A size-3 job's root stage is also an internal stage of the size-5
  // path's partition; the planner must pin it so its table is still
  // live when the small job reads its total.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::path(3), 3, 0.0, 1000});
  jobs.push_back({TreeTemplate::path(5), 3, 0.0, 1000});
  sched::BatchOptions options;
  options.seed = 9;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  EXPECT_EQ(batch.num_colors, 5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CountResult ref = reference(g, jobs[j].tmpl, 3, 9, 5);
    EXPECT_EQ(batch.jobs[j].per_iteration, ref.per_iteration)
        << "job " << j;
  }
}

TEST(Sched, SingleVertexTemplateCountsVertices) {
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::from_edges(1, {}), 2, 0.0, 1000});
  const sched::BatchResult batch = sched::run_batch(g, jobs, {});
  EXPECT_DOUBLE_EQ(batch.jobs[0].estimate,
                   static_cast<double>(g.num_vertices()));
}

TEST(Sched, AdaptiveStopsWithinCapAndTracksExact) {
  const Graph g = largest_component(erdos_renyi_gnm(40, 80, 13));
  std::vector<sched::BatchJob> jobs;
  for (const TreeTemplate& tree : all_free_trees(4)) {
    sched::BatchJob job;
    job.tmpl = tree;
    job.target_relative_stderr = 0.05;
    job.max_iterations = 600;
    jobs.push_back(std::move(job));
  }
  sched::BatchOptions options;
  options.num_threads = 1;
  options.round_iterations = 16;
  options.seed = 3;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sched::BatchJobResult& job = batch.jobs[j];
    EXPECT_TRUE(job.adaptive);
    EXPECT_LE(job.iterations, 600);
    EXPECT_GE(job.iterations, 2);
    if (job.converged) {
      EXPECT_LE(job.relative_stderr, 0.05);
    } else {
      EXPECT_EQ(job.iterations, 600);
    }
    const double exact = exact::count_embeddings(g, jobs[j].tmpl);
    EXPECT_NEAR(job.estimate, exact, exact * 0.25 + 1.0) << "job " << j;
  }
}

TEST(Sched, AdaptiveLooseTargetRetiresEarly) {
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.9;  // any 2+ iterations satisfy this
  job.max_iterations = 500;
  jobs.push_back(std::move(job));
  sched::BatchOptions options;
  options.round_iterations = 4;
  const sched::BatchResult batch = sched::run_batch(g, jobs, options);
  EXPECT_TRUE(batch.jobs[0].converged);
  EXPECT_LT(batch.jobs[0].iterations, 500);
}

TEST(Sched, AdaptiveBatchSingleJobMatchesUniform) {
  // With one adaptive job the greedy controller has nobody to steal
  // from or donate to: grants land on the same global coloring rounds
  // the uniform allocation would run, so the sample stream — and every
  // per-iteration estimate — must match bit for bit.
  const Graph g = largest_component(erdos_renyi_gnm(40, 80, 13));
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.05;
  job.max_iterations = 600;
  jobs.push_back(std::move(job));
  sched::BatchOptions uniform;
  uniform.num_threads = 1;
  uniform.round_iterations = 16;
  uniform.seed = 3;
  sched::BatchOptions greedy = uniform;
  greedy.adaptive_batch = true;

  const sched::BatchResult a = sched::run_batch(g, jobs, uniform);
  const sched::BatchResult b = sched::run_batch(g, jobs, greedy);
  EXPECT_EQ(a.jobs[0].converged, b.jobs[0].converged);
  EXPECT_EQ(a.jobs[0].per_iteration, b.jobs[0].per_iteration);
  EXPECT_EQ(a.jobs[0].estimate, b.jobs[0].estimate);
}

TEST(Sched, AdaptiveBatchReallocatesBudgetToHardJob) {
  // Motivo-style cross-template reallocation: an easy job (loose
  // target) converges in its warm-up round and donates its unused
  // budget to the pool; a hard job (unreachable target) then draws
  // grants PAST its own max_iterations.  Fixed-budget jobs ride the
  // same shared colorings either way and must stay bit-identical to
  // the uniform run.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob easy;
  easy.tmpl = TreeTemplate::path(4);
  easy.target_relative_stderr = 0.9;  // any 2+ iterations satisfy this
  easy.max_iterations = 400;
  jobs.push_back(std::move(easy));
  sched::BatchJob hard;
  hard.tmpl = TreeTemplate::star(4);
  hard.target_relative_stderr = 1e-9;  // unreachable on purpose
  hard.max_iterations = 12;
  jobs.push_back(std::move(hard));
  sched::BatchJob fixed;
  fixed.tmpl = TreeTemplate::path(3);
  fixed.iterations = 10;
  jobs.push_back(std::move(fixed));

  sched::BatchOptions uniform;
  uniform.num_threads = 1;
  uniform.round_iterations = 8;
  uniform.seed = 11;
  sched::BatchOptions greedy = uniform;
  greedy.adaptive_batch = true;

  const sched::BatchResult base = sched::run_batch(g, jobs, uniform);
  const sched::BatchResult pooled = sched::run_batch(g, jobs, greedy);

  EXPECT_TRUE(pooled.jobs[0].converged);
  // Uniform honors the per-job cap; greedy spends the pooled budget on
  // the worst job instead.
  EXPECT_LE(base.jobs[1].iterations, 12);
  EXPECT_GT(pooled.jobs[1].iterations, 12);
  EXPECT_FALSE(pooled.jobs[1].converged);
  // The fixed job is untouched by the controller mode.
  EXPECT_EQ(base.jobs[2].iterations, 10);
  EXPECT_EQ(pooled.jobs[2].iterations, 10);
  EXPECT_EQ(base.jobs[2].per_iteration, pooled.jobs[2].per_iteration);
}

TEST(Sched, AdaptiveBatchRejectsCheckpointing) {
  // Greedy grants decouple per-job sample streams from the global
  // coloring counter that the checkpoint format indexes by.
  const Graph g = test_graph();
  std::vector<sched::BatchJob> jobs;
  sched::BatchJob job;
  job.tmpl = TreeTemplate::path(4);
  job.target_relative_stderr = 0.1;
  job.max_iterations = 100;
  jobs.push_back(std::move(job));
  sched::BatchOptions options;
  options.adaptive_batch = true;
  options.run.checkpoint_path = "unused.ckpt";
  EXPECT_THROW(sched::run_batch(g, jobs, options), fascia::Error);
}

TEST(Sched, ValidationErrors) {
  const Graph g = test_graph();
  EXPECT_THROW(sched::run_batch(g, {}, {}), fascia::Error);

  std::vector<sched::BatchJob> jobs;
  jobs.push_back({TreeTemplate::path(5), 2, 0.0, 1000});
  sched::BatchOptions narrow;
  narrow.num_colors = 4;  // smaller than the template
  EXPECT_THROW(sched::run_batch(g, jobs, narrow), fascia::Error);

  jobs[0].iterations = 0;
  EXPECT_THROW(sched::run_batch(g, jobs, {}), fascia::Error);

  jobs[0].target_relative_stderr = 0.1;
  jobs[0].max_iterations = 1;
  EXPECT_THROW(sched::run_batch(g, jobs, {}), fascia::Error);
}

TEST(Sched, MotifProfileBatchFlagMatchesSharedSeedPath) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 3;
  options.sampling.seed = 31;
  options.execution.threads = 1;
  options.execution.batch_engine = true;
  const MotifProfile profile = count_all_treelets(g, 5, options);
  ASSERT_EQ(profile.counts.size(), 3u);
  ASSERT_EQ(profile.iterations.size(), 3u);
  ASSERT_EQ(profile.seconds.size(), 3u);
  for (std::size_t i = 0; i < profile.trees.size(); ++i) {
    const CountResult ref = reference(g, profile.trees[i], 3, 31, 5);
    EXPECT_EQ(profile.counts[i], ref.estimate) << "shape " << i;
    EXPECT_EQ(profile.iterations[i], 3);
  }
}

}  // namespace
}  // namespace fascia
