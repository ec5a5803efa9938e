#include "core/motifs.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "core/counter.hpp"
#include "exact/pattern_growth.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(50, 120, 41));
  return g;
}

TEST(Motifs, ProfileCoversAllTreelets) {
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.threads = 1;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  EXPECT_EQ(profile.k, 5);
  EXPECT_EQ(profile.trees.size(), 3u);
  EXPECT_EQ(profile.counts.size(), 3u);
  EXPECT_EQ(profile.seconds.size(), 3u);
  EXPECT_GT(profile.seconds_total, 0.0);
}

TEST(Motifs, RelativeFrequenciesMeanOne) {
  CountOptions options;
  options.sampling.iterations = 3;
  options.execution.threads = 1;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  const auto rel = profile.relative_frequencies();
  EXPECT_NEAR(mean(rel), 1.0, 1e-9);
}

TEST(Motifs, ProfileConvergesToExact) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 800;
  options.execution.threads = 1;
  const MotifProfile profile = count_all_treelets(g, 4, options);
  const auto exact = exact::count_all_trees_by_growth(g, 4);
  ASSERT_EQ(profile.counts.size(), exact.counts.size());
  for (std::size_t i = 0; i < profile.counts.size(); ++i) {
    EXPECT_NEAR(profile.counts[i], exact.counts[i],
                exact.counts[i] * 0.15 + 1.0)
        << "shape " << i;
  }
}

TEST(Motifs, DeterministicInSeed) {
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.threads = 1;
  options.sampling.seed = 55;
  const auto a = count_all_treelets(test_graph(), 5, options);
  const auto b = count_all_treelets(test_graph(), 5, options);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(Motifs, TemplatesUseDistinctSeeds) {
  // Different templates must not share colorings: with 1 iteration the
  // estimates for two path-isomorphic... there is only one path shape,
  // so instead check that the profile is not constant across shapes
  // (which would hint at correlated colorings on this asymmetric graph).
  CountOptions options;
  options.sampling.iterations = 1;
  options.execution.threads = 1;
  const auto profile = count_all_treelets(test_graph(), 5, options);
  EXPECT_FALSE(profile.counts[0] == profile.counts[1] &&
               profile.counts[1] == profile.counts[2]);
}

TEST(Motifs, EmptyProfileOnTinyGraph) {
  // Graph smaller than k: counts are all zero but structure is intact.
  const Graph g = largest_component(erdos_renyi_gnm(3, 2, 1));
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.threads = 1;
  const auto profile = count_all_treelets(g, 5, options);
  for (double count : profile.counts) EXPECT_DOUBLE_EQ(count, 0.0);
}

TEST(Motifs, BatchEngineHonorsRunControlsAndRejectsReorder) {
  // The batch path runs the profile on run_batch: the RunControls
  // reach its guard, and a reorder it cannot apply is refused.
  CountOptions options;
  options.sampling.iterations = 4;
  options.execution.batch_engine = true;
  std::atomic<bool> cancelled{true};
  options.run.cancel = &cancelled;
  const MotifProfile profile = count_all_treelets(test_graph(), 5, options);
  EXPECT_EQ(profile.run.status, RunStatus::kCancelled);
  EXPECT_EQ(profile.run.completed_iterations, 0);

  options.run.cancel = nullptr;
  options.execution.reorder = ReorderMode::kDegree;
  try {
    (void)count_all_treelets(test_graph(), 5, options);
    ADD_FAILURE() << "a reordered batch profile was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
}

}  // namespace
}  // namespace fascia
