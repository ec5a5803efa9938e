// Cross-cutting property tests: invariants that should hold for any
// (graph, template, seed) combination, swept over random instances.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/counter.hpp"
#include "core/extract.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "treelet/free_trees.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

class RandomInstance : public ::testing::TestWithParam<int> {
 protected:
  Graph make_graph() const {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    return largest_component(
        erdos_renyi_gnm(40 + GetParam() * 7, 100 + GetParam() * 20, seed));
  }
};

TEST_P(RandomInstance, PrefixOfLongerRunEqualsShorterRun) {
  // per_iteration depends only on (seed, iteration index): running 10
  // iterations must reproduce the 5-iteration run as its prefix.
  const Graph g = make_graph();
  const TreeTemplate tree = TreeTemplate::path(4);
  CountOptions options;
  options.execution.threads = 1;
  options.sampling.seed = static_cast<std::uint64_t>(GetParam()) + 100;
  options.sampling.iterations = 5;
  const auto shorter = count_template(g, tree, options);
  options.sampling.iterations = 10;
  const auto longer = count_template(g, tree, options);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(shorter.per_iteration[i], longer.per_iteration[i]);
  }
}

TEST_P(RandomInstance, EstimatesNonNegativeAndFinite) {
  const Graph g = make_graph();
  for (const TreeTemplate& tree : all_free_trees(5)) {
    CountOptions options;
    options.sampling.iterations = 3;
    options.execution.threads = 1;
    options.sampling.seed = static_cast<std::uint64_t>(GetParam());
    const CountResult result = count_template(g, tree, options);
    EXPECT_GE(result.estimate, 0.0);
    EXPECT_TRUE(std::isfinite(result.estimate));
    for (double value : result.per_iteration) {
      EXPECT_GE(value, 0.0);
      EXPECT_TRUE(std::isfinite(value));
    }
  }
}

TEST_P(RandomInstance, PerVertexNonNegativeAndSumConsistent) {
  const Graph g = make_graph();
  const TreeTemplate tree = TreeTemplate::star(4);
  CountOptions options;
  options.sampling.iterations = 4;
  options.execution.threads = 1;
  options.sampling.seed = static_cast<std::uint64_t>(GetParam());
  const CountResult result = graphlet_degrees(g, tree, 0, options);
  double sum = 0.0;
  for (double value : result.vertex_counts) {
    EXPECT_GE(value, 0.0);
    sum += value;
  }
  // Star rooted at the center: orbit {0} alone, so per-vertex counts
  // sum to the occurrence estimate exactly.
  EXPECT_NEAR(sum, result.estimate, 1e-9 * (1.0 + std::abs(sum)));
}

TEST_P(RandomInstance, SampledEmbeddingsValidAcrossTreeShapes) {
  const Graph g = make_graph();
  for (const TreeTemplate& tree : all_free_trees(5)) {
    CountOptions options;
    options.sampling.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 7;
    const auto embeddings = sample_embeddings(g, tree, 5, options);
    for (const auto& embedding : embeddings) {
      EXPECT_TRUE(is_valid_embedding(g, tree, embedding));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstance,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SamplingDistribution, RoughlyUniformOverCopies) {
  // On a graph with few P3 copies, repeated sampling should touch all
  // of them and no copy should dominate outrageously.
  const Graph g = largest_component(erdos_renyi_gnm(14, 20, 9));
  const TreeTemplate tree = TreeTemplate::path(3);
  std::set<std::vector<VertexId>> seen;
  std::map<std::vector<VertexId>, int> frequency;
  for (int round = 0; round < 60; ++round) {
    CountOptions options;
    options.sampling.seed = static_cast<std::uint64_t>(round) * 977 + 13;
    for (const auto& embedding : sample_embeddings(g, tree, 4, options)) {
      auto sorted = embedding.vertices;
      std::sort(sorted.begin(), sorted.end());
      seen.insert(sorted);
      ++frequency[sorted];
    }
  }
  // Exhaustive ground truth via enumeration across several colorings.
  std::set<std::vector<VertexId>> all_copies;
  for (int seed = 0; seed < 24; ++seed) {
    CountOptions options;
    options.sampling.seed = static_cast<std::uint64_t>(seed);
    for (const auto& embedding :
         enumerate_embeddings(g, tree, 1 << 16, true, options)) {
      auto sorted = embedding.vertices;
      std::sort(sorted.begin(), sorted.end());
      all_copies.insert(sorted);
    }
  }
  ASSERT_GT(all_copies.size(), 3u);
  // Sampling reached a healthy majority of the copy universe.
  EXPECT_GT(seen.size() * 10, all_copies.size() * 6);
}

}  // namespace
}  // namespace fascia
