#include "core/counter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "dp/table_compact.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "helpers.hpp"
#include "sched/driver.hpp"
#include "treelet/canonical.hpp"
#include "treelet/catalog.hpp"
#include "treelet/free_trees.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(40, 90, 11));
  return g;
}

// ---- ground truth: per-coloring DP totals equal brute-force colorful
// injective map counts, for every tree, root, strategy, and table.
class PerColoringExactness : public ::testing::TestWithParam<int> {};

TEST_P(PerColoringExactness, DpMatchesBruteForce) {
  const int k = GetParam();
  const Graph g = test_graph();
  Xoshiro256 rng(2024 + static_cast<std::uint64_t>(k));
  for (const TreeTemplate& tree : all_free_trees(k)) {
    ColorArray colors(static_cast<std::size_t>(g.num_vertices()));
    for (auto& c : colors) {
      c = static_cast<std::uint8_t>(rng.bounded(static_cast<std::uint32_t>(k)));
    }
    const double brute = testing::brute_force_maps(
        g, tree, std::vector<std::uint8_t>(colors.begin(), colors.end()));
    for (auto strategy : {PartitionStrategy::kOneAtATime,
                          PartitionStrategy::kBalanced}) {
      for (int root : {-1, 0, tree.size() - 1}) {
        const auto part = partition_template(tree, strategy, true, root);
        DpEngine<CompactTable> engine(g, part, k);
        const double raw = engine.run(colors, /*parallel_inner=*/false);
        ASSERT_NEAR(raw, brute, 1e-6 * (1.0 + brute))
            << tree.describe() << " root=" << root;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, PerColoringExactness,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

// ---- the estimator is unbiased: many iterations converge to exact.
class Convergence : public ::testing::TestWithParam<const char*> {};

TEST_P(Convergence, EstimateApproachesExactCount) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry(GetParam()).tree;
  const double exact = testing::brute_force_maps(g, tree) /
                       static_cast<double>(automorphisms(tree));
  CountOptions options;
  options.sampling.iterations = 1500;
  options.execution.threads = 1;
  options.sampling.seed = 7;
  const CountResult result = count_template(g, tree, options);
  EXPECT_NEAR(result.estimate, exact, exact * 0.08) << "exact=" << exact;
}

INSTANTIATE_TEST_SUITE_P(Templates, Convergence,
                         ::testing::Values("U3-1", "U5-1", "U5-2", "U7-1"));

// ---- determinism: same seed => identical per-iteration estimates,
// regardless of table kind, strategy, sharing, or thread layout.
TEST(Counter, ResultsIndependentOfConfiguration) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  CountOptions base;
  base.sampling.iterations = 4;
  base.execution.threads = 1;
  base.sampling.seed = 31;
  const CountResult reference = count_template(g, tree, base);

  std::vector<CountOptions> variants;
  for (TableKind table :
       {TableKind::kNaive, TableKind::kCompact, TableKind::kHash,
        TableKind::kSuccinct}) {
    for (auto strategy : {PartitionStrategy::kOneAtATime,
                          PartitionStrategy::kBalanced}) {
      for (bool share : {true, false}) {
        for (int copies : {1, 0, 2}) {
          CountOptions options = base;
          options.execution.table = table;
          options.execution.partition = strategy;
          options.execution.share_tables = share;
          options.execution.outer_copies = copies;
          options.execution.threads = 4;
          variants.push_back(options);
        }
      }
    }
  }
  for (const auto& options : variants) {
    const CountResult result = count_template(g, tree, options);
    ASSERT_EQ(result.per_iteration.size(), reference.per_iteration.size());
    for (std::size_t i = 0; i < result.per_iteration.size(); ++i) {
      EXPECT_NEAR(result.per_iteration[i], reference.per_iteration[i],
                  1e-9 * (1.0 + std::abs(reference.per_iteration[i])))
          << "table=" << table_kind_name(options.execution.table)
          << " outer_copies=" << options.execution.outer_copies;
    }
  }
}

// ---- kernel bit-identity: the vectorized kernels (frontiers, SoA
// split layouts, borrowed rows — DESIGN.md §8) must reproduce the seed
// reference kernels' per-iteration estimates bit-for-bit.  DP values
// are exact integer counts below 2^53, so reassociating or reordering
// the sums is not allowed to change a single bit.
TEST(Counter, VectorizedKernelsBitIdenticalToReference) {
  Graph er = test_graph();
  const Graph cl = largest_component(chung_lu(300, 900, 2.3, 60, 5));
  Graph cl_labeled = cl;
  assign_random_labels(cl_labeled, 4, 17);

  std::vector<TreeTemplate> trees;
  for (const char* name : {"U3-1", "U3-2", "U5-1", "U5-2", "U7-1", "U7-2"}) {
    trees.push_back(catalog_entry(name).tree);
  }
  const auto eights = all_free_trees(8);
  trees.push_back(eights.front());
  trees.push_back(eights[eights.size() / 2]);
  trees.push_back(eights.back());

  const auto check_matrix = [](const Graph& g,
                               const std::vector<TreeTemplate>& shapes,
                               const char* tag) {
    for (const TreeTemplate& tree : shapes) {
      for (TableKind table :
           {TableKind::kNaive, TableKind::kCompact, TableKind::kHash,
            TableKind::kSuccinct}) {
        for (auto strategy : {PartitionStrategy::kOneAtATime,
                              PartitionStrategy::kBalanced}) {
          for (int threads : {1, 0}) {
            CountOptions options;
            options.sampling.iterations = 3;
            options.sampling.seed = 97;
            options.execution.threads = threads;
            options.execution.table = table;
            options.execution.partition = strategy;
            const CountResult fast = count_template(g, tree, options);
            sched::detail::use_reference_kernels(true);
            const CountResult ref = count_template(g, tree, options);
            sched::detail::use_reference_kernels(false);
            ASSERT_EQ(ref.per_iteration.size(), fast.per_iteration.size());
            for (std::size_t i = 0; i < ref.per_iteration.size(); ++i) {
              // Exact ==, not NEAR: this is a bit-identity contract.
              EXPECT_EQ(ref.per_iteration[i], fast.per_iteration[i])
                  << tag << " " << tree.describe()
                  << " table=" << table_kind_name(table)
                  << " threads=" << threads << " iter=" << i;
            }
          }
        }
      }
    }
  };
  check_matrix(er, trees, "er");
  check_matrix(cl, trees, "chung-lu");
  // Labeled graph + labeled templates: the vectorized leaf stages
  // iterate per-label frontiers instead of full-n scans.
  TreeTemplate labeled_path = TreeTemplate::path(5);
  labeled_path.set_labels({0, 1, 2, 1, 0});
  TreeTemplate labeled_star = TreeTemplate::star(6);
  labeled_star.set_labels({0, 1, 1, 2, 3, 1});
  check_matrix(cl_labeled, {labeled_path, labeled_star},
               "chung-lu-labeled");
}

TEST(Counter, ExtraColorsStillUnbiased) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(4);
  const double exact = testing::brute_force_maps(g, tree) / 2.0;
  CountOptions options;
  options.sampling.iterations = 1200;
  options.sampling.num_colors = 6;  // k > template size
  options.execution.threads = 1;
  const CountResult result = count_template(g, tree, options);
  EXPECT_NEAR(result.estimate, exact, exact * 0.08);
  // More colors -> higher colorful probability.
  EXPECT_GT(result.colorful_probability, colorful_probability(4, 4));
}

TEST(Counter, SingleVertexAndEdgeTemplates) {
  const Graph g = test_graph();
  CountOptions options;
  options.execution.threads = 1;
  const CountResult single =
      count_template(g, TreeTemplate::from_edges(1, {}), options);
  EXPECT_DOUBLE_EQ(single.estimate, static_cast<double>(g.num_vertices()));

  options.sampling.iterations = 400;
  const CountResult edge =
      count_template(g, TreeTemplate::path(2), options);
  EXPECT_NEAR(edge.estimate, static_cast<double>(g.num_edges()),
              static_cast<double>(g.num_edges()) * 0.05);
}

TEST(Counter, LabeledCountsMatchLabeledBruteForce) {
  Graph g = test_graph();
  assign_random_labels(g, 3, 5);
  TreeTemplate tree = TreeTemplate::path(3);
  tree.set_labels({0, 1, 0});
  CountOptions options;
  options.sampling.iterations = 2500;
  options.execution.threads = 1;
  const CountResult result = count_template(g, tree, options);
  const double exact = testing::brute_force_maps(g, tree) /
                       static_cast<double>(automorphisms(tree));
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(result.estimate, exact, exact * 0.15);
}

TEST(Counter, LabeledCountsAreSmallerThanUnlabeled) {
  Graph g = test_graph();
  assign_random_labels(g, 8, 9);
  TreeTemplate labeled = TreeTemplate::path(3);
  labeled.set_labels({1, 2, 3});
  CountOptions options;
  options.sampling.iterations = 50;
  options.execution.threads = 1;
  const CountResult with_labels = count_template(g, labeled, options);
  g.clear_labels();
  const CountResult without =
      count_template(g, TreeTemplate::path(3), options);
  EXPECT_LT(with_labels.estimate, without.estimate);
}

TEST(Counter, PerVertexCountsMatchExact) {
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  CountOptions options;
  options.sampling.iterations = 2500;
  options.execution.threads = 1;
  options.sampling.seed = 3;
  const CountResult result = graphlet_degrees(g, tree, orbit, options);
  ASSERT_EQ(result.vertex_counts.size(),
            static_cast<std::size_t>(g.num_vertices()));

  // Exact per-vertex graphlet degrees by brute force on a few vertices.
  // Σ_v gd(v) = occurrences * |orbit(root)| is checked in test_exact;
  // here we spot-check convergence on the highest-degree vertex.
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  // Estimated total from per-vertex sums: Σ gd / orbit_size == estimate.
  double per_vertex_sum = 0.0;
  for (double value : result.vertex_counts) per_vertex_sum += value;
  const auto orbits = vertex_orbits(tree);
  int orbit_size = 0;
  for (int v = 0; v < tree.size(); ++v) {
    orbit_size += (orbits[v] == orbits[orbit]);
  }
  EXPECT_NEAR(per_vertex_sum / orbit_size, result.estimate,
              std::abs(result.estimate) * 1e-6);
}

TEST(Counter, GraphletDegreesOuterParallelMatchesSerial) {
  // Outer copies sum their per-vertex totals privately and merge them
  // per round; every total is an exact integer, so the merge order
  // cannot change a bit.
  const Graph g = test_graph();
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const int orbit = u52_central_vertex();
  for (TableKind table : {TableKind::kNaive, TableKind::kCompact,
                          TableKind::kHash, TableKind::kSuccinct}) {
    CountOptions serial;
    serial.sampling.iterations = 12;
    serial.sampling.seed = 9;
    serial.execution.table = table;
    serial.execution.threads = 1;
    const CountResult a = graphlet_degrees(g, tree, orbit, serial);
    for (int copies : {1, 0, 2}) {
      CountOptions layout = serial;
      layout.execution.outer_copies = copies;
      layout.execution.threads = 4;
      const CountResult b = graphlet_degrees(g, tree, orbit, layout);
      EXPECT_EQ(b.layout.outer_copies, copies == 0 ? 4 : copies);
      EXPECT_EQ(a.per_iteration, b.per_iteration) << copies;
      EXPECT_EQ(a.estimate, b.estimate);
      EXPECT_EQ(a.vertex_counts, b.vertex_counts)
          << table_kind_name(table) << " outer_copies " << copies;
      ASSERT_NE(b.report, nullptr);
      EXPECT_EQ(b.report->kind, "graphlet_degrees");
    }
  }
}

TEST(Counter, RunningEstimatesArePrefixMeans) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 5;
  options.execution.threads = 1;
  const CountResult result =
      count_template(g, TreeTemplate::path(3), options);
  const auto running = result.running_estimates();
  ASSERT_EQ(running.size(), 5u);
  EXPECT_DOUBLE_EQ(running[0], result.per_iteration[0]);
  EXPECT_NEAR(running[4], result.estimate, 1e-12);
}

TEST(Counter, OptionValidation) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(4);
  CountOptions options;

  options.sampling.iterations = 0;
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.sampling.iterations = 1;

  options.sampling.num_colors = 3;  // < template size
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.sampling.num_colors = 0;

  options.root = 9;
  EXPECT_THROW(count_template(g, tree, options), std::invalid_argument);
  options.root = -1;

  // Labels on exactly one side are inconsistent.
  TreeTemplate labeled = tree;
  labeled.set_labels({0, 0, 0, 0});
  EXPECT_THROW(count_template(g, labeled, options), std::invalid_argument);
}

TEST(Counter, InstrumentationFieldsPopulated) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.threads = 1;
  const CountResult result =
      count_template(g, catalog_entry("U7-2").tree, options);
  EXPECT_EQ(result.automorphisms, 6u);
  EXPECT_GT(result.colorful_probability, 0.0);
  EXPECT_LT(result.colorful_probability, 1.0);
  EXPECT_GT(result.dp_cost, 0.0);
  EXPECT_GE(result.max_live_tables, 2);
  EXPECT_GT(result.num_subtemplates, 2);
  EXPECT_GT(result.peak_table_bytes, 0u);
  EXPECT_EQ(result.seconds_per_iteration.size(), 2u);
  EXPECT_GE(result.seconds_total, 0.0);
}

TEST(Counter, OuterModePeakMemoryAtLeastSerial) {
  // §III-E: outer-loop parallel tables are per-thread, so memory can
  // only grow with thread count (equal when 1 thread).
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 4;
  options.execution.threads = 1;
  const auto serial = count_template(g, TreeTemplate::path(5), options);
  options.execution.outer_copies = 0;
  options.execution.threads = 0;
  const auto outer = count_template(g, TreeTemplate::path(5), options);
  EXPECT_GE(outer.peak_table_bytes + 1024, serial.peak_table_bytes);
}

}  // namespace
}  // namespace fascia
