// Tests for the "tree-like templates with triangles" extension:
// MixedTemplate validation, block detection, automorphisms, the
// triangle-join DP (per-coloring exactness against brute force), and
// estimator convergence.

#include <gtest/gtest.h>

#include <atomic>

#include "core/coloring.hpp"
#include "core/counter.hpp"
#include "core/mixed_counter.hpp"
#include "core/mixed_engine.hpp"
#include "core/mixed_extract.hpp"
#include "core/triangle.hpp"
#include "dp/table_compact.hpp"
#include "exact/backtrack.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "helpers.hpp"
#include "treelet/mixed_partition.hpp"
#include "util/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fascia {
namespace {

// ---- named mixed templates used throughout ------------------------------

MixedTemplate paw() {  // triangle + pendant edge
  return MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

MixedTemplate bull() {  // triangle + two horns
  return MixedTemplate::from_edges(
      5, {{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}});
}

MixedTemplate tailed_triangle() {  // triangle + path of 2 hanging off
  return MixedTemplate::from_edges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
}

MixedTemplate two_triangles_shared_vertex() {  // bowtie
  return MixedTemplate::from_edges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
}

Graph test_graph() {
  static const Graph g = largest_component(erdos_renyi_gnm(35, 110, 51));
  return g;
}

// ---- validation ----------------------------------------------------------

TEST(MixedTemplate, AcceptsTreesAndTriangleBlocks) {
  EXPECT_TRUE(MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}).is_tree());
  EXPECT_EQ(paw().triangles().size(), 1u);
  EXPECT_EQ(bull().triangles().size(), 1u);
  EXPECT_EQ(two_triangles_shared_vertex().triangles().size(), 2u);
  EXPECT_EQ(MixedTemplate::triangle().triangles().size(), 1u);
}

TEST(MixedTemplate, RejectsLargerBlocks) {
  // 4-cycle: one block of 4 vertices.
  EXPECT_THROW(
      MixedTemplate::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
      fascia::Error);
  // Diamond (two triangles sharing an edge) is a single 4-vertex block.
  EXPECT_THROW(MixedTemplate::from_edges(
                   4, {{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}}),
               fascia::Error);
  // K4.
  EXPECT_THROW(
      MixedTemplate::from_edges(
          4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),
      fascia::Error);
}

TEST(MixedTemplate, RejectsDisconnectedAndMalformed) {
  EXPECT_THROW(MixedTemplate::from_edges(4, {{0, 1}, {2, 3}}),
               fascia::Error);
  EXPECT_THROW(MixedTemplate::from_edges(2, {{0, 0}}), fascia::Error);
  EXPECT_THROW(MixedTemplate::from_edges(2, {{0, 1}, {1, 0}}),
               fascia::Error);
}

TEST(MixedTemplate, EdgeInTriangle) {
  const MixedTemplate t = paw();
  EXPECT_TRUE(t.edge_in_triangle(0, 1));
  EXPECT_TRUE(t.edge_in_triangle(2, 0));
  EXPECT_FALSE(t.edge_in_triangle(2, 3));
}

TEST(MixedTemplate, TreeRoundTrip) {
  const TreeTemplate tree = TreeTemplate::path(4);
  const MixedTemplate mixed = MixedTemplate::from_tree(tree);
  EXPECT_TRUE(mixed.is_tree());
  EXPECT_EQ(mixed.as_tree().edges(), tree.edges());
  EXPECT_THROW(paw().as_tree(), fascia::Error);
}

// ---- automorphisms -------------------------------------------------------

TEST(MixedTemplate, KnownAutomorphismCounts) {
  EXPECT_EQ(mixed_automorphisms(MixedTemplate::triangle()), 6u);
  EXPECT_EQ(mixed_automorphisms(paw()), 2u);   // swap the two far corners
  EXPECT_EQ(mixed_automorphisms(bull()), 2u);  // mirror
  EXPECT_EQ(mixed_automorphisms(two_triangles_shared_vertex()), 8u);
  EXPECT_EQ(mixed_automorphisms(MixedTemplate::from_tree(
                TreeTemplate::star(5))),
            24u);
}

TEST(MixedTemplate, LabeledAutomorphisms) {
  MixedTemplate t = MixedTemplate::triangle();
  t.set_labels({0, 0, 1});
  EXPECT_EQ(mixed_automorphisms(t), 2u);
  t.set_labels({0, 1, 2});
  EXPECT_EQ(mixed_automorphisms(t), 1u);
}

TEST(MixedTemplate, OrbitsOfPaw) {
  const auto orbits = mixed_vertex_orbits(paw());
  // Vertices 0,1 (triangle corners away from the tail) share an orbit;
  // 2 (attachment) and 3 (tail) are alone.
  EXPECT_EQ(orbits[0], orbits[1]);
  EXPECT_NE(orbits[0], orbits[2]);
  EXPECT_NE(orbits[2], orbits[3]);
}

// ---- partition structure -------------------------------------------------

TEST(MixedPartition, TriangleJoinAppears) {
  const auto partition = partition_mixed_template(paw());
  bool has_triangle_join = false;
  for (const auto& node : partition.nodes()) {
    if (node.kind == MixedSubtemplate::Kind::kTriangleJoin) {
      has_triangle_join = true;
      EXPECT_GE(node.passive, 0);
      EXPECT_GE(node.passive2, 0);
    }
  }
  EXPECT_TRUE(has_triangle_join);
  EXPECT_EQ(partition.nodes().back().size(), 4);
}

TEST(MixedPartition, TreeHasOnlyEdgeJoins) {
  const auto partition =
      partition_mixed_template(MixedTemplate::from_tree(TreeTemplate::path(5)));
  for (const auto& node : partition.nodes()) {
    EXPECT_NE(node.kind, MixedSubtemplate::Kind::kTriangleJoin);
  }
}

TEST(MixedPartition, RootOverride) {
  for (int root = 0; root < 4; ++root) {
    EXPECT_EQ(partition_mixed_template(paw(), root).template_root(), root);
  }
  EXPECT_THROW(partition_mixed_template(paw(), 9), fascia::Error);
}

// ---- DP correctness: per-coloring equality with brute force --------------

class MixedPerColoring : public ::testing::TestWithParam<int> {};

TEST_P(MixedPerColoring, DpMatchesBruteForceColorful) {
  const Graph g = test_graph();
  const std::vector<MixedTemplate> templates = {
      MixedTemplate::triangle(), paw(), bull(), tailed_triangle(),
      two_triangles_shared_vertex()};
  const int seed_offset = GetParam();
  for (const auto& tmpl : templates) {
    const int k = tmpl.size();
    const auto colors = detail::random_coloring(
        g, k, static_cast<std::uint64_t>(900 + seed_offset));
    const double brute = testing::brute_force_maps(
        g, tmpl, std::vector<std::uint8_t>(colors.begin(), colors.end()));
    for (int root : {-1, 0, tmpl.size() - 1}) {
      const auto partition = partition_mixed_template(tmpl, root);
      MixedDpEngine<CompactTable> engine(g, tmpl, partition, k);
      const double raw = engine.run(colors, /*parallel_inner=*/false);
      ASSERT_NEAR(raw, brute, 1e-6 * (1.0 + brute))
          << tmpl.describe() << " root=" << root;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedPerColoring, ::testing::Values(0, 1, 2));

// ---- estimator behaviour ---------------------------------------------------

TEST(MixedCounter, ConvergesToExactCounts) {
  const Graph g = test_graph();
  for (const auto& tmpl : {paw(), bull(), tailed_triangle()}) {
    const double exact = exact::count_embeddings(g, tmpl);
    ASSERT_GT(exact, 0.0) << tmpl.describe();
    CountOptions options;
    options.sampling.iterations = 2500;
    options.execution.threads = 1;
    options.sampling.seed = 11;
    const CountResult result = count_mixed_template(g, tmpl, options);
    EXPECT_NEAR(result.estimate, exact, exact * 0.12) << tmpl.describe();
  }
}

TEST(MixedCounter, TriangleAgreesWithSpecializedCounter) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 3000;
  options.execution.threads = 1;
  const CountResult via_dp =
      count_mixed_template(g, MixedTemplate::triangle(), options);
  const double exact = exact_triangle_count(g);
  EXPECT_NEAR(via_dp.estimate, exact, exact * 0.1 + 0.5);
  EXPECT_EQ(via_dp.automorphisms, 6u);
}

TEST(MixedCounter, TreeDelegationMatchesTreePipeline) {
  const Graph g = test_graph();
  const TreeTemplate tree = TreeTemplate::path(5);
  CountOptions options;
  options.sampling.iterations = 5;
  options.execution.threads = 1;
  const CountResult direct = count_template(g, tree, options);
  const CountResult delegated =
      count_mixed_template(g, MixedTemplate::from_tree(tree), options);
  EXPECT_EQ(direct.per_iteration, delegated.per_iteration);
}

TEST(MixedCounter, DeterministicAcrossLayoutsAndTables) {
  const Graph g = test_graph();
  const MixedTemplate tmpl = bull();
  CountOptions base;
  base.sampling.iterations = 4;
  base.execution.threads = 1;
  base.sampling.seed = 77;
  const CountResult reference = count_mixed_template(g, tmpl, base);
  for (TableKind table :
       {TableKind::kNaive, TableKind::kCompact, TableKind::kHash}) {
    for (int copies : {1, 0, 2}) {
      CountOptions options = base;
      options.execution.table = table;
      options.execution.outer_copies = copies;
      options.execution.threads = 4;
      const CountResult result = count_mixed_template(g, tmpl, options);
      for (std::size_t i = 0; i < result.per_iteration.size(); ++i) {
        EXPECT_NEAR(result.per_iteration[i], reference.per_iteration[i],
                    1e-9 * (1.0 + std::abs(reference.per_iteration[i])));
      }
    }
  }
}

TEST(MixedCounter, LeavesOmpThreadCountUnchanged) {
#ifdef _OPENMP
  // The thread count reaches the mixed engine as its own parameter; it
  // must not reset the caller's default for later parallel regions.
  const int before = omp_get_max_threads();
  CountOptions options;
  options.sampling.iterations = 2;
  options.execution.outer_copies = 1;
  options.execution.threads = before > 1 ? 1 : 2;
  const CountResult inner = count_mixed_template(test_graph(), bull(), options);
  EXPECT_EQ(omp_get_max_threads(), before);
  options.execution.threads = 1;
  const CountResult serial = count_mixed_template(test_graph(), bull(), options);
  EXPECT_EQ(inner.per_iteration, serial.per_iteration);
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(MixedCounter, LabeledMixedCounting) {
  Graph g = test_graph();
  assign_random_labels(g, 2, 31);
  MixedTemplate tmpl = paw();
  tmpl.set_labels({0, 0, 1, 1});
  const double exact = exact::count_embeddings(g, tmpl);
  CountOptions options;
  options.sampling.iterations = 3000;
  options.execution.threads = 1;
  const CountResult result = count_mixed_template(g, tmpl, options);
  if (exact > 0.0) {
    EXPECT_NEAR(result.estimate, exact, exact * 0.2 + 0.5);
  } else {
    EXPECT_DOUBLE_EQ(result.estimate, 0.0);
  }
}

TEST(MixedCounter, ExtraColorsReduceVarianceDirectionally) {
  const Graph g = test_graph();
  const MixedTemplate tmpl = paw();
  CountOptions options;
  options.sampling.iterations = 1;
  options.execution.threads = 1;
  options.sampling.num_colors = 8;
  const CountResult result = count_mixed_template(g, tmpl, options);
  EXPECT_GT(result.colorful_probability, colorful_probability(4, 4));
}

TEST(MixedCounter, OptionValidation) {
  const Graph g = test_graph();
  CountOptions options;
  options.sampling.iterations = 0;
  EXPECT_THROW(count_mixed_template(g, paw(), options), std::invalid_argument);
  options.sampling.iterations = 1;
  options.sampling.num_colors = 3;
  EXPECT_THROW(count_mixed_template(g, paw(), options), std::invalid_argument);
  options.sampling.num_colors = 0;
  options.per_vertex = true;
  EXPECT_THROW(count_mixed_template(g, paw(), options), std::invalid_argument);
}

// ---- extraction ------------------------------------------------------------

TEST(MixedExtract, SampledEmbeddingsValid) {
  const Graph g = test_graph();
  for (const auto& tmpl :
       {MixedTemplate::triangle(), paw(), bull(),
        two_triangles_shared_vertex()}) {
    CountOptions options;
    options.sampling.seed = 17;
    const auto embeddings = sample_mixed_embeddings(g, tmpl, 12, options);
    EXPECT_GT(embeddings.size(), 0u) << tmpl.describe();
    for (const auto& embedding : embeddings) {
      EXPECT_TRUE(is_valid_mixed_embedding(g, tmpl, embedding))
          << tmpl.describe();
    }
  }
}

TEST(MixedExtract, TreeDelegates) {
  const Graph g = test_graph();
  const MixedTemplate tree = MixedTemplate::from_tree(TreeTemplate::path(4));
  const auto embeddings = sample_mixed_embeddings(g, tree, 5);
  EXPECT_EQ(embeddings.size(), 5u);
  for (const auto& embedding : embeddings) {
    EXPECT_TRUE(is_valid_mixed_embedding(g, tree, embedding));
  }
}

TEST(MixedExtract, NoEmbeddingsInTriangleFreeGraph) {
  const Graph g = testing::path_graph(12);
  EXPECT_TRUE(
      sample_mixed_embeddings(g, MixedTemplate::triangle(), 5).empty());
}

TEST(MixedExtract, ValidatorChecksTriangleEdges) {
  const Graph g = testing::complete_graph(4);
  const MixedTemplate tri = MixedTemplate::triangle();
  EXPECT_TRUE(is_valid_mixed_embedding(g, tri, {{0, 1, 2}}));
  EXPECT_FALSE(is_valid_mixed_embedding(g, tri, {{0, 1, 1}}));
  EXPECT_FALSE(is_valid_mixed_embedding(g, tri, {{0, 1}}));
  const Graph path = testing::path_graph(4);
  EXPECT_FALSE(is_valid_mixed_embedding(path, tri, {{0, 1, 2}}));
}

// ---- parsing ---------------------------------------------------------------

TEST(MixedTemplate, ParseWithTriangle) {
  const MixedTemplate t =
      MixedTemplate::parse("# paw\n4\n0 1\n1 2\n0 2\n2 3\n");
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.triangles().size(), 1u);
  EXPECT_THROW(MixedTemplate::parse(""), fascia::Error);
  EXPECT_THROW(MixedTemplate::parse("3\n0 1\n"), fascia::Error);
  EXPECT_THROW(MixedTemplate::load("/no/file"), std::runtime_error);
}

TEST(MixedTemplate, ParseLabels) {
  const MixedTemplate t = MixedTemplate::parse(
      "3\n0 1\n1 2\n0 2\nlabel 1\nlabel 0\nlabel 1\n");
  ASSERT_TRUE(t.has_labels());
  EXPECT_EQ(t.label(0), 1);
  EXPECT_EQ(t.label(1), 0);
}

// ---- exact backtracking on mixed templates --------------------------------

TEST(MixedExact, HandCounts) {
  // Paw in K4: choose the tail vertex's attachment... count via maps:
  // K4 has 4 triangles; each triangle has 3 corners to attach the tail,
  // 1 remaining vertex: 4 * 3 * 1 = 12 paw copies.
  EXPECT_DOUBLE_EQ(exact::count_embeddings(testing::complete_graph(4), paw()),
                   12.0);
  // Triangle count in K5 = C(5,3) = 10.
  EXPECT_DOUBLE_EQ(exact::count_embeddings(testing::complete_graph(5),
                                           MixedTemplate::triangle()),
                   10.0);
  // No triangles in a tree.
  EXPECT_DOUBLE_EQ(
      exact::count_embeddings(testing::path_graph(10), MixedTemplate::triangle()),
      0.0);
}

TEST(MixedExact, MapsAreAlphaTimesEmbeddings) {
  const Graph g = test_graph();
  for (const auto& tmpl : {paw(), bull(), two_triangles_shared_vertex()}) {
    EXPECT_DOUBLE_EQ(
        exact::count_maps(g, tmpl),
        exact::count_embeddings(g, tmpl) *
            static_cast<double>(mixed_automorphisms(tmpl)));
  }
}

TEST(MixedCounter, NonTreeRejectsRunControlsAndIncremental) {
  // The non-tree DP reads neither RunControls nor the incremental
  // flag, so it refuses them instead of running to completion.
  const Graph g = test_graph();
  const auto expect_usage = [&](const CountOptions& options) {
    try {
      (void)count_mixed_template(g, bull(), options);
      ADD_FAILURE() << "count_mixed_template accepted unread options";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kUsage) << e.what();
    }
  };
  std::atomic<bool> cancelled{true};
  CountOptions cancel;
  cancel.run.cancel = &cancelled;
  expect_usage(cancel);
  CountOptions deadline;
  deadline.run.deadline_seconds = 5.0;
  expect_usage(deadline);
  CountOptions spill;
  spill.run.spill_dir = ::testing::TempDir();
  expect_usage(spill);
  CountOptions incremental;
  incremental.execution.incremental = true;
  expect_usage(incremental);
}

}  // namespace
}  // namespace fascia
