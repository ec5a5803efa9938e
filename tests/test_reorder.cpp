// Locality-aware reordering (DESIGN.md §9): permutation algebra, graph
// relabeling, and — the load-bearing invariant — estimates that are
// BIT-identical under any reorder mode, table layout, and parallel
// mode, with every per-vertex output keyed by original vertex ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/counter.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "helpers.hpp"
#include "sched/driver.hpp"
#include "treelet/catalog.hpp"

namespace fascia {
namespace {

const std::vector<ReorderMode> kAllModes = {
    ReorderMode::kNone, ReorderMode::kDegree, ReorderMode::kBfs,
    ReorderMode::kHybrid};

Graph shuffled_chung_lu(VertexId n, EdgeCount m, std::uint64_t seed) {
  // chung_lu emits near-degree-sorted graphs; shuffle so the reorder
  // passes have real work to undo.
  const Graph g = chung_lu(n, m, 2.2, n / 4, seed);
  return apply_permutation(g, random_permutation(g.num_vertices(), seed));
}

void attach_labels(Graph& g) {
  std::vector<std::uint8_t> labels(
      static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    labels[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>((v * 7 + 3) % 4);
  }
  g.set_labels(std::move(labels), 4);
}

// ---- permutation algebra -------------------------------------------------

TEST(Permutation, IdentityAndInvertRoundTrip) {
  const Permutation id = identity_permutation(17);
  EXPECT_TRUE(id.is_identity());
  EXPECT_EQ(id.size(), 17);

  Permutation p = random_permutation(101, 5);
  EXPECT_EQ(p.size(), 101);
  for (VertexId v = 0; v < p.size(); ++v) {
    EXPECT_EQ(p.to_new[static_cast<std::size_t>(
                  p.to_old[static_cast<std::size_t>(v)])],
              v);
    EXPECT_EQ(p.to_old[static_cast<std::size_t>(
                  p.to_new[static_cast<std::size_t>(v)])],
              v);
  }
}

TEST(Permutation, EveryModeYieldsABijection) {
  const Graph g = shuffled_chung_lu(400, 1600, 9);
  for (ReorderMode mode : kAllModes) {
    const Permutation p = reorder_permutation(g, mode);
    ASSERT_EQ(p.size(), g.num_vertices()) << reorder_mode_name(mode);
    std::vector<char> seen(static_cast<std::size_t>(p.size()), 0);
    for (VertexId v = 0; v < p.size(); ++v) {
      const VertexId image = p.to_new[static_cast<std::size_t>(v)];
      ASSERT_GE(image, 0);
      ASSERT_LT(image, p.size());
      ASSERT_FALSE(seen[static_cast<std::size_t>(image)])
          << reorder_mode_name(mode);
      seen[static_cast<std::size_t>(image)] = 1;
      EXPECT_EQ(p.to_old[static_cast<std::size_t>(image)], v);
    }
  }
}

TEST(Permutation, ApplyPreservesStructureAndLabels) {
  Graph g = shuffled_chung_lu(300, 900, 3);
  attach_labels(g);
  for (ReorderMode mode : kAllModes) {
    const Permutation p = reorder_permutation(g, mode);
    const Graph r = apply_permutation(g, p);
    ASSERT_EQ(r.num_vertices(), g.num_vertices());
    ASSERT_EQ(r.num_edges(), g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const VertexId rv = p.to_new[static_cast<std::size_t>(v)];
      EXPECT_EQ(r.degree(rv), g.degree(v));
      EXPECT_EQ(r.label(rv), g.label(v));
      for (VertexId u : g.neighbors(v)) {
        EXPECT_TRUE(r.has_edge(rv, p.to_new[static_cast<std::size_t>(u)]));
      }
    }
  }
}

TEST(Permutation, DegreeModeSortsDescending) {
  const Graph g = shuffled_chung_lu(500, 2500, 21);
  const Permutation p = reorder_permutation(g, ReorderMode::kDegree);
  const Graph r = apply_permutation(g, p);
  for (VertexId v = 0; v + 1 < r.num_vertices(); ++v) {
    EXPECT_GE(r.degree(v), r.degree(v + 1));
  }
}

TEST(Permutation, LocalityPassesShrinkGapOfShuffledGraph) {
  const Graph g = shuffled_chung_lu(2000, 10000, 13);
  const double before = avg_neighbor_gap(g);
  for (ReorderMode mode : {ReorderMode::kBfs, ReorderMode::kHybrid}) {
    const Graph r =
        apply_permutation(g, reorder_permutation(g, mode));
    EXPECT_LT(avg_neighbor_gap(r), before) << reorder_mode_name(mode);
  }
}

TEST(ReorderMode, NamesParseRoundTrip) {
  for (ReorderMode mode : kAllModes) {
    EXPECT_EQ(parse_reorder_mode(reorder_mode_name(mode)), mode);
  }
  EXPECT_THROW(parse_reorder_mode("zorder"), std::invalid_argument);
}

// ---- bit-identical counting ----------------------------------------------

/// Serial by default; the layout matrices pass outer_copies with 4
/// threads.
CountOptions reorder_options(ReorderMode reorder, TableKind table,
                             int outer_copies = 1, int threads = 1) {
  CountOptions options;
  options.sampling.iterations = 4;
  options.sampling.seed = 77;
  options.execution.reorder = reorder;
  options.execution.outer_copies = outer_copies;
  options.execution.threads = threads;
  options.execution.table = table;
  return options;
}

TEST(ReorderCounting, BitIdenticalAcrossModesTablesAndLayouts) {
  const Graph g = shuffled_chung_lu(600, 3000, 17);
  const TreeTemplate& tree = catalog_entry("U7-1").tree;

  for (TableKind table :
       {TableKind::kNaive, TableKind::kCompact, TableKind::kHash,
        TableKind::kSuccinct}) {
    const CountResult reference = count_template(
        g, tree,
        reorder_options(ReorderMode::kNone, table));
    for (ReorderMode reorder : kAllModes) {
      for (int copies : {1, 0, 2}) {
        const CountResult result = count_template(
            g, tree, reorder_options(reorder, table, copies, 4));
        ASSERT_EQ(result.per_iteration.size(),
                  reference.per_iteration.size());
        for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
          EXPECT_DOUBLE_EQ(result.per_iteration[i],
                           reference.per_iteration[i])
              << "table=" << static_cast<int>(table)
              << " reorder=" << reorder_mode_name(reorder)
              << " outer_copies=" << copies << " iter=" << i;
        }
        EXPECT_DOUBLE_EQ(result.estimate, reference.estimate);
      }
    }
  }
}

TEST(ReorderCounting, BitIdenticalAgainstReferenceKernels) {
  const Graph g = shuffled_chung_lu(400, 2000, 29);
  const TreeTemplate& tree = catalog_entry("U7-2").tree;

  sched::detail::use_reference_kernels(true);
  const CountResult reference = count_template(
      g, tree,
      reorder_options(ReorderMode::kNone,
                      TableKind::kCompact));
  sched::detail::use_reference_kernels(false);

  for (ReorderMode reorder : kAllModes) {
    const CountResult result = count_template(
        g, tree,
        reorder_options(reorder, TableKind::kCompact, 2, 4));
    ASSERT_EQ(result.per_iteration.size(), reference.per_iteration.size());
    for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
      EXPECT_DOUBLE_EQ(result.per_iteration[i], reference.per_iteration[i])
          << reorder_mode_name(reorder) << " iter=" << i;
    }
  }
}

TEST(ReorderCounting, LabeledBitIdenticalAcrossReorders) {
  Graph g = shuffled_chung_lu(500, 2500, 31);
  attach_labels(g);
  TreeTemplate tree = catalog_entry("U5-1").tree;
  tree.set_labels({0, 1, 2, 1, 0});

  const CountResult reference = count_template(
      g, tree,
      reorder_options(ReorderMode::kNone,
                      TableKind::kCompact));
  for (ReorderMode reorder :
       {ReorderMode::kDegree, ReorderMode::kBfs, ReorderMode::kHybrid}) {
    for (TableKind table :
         {TableKind::kCompact, TableKind::kHash, TableKind::kSuccinct}) {
      const CountResult result = count_template(
          g, tree, reorder_options(reorder, table, 2, 4));
      ASSERT_EQ(result.per_iteration.size(),
                reference.per_iteration.size());
      for (std::size_t i = 0; i < reference.per_iteration.size(); ++i) {
        EXPECT_DOUBLE_EQ(result.per_iteration[i],
                         reference.per_iteration[i])
            << reorder_mode_name(reorder) << " iter=" << i;
      }
    }
  }
}

TEST(ReorderCounting, GraphletDegreesKeyedByOriginalIds) {
  const Graph g = shuffled_chung_lu(300, 1200, 41);
  const TreeTemplate& tree = catalog_entry("U5-2").tree;

  CountOptions options = reorder_options(
      ReorderMode::kNone, TableKind::kCompact);
  const CountResult reference = graphlet_degrees(g, tree, 0, options);
  ASSERT_EQ(reference.vertex_counts.size(),
            static_cast<std::size_t>(g.num_vertices()));

  for (ReorderMode reorder :
       {ReorderMode::kDegree, ReorderMode::kBfs, ReorderMode::kHybrid}) {
    options.execution.reorder = reorder;
    const CountResult result = graphlet_degrees(g, tree, 0, options);
    ASSERT_EQ(result.vertex_counts.size(), reference.vertex_counts.size());
    for (std::size_t v = 0; v < reference.vertex_counts.size(); ++v) {
      EXPECT_DOUBLE_EQ(result.vertex_counts[v], reference.vertex_counts[v])
          << reorder_mode_name(reorder) << " v=" << v;
    }
  }
}

TEST(ReorderCounting, InstrumentationFilledOnlyWhenReordering) {
  const Graph g = shuffled_chung_lu(300, 1500, 43);
  const TreeTemplate& tree = catalog_entry("U5-2").tree;
  const CountResult plain = count_template(
      g, tree,
      reorder_options(ReorderMode::kNone,
                      TableKind::kCompact));
  EXPECT_EQ(plain.reorder_gap_before, 0.0);
  EXPECT_EQ(plain.reorder_gap_after, 0.0);

  const CountResult reordered = count_template(
      g, tree,
      reorder_options(ReorderMode::kHybrid,
                      TableKind::kCompact));
  EXPECT_GT(reordered.reorder_gap_before, 0.0);
  EXPECT_GT(reordered.reorder_gap_after, 0.0);
}

// ---- checkpoint/resume across reorder modes ------------------------------

TEST(ReorderCounting, CheckpointResumeAcrossReorderModesBitIdentical) {
  const Graph g = shuffled_chung_lu(300, 1200, 53);
  const TreeTemplate& tree = catalog_entry("U7-1").tree;
  const std::string path =
      ::testing::TempDir() + "reorder_resume.fascia-ckpt";
  std::remove(path.c_str());

  CountOptions options = reorder_options(
      ReorderMode::kNone, TableKind::kCompact);
  options.sampling.iterations = 8;
  options.per_vertex = true;
  const CountResult uninterrupted = count_template(g, tree, options);

  // First half under kDegree, checkpointing every 2 iterations ...
  CountOptions first = options;
  first.sampling.iterations = 4;
  first.execution.reorder = ReorderMode::kDegree;
  first.run.checkpoint_path = path;
  first.run.checkpoint_every = 2;
  const CountResult half = count_template(g, tree, first);
  ASSERT_EQ(half.per_iteration.size(), 4u);
  ASSERT_GT(half.run.checkpoints_written, 0);

  // ... then resume to the full budget under a DIFFERENT reorder mode:
  // reorder is excluded from the fingerprint and per-vertex state is
  // stored in original-id space, so the estimates must match the
  // uninterrupted run bit-for-bit.
  CountOptions second = options;
  second.execution.reorder = ReorderMode::kBfs;
  second.run.checkpoint_path = path;
  second.run.checkpoint_every = 2;
  second.run.resume = true;
  const CountResult resumed = count_template(g, tree, second);
  EXPECT_TRUE(resumed.run.resumed);
  ASSERT_EQ(resumed.per_iteration.size(),
            uninterrupted.per_iteration.size());
  for (std::size_t i = 0; i < uninterrupted.per_iteration.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.per_iteration[i],
                     uninterrupted.per_iteration[i])
        << "iter=" << i;
  }
  ASSERT_EQ(resumed.vertex_counts.size(),
            uninterrupted.vertex_counts.size());
  for (std::size_t v = 0; v < uninterrupted.vertex_counts.size(); ++v) {
    EXPECT_DOUBLE_EQ(resumed.vertex_counts[v],
                     uninterrupted.vertex_counts[v])
        << "v=" << v;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fascia
