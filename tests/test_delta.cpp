// GraphDelta / Graph::apply / incremental recount suite.
//
// The load-bearing property: an incremental recount after a delta is
// BIT-IDENTICAL (==, not near) to a full count_template of the mutated
// graph under the same seed, across every table layout and thread
// layout.  Everything else here guards the road to that: delta
// validation maps to the error taxonomy, apply() equals a batch
// rebuild, and the dirty-ball BFS is what the theory says.

#include "graph/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <tuple>
#include <vector>

#include "core/counter.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/labels.hpp"
#include "graph/source.hpp"
#include "treelet/tree_template.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fascia {
namespace {

Graph grid_graph() {
  // Deterministic, edited-by-hand-sized network with room for both
  // inserts and deletes.
  return largest_component(erdos_renyi_gnm(60, 150, 7));
}

// ---- GraphDelta validation: the malformed-delta corpus ----------------

ErrorCategory category_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.category();
  }
  ADD_FAILURE() << "expected a fascia::Error";
  return ErrorCategory::kInternal;
}

TEST(GraphDelta, NormalizesAndRejectsMalformedEdits) {
  GraphDelta d;
  d.insert(5, 2);  // normalized to (2, 5)
  EXPECT_EQ(d.insertions().front(), (Edge{2, 5}));

  EXPECT_EQ(category_of([] {
              GraphDelta x;
              x.insert(3, 3);
            }),
            ErrorCategory::kUsage);
  EXPECT_EQ(category_of([] {
              GraphDelta x;
              x.remove(-1, 2);
            }),
            ErrorCategory::kUsage);
}

TEST(GraphDelta, ValidateMapsToErrorTaxonomy) {
  const Graph g = grid_graph();
  const Edge present = edge_list(g).front();
  const VertexId n = g.num_vertices();

  // Duplicate edit -> usage.
  GraphDelta dup;
  dup.insert(n - 2, n - 1);
  dup.insert(n - 1, n - 2);
  EXPECT_EQ(category_of([&] { dup.validate(g); }), ErrorCategory::kUsage);
  dup.dedup();
  // dedup() collapses the exact repeat; validity then depends only on
  // the graph.
  EXPECT_EQ(dup.size(), 1u);

  // Insert + delete of one edge in the same batch -> usage.
  GraphDelta conflict;
  conflict.insert(present.first, present.second);
  conflict.remove(present.first, present.second);
  EXPECT_EQ(category_of([&] { conflict.validate(g); }),
            ErrorCategory::kUsage);

  // Unknown vertex -> bad input.
  GraphDelta oob;
  oob.insert(0, n);
  EXPECT_EQ(category_of([&] { oob.validate(g); }), ErrorCategory::kBadInput);

  // Insert of a present edge -> bad input.
  GraphDelta redundant;
  redundant.insert(present.first, present.second);
  EXPECT_EQ(category_of([&] { redundant.validate(g); }),
            ErrorCategory::kBadInput);

  // Delete of an absent edge -> bad input.
  GraphDelta phantom;
  VertexId u = 0;
  VertexId v = 1;
  while (g.has_edge(u, v)) ++v;  // some absent pair exists (sparse graph)
  phantom.remove(u, v);
  EXPECT_EQ(category_of([&] { phantom.validate(g); }),
            ErrorCategory::kBadInput);
}

TEST(GraphDelta, TouchedVerticesIsSortedUniqueEndpointSet) {
  GraphDelta d;
  d.insert(9, 4);
  d.remove(4, 2);
  d.insert(7, 9);
  EXPECT_EQ(d.touched_vertices(), (std::vector<VertexId>{2, 4, 7, 9}));
}

// ---- Graph::apply == batch rebuild ------------------------------------

void expect_same_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "degree mismatch at " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "adjacency mismatch at " << v;
    }
  }
  ASSERT_EQ(a.has_labels(), b.has_labels());
  if (a.has_labels()) {
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
      ASSERT_EQ(a.label(v), b.label(v));
    }
  }
}

/// Random delta against `g`: `inserts` absent pairs + `deletes`
/// present edges, disjoint and deduplicated.
GraphDelta random_delta(const Graph& g, int inserts, int deletes,
                        Xoshiro256& rng) {
  GraphDelta d;
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  std::vector<Edge> ins;
  while (static_cast<int>(ins.size()) < inserts) {
    const VertexId u = static_cast<VertexId>(rng.bounded(n));
    const VertexId v = static_cast<VertexId>(rng.bounded(n));
    if (u == v || g.has_edge(u, v)) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (std::find(ins.begin(), ins.end(), e) != ins.end()) continue;
    ins.push_back(e);
    d.insert(e.first, e.second);
  }
  EdgeList edges = edge_list(g);
  std::vector<Edge> del;
  while (static_cast<int>(del.size()) < deletes &&
         del.size() < edges.size()) {
    const Edge e =
        edges[rng.bounded(static_cast<std::uint32_t>(edges.size()))];
    if (std::find(del.begin(), del.end(), e) != del.end()) continue;
    del.push_back(e);
    d.remove(e.first, e.second);
  }
  return d;
}

TEST(GraphApply, SequenceOfDeltasEqualsBatchRebuild) {
  Graph g = grid_graph();
  assign_random_labels(g, 4, 13);
  const std::uint64_t version0 = g.version();
  Xoshiro256 rng(99);
  for (int round = 0; round < 8; ++round) {
    GraphDelta delta = random_delta(g, 3 + round % 4, 2 + round % 3, rng);
    // Shuffle the issue order inside the batch: apply() semantics are
    // a SET of edits, so order must not matter.
    GraphDelta shuffled;
    EdgeList ins = delta.insertions();
    EdgeList del = delta.deletions();
    std::shuffle(ins.begin(), ins.end(), std::mt19937(round));
    std::shuffle(del.begin(), del.end(), std::mt19937(round + 1));
    for (const auto& [u, v] : ins) shuffled.insert(v, u);
    for (const auto& [u, v] : del) shuffled.remove(v, u);

    // Expected graph: batch rebuild from the edited edge list.
    EdgeList edges = edge_list(g);
    for (const Edge& e : del) {
      edges.erase(std::remove(edges.begin(), edges.end(), e), edges.end());
    }
    edges.insert(edges.end(), ins.begin(), ins.end());
    Graph rebuilt = build_graph(g.num_vertices(), edges);
    std::vector<std::uint8_t> labels;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      labels.push_back(g.label(v));
    }
    rebuilt.set_labels(labels, 4);

    g.apply(shuffled);
    expect_same_csr(g, rebuilt);
    EXPECT_EQ(g.version(), version0 + static_cast<std::uint64_t>(round) + 1);
  }
}

TEST(GraphApply, ValidatesBeforeMutating) {
  Graph g = grid_graph();
  const EdgeList before = edge_list(g);
  GraphDelta bad;
  bad.insert(g.num_vertices() - 1, g.num_vertices());
  EXPECT_THROW(g.apply(bad), Error);
  EXPECT_EQ(edge_list(g), before);  // untouched on failure
  EXPECT_EQ(g.version(), 0u);
}

TEST(GraphApply, EmptyDeltaBumpsVersionOnly) {
  Graph g = grid_graph();
  const EdgeList before = edge_list(g);
  g.apply(GraphDelta{});
  EXPECT_EQ(edge_list(g), before);
  EXPECT_EQ(g.version(), 1u);
}

// ---- DirtyBalls -------------------------------------------------------

TEST(DirtyBalls, BfsDistancesOnAPath) {
  // 0-1-2-3-4-5 path; seed {2}.
  EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  const Graph g = build_graph(6, edges);
  const DirtyBalls balls = DirtyBalls::build(g, {2}, 2);
  EXPECT_EQ(balls.distance, (std::vector<int>{2, 1, 0, 1, 2, -1}));
  EXPECT_EQ(balls.at(0), (std::vector<VertexId>{2}));
  EXPECT_EQ(balls.at(1), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(balls.at(2), (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(balls.at(9), balls.at(2));  // clamped to the built radius
  EXPECT_TRUE(balls.dirty(3, 1));
  EXPECT_FALSE(balls.dirty(4, 1));
  EXPECT_FALSE(balls.dirty(5, 2));
}

// ---- incremental recount == full recount, bit for bit -----------------

void expect_bit_identical(const CountResult& incremental,
                          const CountResult& full) {
  ASSERT_EQ(incremental.per_iteration.size(), full.per_iteration.size());
  for (std::size_t i = 0; i < full.per_iteration.size(); ++i) {
    ASSERT_EQ(incremental.per_iteration[i], full.per_iteration[i])
        << "iteration " << i;
  }
  ASSERT_EQ(incremental.estimate, full.estimate);
  ASSERT_EQ(incremental.vertex_counts.size(), full.vertex_counts.size());
  for (std::size_t v = 0; v < full.vertex_counts.size(); ++v) {
    ASSERT_EQ(incremental.vertex_counts[v], full.vertex_counts[v])
        << "vertex " << v;
  }
}

struct IncrementalCase {
  TableKind table;
  bool labeled;
};

// Table layout x thread layout (outer_copies on 4 threads: 1 = inner,
// 0 = one copy per thread, 2 = nested 2 x 2).  Multi-copy runs compute
// iterations on several engine copies, so a retained pass may be
// recounted by a different copy than the one that computed it.
class IncrementalBitIdentity
    : public ::testing::TestWithParam<std::tuple<IncrementalCase, int>> {};

TEST_P(IncrementalBitIdentity, RecountMatchesFullRecount) {
  const IncrementalCase param = std::get<0>(GetParam());
  const int outer_copies = std::get<1>(GetParam());
  Graph g = grid_graph();
  TreeTemplate tmpl = TreeTemplate::path(7);
  if (param.labeled) {
    assign_random_labels(g, 3, 21);
    tmpl.set_labels({0, 1, 2, 1, 0, 2, 1});
  }
  const CountOptions options = CountOptions::builder()
                                   .iterations(3)
                                   .seed(42)
                                   .table(param.table)
                                   .partition(PartitionStrategy::kBalanced)
                                   .per_vertex(true)
                                   .outer_copies(outer_copies)
                                   .threads(4)
                                   .build();

  RunHandle handle = begin_incremental(g, tmpl, options);
  expect_bit_identical(handle.result(), count_template(g, tmpl, options));
  EXPECT_EQ(handle.recounts(), 0u);
  EXPECT_GT(handle.retained_bytes(), 0u);

  // Several sequential deltas: retained state must stay exactly what a
  // keep-tables full run would have left after EVERY recount, not just
  // the first.
  Xoshiro256 rng(7 + static_cast<std::uint64_t>(param.table));
  for (int round = 0; round < 3; ++round) {
    GraphDelta delta = random_delta(g, 4, 3, rng);
    g.apply(delta);
    const CountResult& incremental = handle.recount(g, delta);
    expect_bit_identical(incremental, count_template(g, tmpl, options));
    EXPECT_EQ(incremental.delta.applied_edges, 7u);
    EXPECT_GT(incremental.delta.dirty_vertices, 0u);
    EXPECT_GT(incremental.delta.stages_recomputed, 0u);
    EXPECT_EQ(handle.graph_version(), g.version());
    ASSERT_TRUE(incremental.report != nullptr);
    EXPECT_TRUE(incremental.report->delta.incremental);
    EXPECT_EQ(incremental.report->delta.recounts,
              static_cast<std::uint64_t>(round) + 1);
  }
  EXPECT_EQ(handle.recounts(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, IncrementalBitIdentity,
    ::testing::Combine(
        ::testing::Values(IncrementalCase{TableKind::kNaive, false},
                          IncrementalCase{TableKind::kCompact, false},
                          IncrementalCase{TableKind::kHash, false},
                          IncrementalCase{TableKind::kSuccinct, false},
                          IncrementalCase{TableKind::kCompact, true},
                          IncrementalCase{TableKind::kHash, true}),
        ::testing::Values(1, 0, 2)));

TEST(Incremental, DeleteOnlyAndInsertOnlyDeltas) {
  Graph g = grid_graph();
  const TreeTemplate tmpl = TreeTemplate::star(5);
  const CountOptions options =
      CountOptions::builder().iterations(2).seed(3).build();
  RunHandle handle = begin_incremental(g, tmpl, options);

  const Edge victim = edge_list(g).front();
  GraphDelta del;
  del.remove(victim.first, victim.second);
  g.apply(del);
  expect_bit_identical(handle.recount(g, del),
                       count_template(g, tmpl, options));

  GraphDelta ins;
  ins.insert(victim.first, victim.second);
  g.apply(ins);
  expect_bit_identical(handle.recount(g, ins),
                       count_template(g, tmpl, options));
}

TEST(Incremental, EmptyDeltaIsANoOpRecount) {
  Graph g = grid_graph();
  const TreeTemplate tmpl = TreeTemplate::path(5);
  const CountOptions options =
      CountOptions::builder().iterations(2).seed(5).build();
  RunHandle handle = begin_incremental(g, tmpl, options);
  const double before = handle.result().estimate;
  GraphDelta empty;
  g.apply(empty);
  const CountResult& after = handle.recount(g, empty);
  EXPECT_EQ(after.estimate, before);
  EXPECT_EQ(after.delta.dirty_vertices, 0u);
}

TEST(Incremental, OptionRestrictionsRejected) {
  const Graph g = grid_graph();
  const TreeTemplate tmpl = TreeTemplate::path(5);

  // count_template refuses the flag outright.
  CountOptions incremental_opts;
  incremental_opts.execution.incremental = true;
  EXPECT_EQ(category_of([&] { count_template(g, tmpl, incremental_opts); }),
            ErrorCategory::kUsage);

  // Incompatible knobs die in validate().
  CountOptions reordered;
  reordered.execution.reorder = ReorderMode::kDegree;
  EXPECT_EQ(category_of([&] { begin_incremental(g, tmpl, reordered); }),
            ErrorCategory::kUsage);

  CountOptions controlled;
  controlled.run.deadline_seconds = 10.0;
  EXPECT_EQ(category_of([&] { begin_incremental(g, tmpl, controlled); }),
            ErrorCategory::kUsage);
}

TEST(Incremental, ReportCarriesDriverSections) {
  // The initial pass and every recount run on the iteration driver, so
  // their reports carry its per-stage timing and memory plan.
  Graph g = grid_graph();
  const TreeTemplate tmpl = TreeTemplate::path(5);
  const CountOptions options = CountOptions::builder()
                                   .iterations(2)
                                   .seed(9)
                                   .observability(true)
                                   .build();
  RunHandle handle = begin_incremental(g, tmpl, options);
  const auto check = [](const CountResult& result, std::uint64_t recounts) {
    ASSERT_TRUE(result.report != nullptr);
    EXPECT_EQ(result.report->kind, "incremental_count");
    EXPECT_FALSE(result.report->stages.empty());
    EXPECT_GT(result.report->memory.planned_peak_bytes, 0u);
    EXPECT_TRUE(result.report->delta.incremental);
    EXPECT_EQ(result.report->delta.recounts, recounts);
  };
  check(handle.result(), 0);

  GraphDelta delta;
  const Edge victim = edge_list(g).front();
  delta.remove(victim.first, victim.second);
  g.apply(delta);
  check(handle.recount(g, delta), 1);
  EXPECT_GT(handle.result().report->delta.stages_recomputed, 0u);
}

TEST(Incremental, VertexCountMismatchRejected) {
  Graph g = grid_graph();
  const TreeTemplate tmpl = TreeTemplate::path(4);
  RunHandle handle = begin_incremental(
      g, tmpl, CountOptions::builder().iterations(1).build());
  const Graph other = largest_component(erdos_renyi_gnm(30, 60, 3));
  EXPECT_EQ(category_of([&] { handle.recount(other, GraphDelta{}); }),
            ErrorCategory::kBadInput);
}

// ---- GraphSource ------------------------------------------------------

TEST(GraphSource, FactoryMatchesLegacySpellings) {
  EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const Graph via_source = GraphSource::from_edges(5, edges).build();
  const Graph via_builder = build_graph(5, edges);
  expect_same_csr(via_source, via_builder);

  const Graph derived = GraphSource::from_edges(edges).build();
  EXPECT_EQ(derived.num_vertices(), 4);

  const Graph dataset =
      GraphSource::from_dataset("celegans").scale(1.0).seed(5).build();
  EXPECT_GT(dataset.num_vertices(), 0);
}

}  // namespace
}  // namespace fascia
