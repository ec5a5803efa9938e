#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "helpers.hpp"
#include "util/error.hpp"

namespace fascia {
namespace {

using testing::complete_graph;
using testing::path_graph;
using testing::star_graph;
using testing::triangle_graph;

TEST(GraphBuilder, BasicCsrShape) {
  const Graph g = build_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(GraphBuilder, DropsSelfLoops) {
  const Graph g = build_graph(3, {{0, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphBuilder, MergesDuplicatesBothOrientations) {
  const Graph g = build_graph(3, {{0, 1}, {1, 0}, {0, 1}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphBuilder, AdjacencySortedAndSymmetric) {
  const Graph g = build_graph(5, {{4, 0}, {2, 0}, {3, 0}, {1, 0}, {4, 2}});
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(u, v));
      EXPECT_TRUE(g.has_edge(v, u));
    }
  }
}

TEST(GraphBuilder, OutOfRangeEndpointThrows) {
  EXPECT_THROW(build_graph(2, {{0, 2}}), fascia::Error);
  EXPECT_THROW(build_graph(2, {{-1, 0}}), fascia::Error);
}

TEST(GraphBuilder, DerivesSizeFromEdges) {
  const Graph g = build_graph({{0, 5}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 6);
}

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = build_graph(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 0.0);
}

TEST(Graph, HasEdge) {
  const Graph g = triangle_graph();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(-1, 0));
}

TEST(Graph, DegreeStatistics) {
  const Graph g = star_graph(6);
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 10.0 / 6.0);
}

TEST(Graph, MaxDegreeTracksApply) {
  const auto scan = [](const Graph& g) {
    EdgeCount best = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      best = std::max(best, g.degree(v));
    }
    return best;
  };
  Graph g = path_graph(6);
  EXPECT_EQ(g.max_degree(), 2);

  GraphDelta raise;  // vertex 0 becomes the hub
  raise.insert(0, 2);
  raise.insert(0, 3);
  raise.insert(0, 4);
  g.apply(raise);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.max_degree(), scan(g));

  GraphDelta lower;  // ... and loses every edge again
  lower.remove(0, 1);
  lower.remove(0, 2);
  lower.remove(0, 3);
  lower.remove(0, 4);
  g.apply(lower);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.max_degree(), scan(g));
}

TEST(Graph, EdgeListRoundTrip) {
  const EdgeList original = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const Graph g = build_graph(4, original);
  EdgeList extracted = edge_list(g);
  std::sort(extracted.begin(), extracted.end());
  EdgeList expected = original;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(extracted, expected);
}

TEST(GraphLabels, SetAndQuery) {
  Graph g = path_graph(3);
  g.set_labels({0, 1, 1}, 2);
  EXPECT_TRUE(g.has_labels());
  EXPECT_EQ(g.num_label_values(), 2);
  EXPECT_EQ(g.label(0), 0);
  EXPECT_EQ(g.label(2), 1);
  g.clear_labels();
  EXPECT_FALSE(g.has_labels());
}

TEST(GraphLabels, ValidationErrors) {
  Graph g = path_graph(3);
  EXPECT_THROW(g.set_labels({0, 1}, 2), std::invalid_argument);     // size
  EXPECT_THROW(g.set_labels({0, 1, 2}, 2), std::invalid_argument);  // range
  EXPECT_THROW(g.set_labels({0, 0, 0}, 0), std::invalid_argument);  // values
}

TEST(Graph, InducedSubgraphRelabels) {
  const Graph g = complete_graph(5);
  std::vector<VertexId> map;
  const Graph sub = induced_subgraph(g, {4, 2, 0}, &map);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3);  // K3
  EXPECT_EQ(map[4], 0);
  EXPECT_EQ(map[2], 1);
  EXPECT_EQ(map[0], 2);
  EXPECT_EQ(map[1], -1);
}

TEST(Graph, InducedSubgraphCarriesLabels) {
  Graph g = path_graph(4);
  g.set_labels({3, 2, 1, 0}, 4);
  const Graph sub = induced_subgraph(g, {3, 1});
  ASSERT_TRUE(sub.has_labels());
  EXPECT_EQ(sub.label(0), 0);
  EXPECT_EQ(sub.label(1), 2);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  const Graph g = path_graph(4);
  EXPECT_THROW(induced_subgraph(g, {1, 1}), fascia::Error);
  EXPECT_THROW(induced_subgraph(g, {9}), fascia::Error);
}

TEST(Graph, BytesAccountsArrays) {
  const Graph g = path_graph(10);
  EXPECT_GT(g.bytes(), 0u);
}

TEST(Graph, InvalidCsrRejected) {
  EXPECT_THROW(Graph({}, {}), std::invalid_argument);
  EXPECT_THROW(Graph({0, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(Graph({0, 2, 1}, {1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace fascia
