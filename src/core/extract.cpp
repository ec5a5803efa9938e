#include "core/extract.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/counter.hpp"
#include "core/engine.hpp"
#include "dp/table_compact.hpp"
#include "util/rng.hpp"

namespace fascia {

namespace {

// The extractor always uses the compact table: extraction is not the
// hot path and compact's has_vertex checks keep the walks cheap.
using Table = CompactTable;

ColorArray coloring_for(const Graph& graph, int k, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ColorArray colors(static_cast<std::size_t>(graph.num_vertices()));
  for (auto& color : colors) {
    color = static_cast<std::uint8_t>(
        rng.bounded(static_cast<std::uint32_t>(k)));
  }
  return colors;
}

/// Shared walk state over a completed keep-tables DP run.
class Walker {
 public:
  Walker(DpEngine<Table>& engine, const TreeTemplate& tmpl,
         const ColorArray& colors)
      : engine_(engine), tmpl_(tmpl), colors_(colors) {}

  /// Samples one embedding from node `index` rooted at graph vertex v
  /// holding colorset `cset`; fills out[template_vertex].
  void sample_node(int index, VertexId v, ColorsetIndex cset,
                   std::vector<VertexId>& out, Xoshiro256& rng) {
    const Subtemplate& node = engine_.partition().node(index);
    if (node.is_leaf()) {
      out[static_cast<std::size_t>(node.root)] = v;
      return;
    }
    // Enumerate (u, split) choices with their weights; sample one.
    std::vector<std::tuple<VertexId, ColorsetIndex, ColorsetIndex>> choices;
    std::vector<double> weights;
    collect_choices(index, v, cset, choices, weights);
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) {
      throw std::logic_error("Walker: inconsistent DP tables");
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = weights.size() - 1;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (pick < weights[i]) {
        chosen = i;
        break;
      }
      pick -= weights[i];
    }
    const auto [u, ca, cp] = choices[chosen];
    sample_node(node.active, v, ca, out, rng);
    sample_node(node.passive, u, cp, out, rng);
  }

  /// Work item: a subtemplate still to be expanded, anchored at a
  /// graph vertex with a fixed colorset.
  struct Frame {
    int node;
    VertexId vertex;
    ColorsetIndex cset;
  };

  /// Exhaustive descent: expands the pending frames depth-first; when
  /// none remain, `out` holds a complete embedding and `sink(out)` is
  /// invoked (return false from the sink to stop).  Returns false once
  /// stopped.
  template <class Sink>
  bool expand(std::vector<Frame>& work, std::vector<VertexId>& out,
              Sink&& sink) {
    if (work.empty()) return sink(out);
    const Frame frame = work.back();
    work.pop_back();
    const Subtemplate& node = engine_.partition().node(frame.node);
    bool keep_going = true;
    if (node.is_leaf()) {
      out[static_cast<std::size_t>(node.root)] = frame.vertex;
      keep_going = expand(work, out, sink);
    } else {
      std::vector<std::tuple<VertexId, ColorsetIndex, ColorsetIndex>> choices;
      std::vector<double> weights;
      collect_choices(frame.node, frame.vertex, frame.cset, choices, weights);
      for (const auto& [u, ca, cp] : choices) {
        work.push_back({node.active, frame.vertex, ca});
        work.push_back({node.passive, u, cp});
        keep_going = expand(work, out, sink);
        work.pop_back();
        work.pop_back();
        if (!keep_going) break;
      }
    }
    work.push_back(frame);
    return keep_going;
  }

 private:
  /// Weight of subtree choices at (node, v, cset): for each neighbor u
  /// and split (ca, cp), weight = T_active[v][ca] * T_passive[u][cp].
  void collect_choices(
      int index, VertexId v, ColorsetIndex cset,
      std::vector<std::tuple<VertexId, ColorsetIndex, ColorsetIndex>>& choices,
      std::vector<double>& weights) {
    const Subtemplate& node = engine_.partition().node(index);
    const Subtemplate& active = engine_.partition().node(node.active);
    const int h = node.size();
    const int a = active.size();

    // Expand cset into member colors, then enumerate all (a, h-a)
    // color splits directly (extraction is cold; clarity wins).
    std::vector<int> colors_of_set = colorset_colors(cset, h);
    std::vector<int> positions(static_cast<std::size_t>(a));
    for (int i = 0; i < a; ++i) positions[static_cast<std::size_t>(i)] = i;
    std::vector<int> act_colors(static_cast<std::size_t>(a));
    std::vector<int> pas_colors(static_cast<std::size_t>(h - a));
    do {
      std::size_t ai = 0, pi = 0, next = 0;
      for (int i = 0; i < h; ++i) {
        if (next < positions.size() && positions[next] == i) {
          act_colors[ai++] = colors_of_set[static_cast<std::size_t>(i)];
          ++next;
        } else {
          pas_colors[pi++] = colors_of_set[static_cast<std::size_t>(i)];
        }
      }
      const ColorsetIndex ca = colorset_index(act_colors);
      const ColorsetIndex cp = colorset_index(pas_colors);
      const double weight_a = node_value(node.active, v, ca);
      if (weight_a == 0.0) continue;
      for (VertexId u : engine_.graph().neighbors(v)) {
        const double weight_p = node_value(node.passive, u, cp);
        if (weight_p == 0.0) continue;
        choices.emplace_back(u, ca, cp);
        weights.push_back(weight_a * weight_p);
      }
    } while (next_colorset(positions, h));
  }

  /// DP value of node at (v, cset); leaves are implicit
  /// (1 iff colorset == {color(v)} and labels match).
  double node_value(int index, VertexId v, ColorsetIndex cset) {
    const Subtemplate& node = engine_.partition().node(index);
    if (node.is_leaf()) {
      const int cv = colors_[static_cast<std::size_t>(v)];
      if (cset != static_cast<ColorsetIndex>(cv)) return 0.0;
      if (tmpl_.has_labels() && engine_.graph().has_labels() &&
          tmpl_.label(node.root) != engine_.graph().label(v)) {
        return 0.0;
      }
      return 1.0;
    }
    const Table* table = engine_.table(index);
    return table == nullptr ? 0.0 : table->get(v, cset);
  }

  DpEngine<Table>& engine_;
  const TreeTemplate& tmpl_;
  const ColorArray& colors_;
};

}  // namespace

bool is_valid_embedding(const Graph& graph, const TreeTemplate& tmpl,
                        const Embedding& embedding) {
  if (static_cast<int>(embedding.vertices.size()) != tmpl.size()) return false;
  std::set<VertexId> distinct(embedding.vertices.begin(),
                              embedding.vertices.end());
  if (static_cast<int>(distinct.size()) != tmpl.size()) return false;
  for (VertexId v : embedding.vertices) {
    if (v < 0 || v >= graph.num_vertices()) return false;
  }
  for (auto [a, b] : tmpl.edges()) {
    if (!graph.has_edge(embedding.vertices[static_cast<std::size_t>(a)],
                        embedding.vertices[static_cast<std::size_t>(b)])) {
      return false;
    }
  }
  if (tmpl.has_labels() && graph.has_labels()) {
    for (int tv = 0; tv < tmpl.size(); ++tv) {
      if (tmpl.label(tv) !=
          graph.label(embedding.vertices[static_cast<std::size_t>(tv)])) {
        return false;
      }
    }
  }
  return true;
}

namespace {

/// Shared reorder wrapper: runs `body` on the reordered graph, then
/// maps every embedding's vertices back to original ids.  Extraction
/// results are therefore always keyed by original ids, matching the
/// counter's contract.
template <class Body>
std::vector<Embedding> with_reorder(const Graph& graph,
                                    const CountOptions& options, Body&& body) {
  if (options.execution.reorder == ReorderMode::kNone) return body(graph, options);
  const Permutation perm = reorder_permutation(graph, options.execution.reorder);
  const Graph reordered = apply_permutation(graph, perm);
  CountOptions reordered_options = options;
  reordered_options.execution.reorder = ReorderMode::kNone;
  std::vector<Embedding> out = body(reordered, reordered_options);
  for (Embedding& embedding : out) {
    for (VertexId& v : embedding.vertices) {
      v = perm.to_old[static_cast<std::size_t>(v)];
    }
  }
  return out;
}

}  // namespace

std::vector<Embedding> sample_embeddings(const Graph& graph,
                                         const TreeTemplate& tmpl,
                                         std::size_t how_many,
                                         const CountOptions& options,
                                         int max_coloring_attempts) {
  if (options.execution.reorder != ReorderMode::kNone) {
    return with_reorder(graph, options,
                        [&](const Graph& g, const CountOptions& o) {
                          return sample_embeddings(g, tmpl, how_many, o,
                                                   max_coloring_attempts);
                        });
  }
  const int k = effective_colors(tmpl, options);
  // Table sharing merges isomorphic subtemplates into one node, whose
  // recorded root/vertex ids belong to a single representative — the
  // walker needs each occurrence's true template vertices, so the
  // extractor always partitions without sharing.
  const PartitionTree partition = partition_template(
      tmpl, options.execution.partition, /*share_tables=*/false, options.root);
  DpEngine<Table> engine(graph, partition, k);
  Xoshiro256 rng(options.sampling.seed ^ 0xabcdef12345678ULL);

  std::vector<Embedding> out;
  for (int attempt = 0;
       attempt < max_coloring_attempts && out.size() < how_many; ++attempt) {
    const ColorArray colors =
        coloring_for(graph, k, options.sampling.seed + static_cast<std::uint64_t>(attempt));
    const double total =
        engine.run(colors, /*parallel_inner=*/false, /*keep_tables=*/true);
    if (total <= 0.0) continue;

    Walker walker(engine, tmpl, colors);
    const int root = partition.root_node();
    const Table* root_table = engine.table(root);
    if (root_table == nullptr) break;  // size-1 template: no table
    // Build the (v, cset) marginal once per coloring.
    std::vector<std::pair<VertexId, double>> vertex_weights;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const double w = root_table->vertex_total(v);
      if (w > 0.0) vertex_weights.emplace_back(v, w);
    }
    while (out.size() < how_many) {
      double pick = rng.uniform() * total;
      VertexId v = vertex_weights.back().first;
      for (const auto& [candidate, weight] : vertex_weights) {
        if (pick < weight) {
          v = candidate;
          break;
        }
        pick -= weight;
      }
      // Then a colorset within v.
      const auto num_sets = root_table->num_colorsets();
      double pick_set = rng.uniform() * root_table->vertex_total(v);
      ColorsetIndex cset = 0;
      for (ColorsetIndex c = 0; c < num_sets; ++c) {
        const double w = root_table->get(v, c);
        if (pick_set < w) {
          cset = c;
          break;
        }
        pick_set -= w;
      }
      Embedding embedding;
      embedding.vertices.assign(static_cast<std::size_t>(tmpl.size()), -1);
      walker.sample_node(root, v, cset, embedding.vertices, rng);
      out.push_back(std::move(embedding));
      // Spread samples across colorings: draw at most ~how_many/4 per
      // coloring so rare embeddings under one coloring do not dominate.
      if (out.size() % std::max<std::size_t>(1, how_many / 4) == 0) break;
    }
    engine.release_all_tables();
  }
  return out;
}

std::vector<Embedding> enumerate_embeddings(const Graph& graph,
                                            const TreeTemplate& tmpl,
                                            std::size_t limit,
                                            bool dedup_sets,
                                            const CountOptions& options) {
  if (options.execution.reorder != ReorderMode::kNone) {
    return with_reorder(graph, options,
                        [&](const Graph& g, const CountOptions& o) {
                          return enumerate_embeddings(g, tmpl, limit,
                                                      dedup_sets, o);
                        });
  }
  const int k = effective_colors(tmpl, options);
  // No table sharing: see sample_embeddings.
  const PartitionTree partition = partition_template(
      tmpl, options.execution.partition, /*share_tables=*/false, options.root);
  DpEngine<Table> engine(graph, partition, k);
  const ColorArray colors = coloring_for(graph, k, options.sampling.seed);
  engine.run(colors, /*parallel_inner=*/false, /*keep_tables=*/true);

  std::vector<Embedding> out;
  // An occurrence (non-induced copy) is a concrete subgraph: the same
  // vertex set can host several copies with different edges, and each
  // copy is produced once per automorphism of the template.  Dedup
  // therefore keys on the *mapped edge set*.
  std::set<std::vector<std::pair<VertexId, VertexId>>> seen_copies;
  const int root = partition.root_node();
  const Table* root_table = engine.table(root);
  if (root_table == nullptr) return out;

  Walker walker(engine, tmpl, colors);
  std::vector<VertexId> scratch(static_cast<std::size_t>(tmpl.size()), -1);
  auto sink = [&](const std::vector<VertexId>& vertices) {
    if (dedup_sets) {
      std::vector<std::pair<VertexId, VertexId>> copy_edges;
      for (auto [a, b] : tmpl.edges()) {
        VertexId u = vertices[static_cast<std::size_t>(a)];
        VertexId v = vertices[static_cast<std::size_t>(b)];
        copy_edges.emplace_back(std::min(u, v), std::max(u, v));
      }
      std::sort(copy_edges.begin(), copy_edges.end());
      if (!seen_copies.insert(std::move(copy_edges)).second) return true;
    }
    out.push_back(Embedding{vertices});
    return out.size() < limit;
  };

  bool keep_going = true;
  for (VertexId v = 0; v < graph.num_vertices() && keep_going; ++v) {
    if (!root_table->has_vertex(v)) continue;
    for (ColorsetIndex c = 0;
         c < root_table->num_colorsets() && keep_going; ++c) {
      if (root_table->get(v, c) == 0.0) continue;
      std::vector<Walker::Frame> work = {{root, v, c}};
      keep_going = walker.expand(work, scratch, sink);
    }
  }
  engine.release_all_tables();
  return out;
}

}  // namespace fascia
