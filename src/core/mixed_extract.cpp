#include "core/mixed_extract.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/coloring.hpp"
#include "core/mixed_engine.hpp"
#include "dp/table_compact.hpp"
#include "treelet/mixed_partition.hpp"
#include "util/rng.hpp"

namespace fascia {

namespace {

using Table = CompactTable;

/// Walks a completed keep-tables... the mixed engine frees tables
/// eagerly, so this walker re-runs the DP keeping references itself:
/// it owns the engine pass and reads child values through the same
/// inline-leaf convention as the engine.
class MixedWalker {
 public:
  MixedWalker(const Graph& graph, const MixedTemplate& tmpl,
              const MixedPartition& partition, int k,
              const std::vector<std::uint8_t>& colors)
      : graph_(graph), tmpl_(tmpl), partition_(partition), k_(k),
        colors_(colors) {
    // Recompute all node tables and keep every one alive: extraction
    // needs random access to the full DAG.
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    for (int i = 0; i < partition_.num_nodes(); ++i) {
      const MixedSubtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      compute(i);
    }
  }

  /// Total over the root table (0 when the template cannot embed
  /// colorfully under this coloring).
  [[nodiscard]] double total() const {
    const int root = partition_.root_node();
    if (partition_.node(root).is_leaf()) {
      return static_cast<double>(graph_.num_vertices());
    }
    return table_total(*tables_[static_cast<std::size_t>(root)]);
  }

  /// Samples one embedding; requires total() > 0.
  Embedding sample(Xoshiro256& rng) {
    Embedding embedding;
    embedding.vertices.assign(static_cast<std::size_t>(tmpl_.size()), -1);
    const int root = partition_.root_node();
    const Table& table = *tables_[static_cast<std::size_t>(root)];

    // Vertex, then colorset within the vertex, proportional to counts.
    double pick = rng.uniform() * table_total(table);
    VertexId v = 0;
    for (; v < graph_.num_vertices(); ++v) {
      const double weight = table.vertex_total(v);
      if (pick < weight) break;
      pick -= weight;
    }
    if (v >= graph_.num_vertices()) v = graph_.num_vertices() - 1;
    double pick_set = rng.uniform() * table.vertex_total(v);
    ColorsetIndex cset = 0;
    for (ColorsetIndex c = 0; c < table.num_colorsets(); ++c) {
      const double weight = table.get(v, c);
      if (pick_set < weight) {
        cset = c;
        break;
      }
      pick_set -= weight;
    }
    descend(root, v, cset, embedding.vertices, rng);
    return embedding;
  }

 private:
  double value(int index, VertexId v, ColorsetIndex cset) const {
    const MixedSubtemplate& node = partition_.node(index);
    if (node.is_leaf()) {
      if (cset != static_cast<ColorsetIndex>(
                      colors_[static_cast<std::size_t>(v)])) {
        return 0.0;
      }
      if (tmpl_.has_labels() && graph_.has_labels() &&
          tmpl_.label(node.root) != graph_.label(v)) {
        return 0.0;
      }
      return 1.0;
    }
    return tables_[static_cast<std::size_t>(index)]->get(v, cset);
  }

  void compute(int index) {
    // Reuse the engine's kernels by running a single-node pass: the
    // MixedDpEngine frees child tables per schedule, which we do not
    // want here, so the walker re-implements the two joins compactly
    // (extraction is cold; clarity over speed).
    const MixedSubtemplate& node = partition_.node(index);
    const int h = node.size();
    const int a = partition_.node(node.active).size();
    const auto num_sets = num_colorsets(k_, h);
    auto table = std::make_unique<Table>(graph_.num_vertices(), num_sets);
    const SplitTable split1(k_, h, a);

    std::vector<double> row(num_sets);
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      std::fill(row.begin(), row.end(), 0.0);
      bool any = false;
      if (node.kind == MixedSubtemplate::Kind::kEdgeJoin) {
        for (ColorsetIndex parent = 0; parent < num_sets; ++parent) {
          const auto act = split1.active_indices(parent);
          const auto pas = split1.passive_indices(parent);
          for (std::size_t s = 0; s < act.size(); ++s) {
            const double ca = value(node.active, v, act[s]);
            if (ca == 0.0) continue;
            for (VertexId u : graph_.neighbors(v)) {
              const double cp = value(node.passive, u, pas[s]);
              if (cp != 0.0) {
                row[parent] += ca * cp;
                any = true;
              }
            }
          }
        }
      } else {
        const int rest_size = h - a;
        const int sx = partition_.node(node.passive).size();
        const SplitTable split2(k_, rest_size, sx);
        for (ColorsetIndex parent = 0; parent < num_sets; ++parent) {
          const auto act = split1.active_indices(parent);
          const auto rest = split1.passive_indices(parent);
          for (std::size_t s1 = 0; s1 < act.size(); ++s1) {
            const double ca = value(node.active, v, act[s1]);
            if (ca == 0.0) continue;
            const auto cx = split2.active_indices(rest[s1]);
            const auto cy = split2.passive_indices(rest[s1]);
            for (auto [u, w] : adjacent_pairs(v)) {
              for (std::size_t s2 = 0; s2 < cx.size(); ++s2) {
                const double x_val = value(node.passive, u, cx[s2]);
                if (x_val == 0.0) continue;
                const double y_val = value(node.passive2, w, cy[s2]);
                if (y_val != 0.0) {
                  row[parent] += ca * x_val * y_val;
                  any = true;
                }
              }
            }
          }
        }
      }
      if (any) table->commit_row(v, row);
    }
    tables_[static_cast<std::size_t>(index)] = std::move(table);
  }

  /// Ordered pairs (u, w) of mutually adjacent neighbors of v.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> adjacent_pairs(
      VertexId v) const {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    const auto nbrs = graph_.neighbors(v);
    for (VertexId u : nbrs) {
      const auto nbrs_u = graph_.neighbors(u);
      std::set_intersection(nbrs.begin(), nbrs.end(), nbrs_u.begin(),
                            nbrs_u.end(),
                            std::back_inserter(pairs_scratch_));
      for (VertexId w : pairs_scratch_) pairs.emplace_back(u, w);
      pairs_scratch_.clear();
    }
    return pairs;
  }

  void descend(int index, VertexId v, ColorsetIndex cset,
               std::vector<VertexId>& out, Xoshiro256& rng) {
    const MixedSubtemplate& node = partition_.node(index);
    if (node.is_leaf()) {
      out[static_cast<std::size_t>(node.root)] = v;
      return;
    }
    const int h = node.size();
    const int a = partition_.node(node.active).size();
    const SplitTable split1(k_, h, a);
    const auto act = split1.active_indices(cset);
    const auto rest = split1.passive_indices(cset);

    if (node.kind == MixedSubtemplate::Kind::kEdgeJoin) {
      std::vector<std::tuple<VertexId, ColorsetIndex, ColorsetIndex>> choices;
      std::vector<double> weights;
      for (std::size_t s = 0; s < act.size(); ++s) {
        const double ca = value(node.active, v, act[s]);
        if (ca == 0.0) continue;
        for (VertexId u : graph_.neighbors(v)) {
          const double cp = value(node.passive, u, rest[s]);
          if (cp != 0.0) {
            choices.emplace_back(u, act[s], rest[s]);
            weights.push_back(ca * cp);
          }
        }
      }
      const std::size_t chosen = pick(weights, rng);
      const auto [u, ca_idx, cp_idx] = choices[chosen];
      descend(node.active, v, ca_idx, out, rng);
      descend(node.passive, u, cp_idx, out, rng);
      return;
    }

    // Triangle join.
    const int rest_size = h - a;
    const int sx = partition_.node(node.passive).size();
    const SplitTable split2(k_, rest_size, sx);
    struct Choice {
      VertexId u, w;
      ColorsetIndex ca, cx, cy;
    };
    std::vector<Choice> choices;
    std::vector<double> weights;
    for (std::size_t s1 = 0; s1 < act.size(); ++s1) {
      const double ca = value(node.active, v, act[s1]);
      if (ca == 0.0) continue;
      const auto cx = split2.active_indices(rest[s1]);
      const auto cy = split2.passive_indices(rest[s1]);
      for (auto [u, w] : adjacent_pairs(v)) {
        for (std::size_t s2 = 0; s2 < cx.size(); ++s2) {
          const double x_val = value(node.passive, u, cx[s2]);
          if (x_val == 0.0) continue;
          const double y_val = value(node.passive2, w, cy[s2]);
          if (y_val == 0.0) continue;
          choices.push_back({u, w, act[s1], cx[s2], cy[s2]});
          weights.push_back(ca * x_val * y_val);
        }
      }
    }
    const Choice& choice = choices[pick(weights, rng)];
    descend(node.active, v, choice.ca, out, rng);
    descend(node.passive, choice.u, choice.cx, out, rng);
    descend(node.passive2, choice.w, choice.cy, out, rng);
  }

  static std::size_t pick(const std::vector<double>& weights,
                          Xoshiro256& rng) {
    if (weights.empty()) {
      throw std::logic_error("MixedWalker: inconsistent DP tables");
    }
    double total = 0.0;
    for (double w : weights) total += w;
    double roll = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (roll < weights[i]) return i;
      roll -= weights[i];
    }
    return weights.size() - 1;
  }

  const Graph& graph_;
  const MixedTemplate& tmpl_;
  const MixedPartition& partition_;
  int k_;
  const std::vector<std::uint8_t>& colors_;
  std::vector<std::unique_ptr<Table>> tables_;
  mutable std::vector<VertexId> pairs_scratch_;
};

}  // namespace

bool is_valid_mixed_embedding(const Graph& graph, const MixedTemplate& tmpl,
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

std::vector<Embedding> sample_mixed_embeddings(const Graph& graph,
                                               const MixedTemplate& tmpl,
                                               std::size_t how_many,
                                               const CountOptions& options,
                                               int max_coloring_attempts) {
  if (tmpl.is_tree()) {
    return sample_embeddings(graph, tmpl.as_tree(), how_many, options,
                             max_coloring_attempts);
  }
  const int k = options.sampling.num_colors > 0 ? options.sampling.num_colors : tmpl.size();
  const MixedPartition partition =
      partition_mixed_template(tmpl, options.root);
  Xoshiro256 rng(options.sampling.seed ^ 0x5bd1e995);

  std::vector<Embedding> out;
  for (int attempt = 0;
       attempt < max_coloring_attempts && out.size() < how_many; ++attempt) {
    const auto colors = detail::random_coloring(
        graph, k, options.sampling.seed + static_cast<std::uint64_t>(attempt));
    MixedWalker walker(graph, tmpl, partition, k, colors);
    if (walker.total() <= 0.0) continue;
    const std::size_t batch =
        std::max<std::size_t>(1, (how_many - out.size() + 3) / 4);
    for (std::size_t draw = 0; draw < batch && out.size() < how_many;
         ++draw) {
      out.push_back(walker.sample(rng));
    }
  }
  return out;
}

}  // namespace fascia
