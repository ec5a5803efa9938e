#pragma once
// DP engine for mixed (edge + triangle block) templates.
//
// Structure mirrors core/engine.hpp with one extra kernel: the
// *triangle join*, which combines the active side at v with two
// passive subtrees anchored at a pair of mutually adjacent neighbors
// (u, w) of v:
//
//   count[S][v][C] = Σ_{u,w ∈ N(v), u~w}  Σ_{C = Ca ⊎ Cx ⊎ Cy}
//                      T_a[v][Ca] · T_x[u][Cx] · T_y[w][Cy]
//
// Colorfulness makes the three images automatically distinct.  The
// three-way colorset split is two chained SplitTables.  Leaf children
// are evaluated inline (value 1 at the vertex's own color, subject to
// the label filter) instead of materializing tables.
//
// This engine favors clarity over the tree engine's fast paths: mixed
// templates are an extension feature and small; trees should use
// count_template() (count_mixed_template() delegates automatically).

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/split_table.hpp"
#include "dp/count_table.hpp"
#include "graph/graph.hpp"
#include "treelet/mixed_partition.hpp"
#include "treelet/mixed_template.hpp"

namespace fascia {

template <class Table>
class MixedDpEngine {
 public:
  /// `inner_threads` sizes the inner-parallel vertex sweep (0 = the
  /// OpenMP default).
  MixedDpEngine(const Graph& graph, const MixedTemplate& tmpl,
                const MixedPartition& partition, int num_colors,
                int inner_threads = 0)
      : graph_(graph), tmpl_(tmpl), partition_(partition), k_(num_colors),
        inner_threads_(inner_threads) {
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    for (int i = 0; i < partition_.num_nodes(); ++i) {
      const MixedSubtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      const int h = node.size();
      const int a = partition_.node(node.active).size();
      splits_.try_emplace(std::make_pair(h, a), k_, h, a);
      if (node.kind == MixedSubtemplate::Kind::kTriangleJoin) {
        const int rest = h - a;
        const int sx = partition_.node(node.passive).size();
        splits_.try_emplace(std::make_pair(rest, sx), k_, rest, sx);
      }
    }
  }

  double run(const std::vector<std::uint8_t>& colors, bool parallel_inner) {
    release_all_tables();
    for (int i = 0; i < partition_.num_nodes(); ++i) {
      const MixedSubtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      compute_node(i, colors, parallel_inner);
      for (int j = 0; j < i; ++j) {
        if (partition_.node(j).free_after == i) {
          tables_[static_cast<std::size_t>(j)].reset();
        }
      }
    }

    const int root = partition_.root_node();
    if (partition_.node(root).is_leaf()) {
      double count = 0.0;
      for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        if (leaf_matches(partition_.node(root).root, v)) count += 1.0;
      }
      return count;
    }
    const double total = table_total(*tables_[static_cast<std::size_t>(root)]);
    release_all_tables();
    return total;
  }

  void release_all_tables() noexcept {
    for (auto& table : tables_) table.reset();
  }

 private:
  [[nodiscard]] bool leaf_matches(int tv, VertexId v) const noexcept {
    if (!tmpl_.has_labels() || !graph_.has_labels()) return true;
    return tmpl_.label(tv) == graph_.label(v);
  }

  /// Child value: leaf children are implicit (1 at the vertex's own
  /// color), non-leaf children read their table.
  [[nodiscard]] double child_get(int index,
                                 const std::vector<std::uint8_t>& colors,
                                 VertexId v, ColorsetIndex cset) const {
    const MixedSubtemplate& node = partition_.node(index);
    if (node.is_leaf()) {
      if (cset != static_cast<ColorsetIndex>(
                      colors[static_cast<std::size_t>(v)])) {
        return 0.0;
      }
      return leaf_matches(node.root, v) ? 1.0 : 0.0;
    }
    return tables_[static_cast<std::size_t>(index)]->get(v, cset);
  }

  [[nodiscard]] bool child_has(int index, VertexId v) const {
    const MixedSubtemplate& node = partition_.node(index);
    if (node.is_leaf()) return leaf_matches(node.root, v);
    return tables_[static_cast<std::size_t>(index)]->has_vertex(v);
  }

  void compute_node(int index, const std::vector<std::uint8_t>& colors,
                    bool parallel) {
    const MixedSubtemplate& node = partition_.node(index);
    const int h = node.size();
    auto table =
        std::make_unique<Table>(graph_.num_vertices(), num_colorsets(k_, h));
    if (node.kind == MixedSubtemplate::Kind::kEdgeJoin) {
      kernel_edge_join(*table, node, colors, parallel);
    } else {
      kernel_triangle_join(*table, node, colors, parallel);
    }
    tables_[static_cast<std::size_t>(index)] = std::move(table);
  }

  struct ActiveEntry {
    ColorsetIndex parent;
    ColorsetIndex rest;
    double value;
  };

  template <class Body>
  void for_all_vertices(bool parallel, Body&& body) {
    const VertexId n = graph_.num_vertices();
#ifdef _OPENMP
    if (parallel) {
#pragma omp parallel for schedule(dynamic, 64) \
    num_threads(inner_threads_ > 0 ? inner_threads_ : omp_get_max_threads())
      for (VertexId v = 0; v < n; ++v) body(v);
      return;
    }
#endif
    for (VertexId v = 0; v < n; ++v) body(v);
  }

  /// Nonzero (parent, rest, T_a[v]) triples for vertex v under split1.
  void compress_active(const MixedSubtemplate& node,
                       const std::vector<std::uint8_t>& colors, VertexId v,
                       const SplitTable& split,
                       std::vector<ActiveEntry>& out) const {
    out.clear();
    for (ColorsetIndex parent = 0; parent < split.num_parents(); ++parent) {
      const auto act = split.active_indices(parent);
      const auto rest = split.passive_indices(parent);
      for (std::size_t s = 0; s < act.size(); ++s) {
        const double value = child_get(node.active, colors, v, act[s]);
        if (value != 0.0) out.push_back({parent, rest[s], value});
      }
    }
  }

  void kernel_edge_join(Table& out, const MixedSubtemplate& node,
                        const std::vector<std::uint8_t>& colors,
                        bool parallel) {
    const int h = node.size();
    const int a = partition_.node(node.active).size();
    const SplitTable& split = splits_.at(std::make_pair(h, a));
    for_all_vertices(parallel, [&](VertexId v) {
      if (!child_has(node.active, v)) return;
      std::vector<ActiveEntry> entries;
      compress_active(node, colors, v, split, entries);
      if (entries.empty()) return;
      std::vector<double> row(out.num_colorsets(), 0.0);
      bool any = false;
      for (VertexId u : graph_.neighbors(v)) {
        if (!child_has(node.passive, u)) continue;
        for (const auto& entry : entries) {
          const double passive = child_get(node.passive, colors, u, entry.rest);
          if (passive != 0.0) {
            row[entry.parent] += entry.value * passive;
            any = true;
          }
        }
      }
      if (any) out.commit_row(v, row);
    });
  }

  void kernel_triangle_join(Table& out, const MixedSubtemplate& node,
                            const std::vector<std::uint8_t>& colors,
                            bool parallel) {
    const int h = node.size();
    const int a = partition_.node(node.active).size();
    const int rest_size = h - a;
    const int sx = partition_.node(node.passive).size();
    const SplitTable& split1 = splits_.at(std::make_pair(h, a));
    const SplitTable& split2 = splits_.at(std::make_pair(rest_size, sx));
    const auto num_rest = num_colorsets(k_, rest_size);

    for_all_vertices(parallel, [&](VertexId v) {
      if (!child_has(node.active, v)) return;
      std::vector<ActiveEntry> entries;
      compress_active(node, colors, v, split1, entries);
      if (entries.empty()) return;

      // rest_sums[Crest] = Σ over adjacent ordered pairs (u, w) of
      // N(v), Σ splits of Crest: T_x[u][Cx] · T_y[w][Cy].
      std::vector<double> rest_sums(num_rest, 0.0);
      bool any_pair = false;
      const auto nbrs = graph_.neighbors(v);
      for (VertexId u : nbrs) {
        if (!child_has(node.passive, u)) continue;
        // w must be adjacent to both v and u: intersect sorted lists.
        const auto nbrs_u = graph_.neighbors(u);
        auto it_v = nbrs.begin();
        auto it_u = nbrs_u.begin();
        while (it_v != nbrs.end() && it_u != nbrs_u.end()) {
          if (*it_v < *it_u) {
            ++it_v;
          } else if (*it_u < *it_v) {
            ++it_u;
          } else {
            const VertexId w = *it_v;
            ++it_v;
            ++it_u;
            if (w == u || !child_has(node.passive2, w)) continue;
            for (ColorsetIndex crest = 0; crest < num_rest; ++crest) {
              const auto cx = split2.active_indices(crest);
              const auto cy = split2.passive_indices(crest);
              double sum = 0.0;
              for (std::size_t s = 0; s < cx.size(); ++s) {
                const double x_val = child_get(node.passive, colors, u, cx[s]);
                if (x_val != 0.0) {
                  sum += x_val * child_get(node.passive2, colors, w, cy[s]);
                }
              }
              if (sum != 0.0) {
                rest_sums[crest] += sum;
                any_pair = true;
              }
            }
          }
        }
      }
      if (!any_pair) return;

      std::vector<double> row(out.num_colorsets(), 0.0);
      for (const auto& entry : entries) {
        row[entry.parent] += entry.value * rest_sums[entry.rest];
      }
      out.commit_row(v, row);
    });
  }

  const Graph& graph_;
  const MixedTemplate& tmpl_;
  const MixedPartition& partition_;
  int k_;
  int inner_threads_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::map<std::pair<int, int>, SplitTable> splits_;
};

}  // namespace fascia
