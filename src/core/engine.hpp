#pragma once
// The dynamic-programming engine (Alg. 2), templated on the count
// table so the innermost loop is compile-time dispatched.
//
// One engine instance serves one (graph, template, partition, k)
// combination and may run many iterations; tables are allocated per
// node when its pass starts and freed on the partition's free_after
// schedule (≤ ~4 live at once, §III-C), except in keep_tables mode
// used by the embedding extractor.
//
// Kernel selection per non-leaf subtemplate S (size h, active child
// size a, passive size p = h - a):
//   * h == 2          — both children are single vertices: counts come
//                       straight from the two endpoint colors.
//   * a == 1          — the paper's one-at-a-time fast path: only the
//                       C(k-1, h-1) colorsets containing color(v) are
//                       touched (§III-D).
//   * p == 1          — mirrored fast path keyed by the neighbor color.
//   * otherwise       — general split-table kernel (Alg. 2 lines 7-15).
//
// The default kernels are the *vectorizable* rebuild (DESIGN.md §8):
//
//   * Sparse vertex frontiers — every computed table exports its
//     nonzero-vertex list and compute_tables threads it upward, so a
//     parent stage iterates only its active child's surviving vertices
//     (leaf-rooted stages intersect with the per-label vertex lists)
//     instead of scanning all n and probing has_vertex per vertex.
//   * SoA split layout + row borrowing — hoisted active entries live
//     in parallel parent/passive/value arrays sorted by passive index,
//     and the inner multiply-accumulate runs over contiguous rows
//     borrowed from the tables (Table::row_ptr) under `omp simd`, with
//     no per-element pointer chase.
//
// The pre-frontier scalar kernels are retained behind
// DpEngineOptions::reference_kernels; both paths produce identical
// estimates (all DP values are exact integer counts in doubles, so
// the reassociated sums match bit for bit while counts stay below
// 2^53), which tests/test_counter.cpp pins down and bench/micro_dp
// measures.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "comb/binomial.hpp"
#include "comb/split_table.hpp"
#include "dp/count_table.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "run/guard.hpp"
#include "run/spill.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

/// Colors are small ints; one byte per vertex.
using ColorArray = std::vector<std::uint8_t>;

/// Per-label sorted vertex lists — the frontier a labeled leaf
/// subtemplate induces.  Graph-wide and engine-independent, so outer
/// parallel modes build it once and share it across engine copies.
struct LabelFrontiers {
  std::vector<std::vector<VertexId>> by_label;  ///< index = label value

  static std::shared_ptr<const LabelFrontiers> build(const Graph& graph) {
    auto out = std::make_shared<LabelFrontiers>();
    if (graph.has_labels()) {
      out->by_label.resize(static_cast<std::size_t>(graph.num_label_values()));
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        out->by_label[graph.label(v)].push_back(v);
      }
    }
    return out;
  }
};

/// Dirty-vertex balls for the incremental delta path: BFS distance
/// from the endpoints of every changed edge, measured on the POST-delta
/// graph, capped at `radius` (= template size - 1).  A DP row for a
/// subtemplate of size s at vertex v can change only if
/// dist(v, seeds) <= s - 1: a gained embedding reaches an inserted
/// edge within s-1 new-graph hops, and a lost embedding's tree path
/// from v to its first deleted-edge use survives (undeleted) in the
/// new graph.  Leaf tables depend only on colorings, so nothing is
/// recomputed at radius < 1.
struct DirtyBalls {
  int radius = 0;
  /// BFS distance per vertex; -1 = farther than radius (clean at every
  /// stage).
  std::vector<int> distance;
  /// ball[r] = sorted {v : distance[v] <= r}, r in [0, radius].
  std::vector<std::vector<VertexId>> ball;

  [[nodiscard]] bool dirty(VertexId v, int r) const noexcept {
    const int d = distance[static_cast<std::size_t>(v)];
    return d >= 0 && d <= r;
  }

  /// Vertices within `r` hops of any seed (r clamped to the built
  /// radius — larger stages reuse the outermost ball).
  [[nodiscard]] const std::vector<VertexId>& at(int r) const noexcept {
    return ball[static_cast<std::size_t>(std::clamp(r, 0, radius))];
  }

  static DirtyBalls build(const Graph& graph,
                          const std::vector<VertexId>& seeds, int radius) {
    DirtyBalls out;
    out.radius = std::max(0, radius);
    out.distance.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
    out.ball.resize(static_cast<std::size_t>(out.radius) + 1);
    std::vector<VertexId> level = seeds;  // sorted unique by contract
    for (const VertexId v : level) {
      out.distance[static_cast<std::size_t>(v)] = 0;
    }
    out.ball[0] = level;
    for (int r = 1; r <= out.radius; ++r) {
      std::vector<VertexId> next;
      for (const VertexId v : level) {
        for (const VertexId u : graph.neighbors(v)) {
          if (out.distance[static_cast<std::size_t>(u)] >= 0) continue;
          out.distance[static_cast<std::size_t>(u)] = r;
          next.push_back(u);
        }
      }
      std::sort(next.begin(), next.end());
      out.ball[static_cast<std::size_t>(r)].resize(
          out.ball[static_cast<std::size_t>(r) - 1].size() + next.size());
      std::merge(out.ball[static_cast<std::size_t>(r) - 1].begin(),
                 out.ball[static_cast<std::size_t>(r) - 1].end(),
                 next.begin(), next.end(),
                 out.ball[static_cast<std::size_t>(r)].begin());
      level = std::move(next);
    }
    return out;
  }
};

/// Engine tuning knobs (all default to the production fast path).
struct DpEngineOptions {
  /// Run the pre-frontier scalar kernels instead of the vectorized
  /// ones.  Test/bench hook: estimates are identical either way.
  bool reference_kernels = false;

  /// Record one DpStageStats entry per computed node pass.
  bool collect_stats = false;

  /// Shared per-label vertex lists; nullptr makes the engine build its
  /// own when the graph is labeled.
  std::shared_ptr<const LabelFrontiers> label_frontiers;

  /// Threads for the inner-parallel frontier sweep; 0 = the OpenMP
  /// default.  sched::detail::drive sets this so each outer engine copy
  /// parallelizes its stages over its own thread share.
  int inner_threads = 0;

  /// Out-of-core paging (run/spill.hpp): with both knobs set, completed
  /// sub-template tables beyond spill_budget_bytes page to checksummed
  /// files in spill_dir and are restored right before the stage (or
  /// total read) that consumes them.  The eviction policy is Belady on
  /// the static stage schedule: the victim is the resident table whose
  /// next consuming stage is farthest away.  Restored rows re-commit
  /// through the table's own commit_row with doubles stored verbatim,
  /// so paged and in-memory passes are bit-identical.  Inert in
  /// keep_tables passes (the extractor needs every table resident).
  std::string spill_dir;
  std::size_t spill_budget_bytes = 0;
};

/// One computed node pass, for kernel benchmarking (bench/micro_dp).
struct DpStageStats {
  int node = 0;
  int parent_size = 0;
  int active_size = 0;
  char kernel = '?';             ///< 'P'air, 'A'=single-active, 'S'=single-passive, 'G'eneral
  double seconds = 0.0;
  std::uint64_t candidates = 0;  ///< vertices iterated by the pass
  std::uint64_t survivors = 0;   ///< nonzero rows committed (frontier out)
  std::uint64_t macs = 0;        ///< multiply-accumulates performed (fast path)
};

/// Human-readable kernel name for a DpStageStats::kernel tag.
inline const char* dp_kernel_name(char kernel) noexcept {
  switch (kernel) {
    case 'P':
      return "pair";
    case 'A':
      return "single_active";
    case 'S':
      return "single_passive";
    case 'G':
      return "general";
  }
  return "unknown";
}

/// Merge per-pass engine stats into one report entry per node:
/// `passes` counts contributing colorings, the numeric columns
/// accumulate.  Node order is partition order — deterministic across
/// thread counts and modes.
inline void merge_stage_stats(const std::vector<DpStageStats>& stats,
                              const char* table_name,
                              std::vector<obs::ReportStage>* out) {
  for (const DpStageStats& stat : stats) {
    obs::ReportStage* slot = nullptr;
    for (obs::ReportStage& existing : *out) {
      if (existing.node == stat.node) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      out->emplace_back();
      slot = &out->back();
      slot->node = stat.node;
      slot->kernel = dp_kernel_name(stat.kernel);
      slot->table = table_name;
      slot->parent_size = stat.parent_size;
      slot->active_size = stat.active_size;
    }
    ++slot->passes;
    slot->seconds += stat.seconds;
    slot->candidates += static_cast<double>(stat.candidates);
    slot->survivors += static_cast<double>(stat.survivors);
    slot->macs += static_cast<double>(stat.macs);
  }
}

namespace detail {

/// Registry instruments for one computed stage pass (DESIGN.md §10).
/// Callers gate on obs::enabled(); the handles are interned once.
inline void record_stage_metrics(char kernel, double seconds,
                                 std::uint64_t survivors,
                                 std::int64_t num_vertices,
                                 std::size_t table_bytes) {
  using obs::InstrumentKind;
  using obs::Metric;
  static const Metric pair("dp.stage.pair", InstrumentKind::kCounter);
  static const Metric active("dp.stage.single_active",
                             InstrumentKind::kCounter);
  static const Metric passive("dp.stage.single_passive",
                              InstrumentKind::kCounter);
  static const Metric general("dp.stage.general", InstrumentKind::kCounter);
  static const Metric stage_seconds("dp.stage.seconds",
                                    InstrumentKind::kTimeHistogram);
  static const Metric occupancy("dp.frontier.occupancy",
                                InstrumentKind::kValueHistogram);
  static const Metric bytes("dp.table.bytes", InstrumentKind::kByteHistogram);
  switch (kernel) {
    case 'P':
      pair.add();
      break;
    case 'A':
      active.add();
      break;
    case 'S':
      passive.add();
      break;
    default:
      general.add();
      break;
  }
  stage_seconds.observe(seconds);
  if (num_vertices > 0) {
    occupancy.observe(static_cast<double>(survivors) /
                      static_cast<double>(num_vertices));
  }
  bytes.observe(static_cast<double>(table_bytes));
}

/// Counter of bytes written to out-of-core table pages (CI's smoke job
/// asserts it moves when a run is forced to spill).
inline void record_spilled_bytes(std::size_t bytes) {
  static const obs::Metric spilled("dp.table.spilled_bytes",
                                   obs::InstrumentKind::kCounter);
  spilled.add(static_cast<double>(bytes));
}

/// Process-unique tag so concurrent engine copies sharing one spill
/// directory never collide on page file names.
inline int next_spill_tag() noexcept {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

/// Tables without contiguous rows that can still reconstruct a dense
/// row from their packed nonzeros (succinct).  The kernels' sequential
/// read patterns decode or accumulate whole rows in O(nnz) instead of
/// paying a rank or binary search per get() probe.
template <class T>
concept DecodableRowTable = requires(const T& t, double* out) {
  t.decode_row(VertexId{0}, out);
  t.add_row_into(VertexId{0}, out);
};

/// Tables that can also enumerate a row's stored nonzeros in ascending
/// slot order.  Kernels with slot-sorted split lists merge-join
/// against the enumeration — O(nnz + m) per row, no dense decode.
template <class T>
concept SparseRowTable = requires(const T& t) {
  t.for_each_nonzero(VertexId{0}, [](ColorsetIndex, double) {});
};

template <class Table>
class DpEngine {
 public:
  /// The engine is independent of the originating template(s): leaf
  /// label filters travel inside the partition nodes (root_label), so
  /// a merged multi-template DAG (sched::plan_batch) runs unchanged.
  DpEngine(const Graph& graph, const PartitionTree& partition, int num_colors,
           DpEngineOptions options = {})
      : graph_(graph), partition_(partition), k_(num_colors),
        opts_(std::move(options)) {
    const int num_nodes = partition_.num_nodes();
    tables_.resize(static_cast<std::size_t>(num_nodes));
    frontiers_.resize(static_cast<std::size_t>(num_nodes));
    if (spill_enabled()) {
      spill_tag_ = detail::next_spill_tag();
      spilled_to_.resize(static_cast<std::size_t>(num_nodes));
      node_bytes_.assign(static_cast<std::size_t>(num_nodes), 0);
      consumers_.resize(static_cast<std::size_t>(num_nodes));
      for (int i = 0; i < num_nodes; ++i) {
        const Subtemplate& node = partition_.node(i);
        if (node.is_leaf()) continue;
        // Ascending by construction (children precede parents), so
        // next_use() can scan for the first entry past a stage.
        consumers_[static_cast<std::size_t>(node.active)].push_back(i);
        consumers_[static_cast<std::size_t>(node.passive)].push_back(i);
      }
    }
    single_splits_.resize(static_cast<std::size_t>(k_) + 1);
    node_single_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    node_general_.assign(static_cast<std::size_t>(num_nodes), nullptr);
    node_active_bound_.assign(static_cast<std::size_t>(num_nodes), 0);
    for (int i = 0; i < num_nodes; ++i) {
      const Subtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      const int h = node.size();
      const int a = partition_.node(node.active).size();
      if (a == 1 || h - a == 1) {
        if (h >= 2 && !single_splits_[static_cast<std::size_t>(h)]) {
          single_splits_[static_cast<std::size_t>(h)].emplace(k_, h);
        }
        node_single_[static_cast<std::size_t>(i)] =
            &*single_splits_[static_cast<std::size_t>(h)];
      }
      if (a > 1 && h - a > 1) {
        auto [it, inserted] =
            general_splits_.try_emplace(std::make_pair(h, a), k_, h, a);
        (void)inserted;
        node_general_[static_cast<std::size_t>(i)] = &it->second;
        // Nonzero active-row entries per vertex: only colorsets
        // containing color(v) can be nonzero, so at most C(k-1, a-1)
        // of the C(k, a) groups survive the hoist — and the MAC pairs
        // they own number C(k-1,a-1)·C(k-a,h-a) = C(k-1,h-1)·C(h-1,a-1),
        // the per-vertex work bound of §III-D.  Reserved once per
        // thread; no per-vertex reallocation.
        node_active_bound_[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(choose(k_ - 1, a - 1));
      }
    }
    if (graph_.has_labels() && opts_.label_frontiers == nullptr) {
      opts_.label_frontiers = LabelFrontiers::build(graph_);
    }
    // Pair-index matrix for the h == 2 kernel: index of {c1, c2}.
    pair_index_.assign(static_cast<std::size_t>(k_) * k_, 0);
    for (int c1 = 0; c1 < k_; ++c1) {
      for (int c2 = 0; c2 < k_; ++c2) {
        if (c1 == c2) continue;
        const int lo = std::min(c1, c2), hi = std::max(c1, c2);
        const std::array<int, 2> colors = {lo, hi};
        pair_index_[static_cast<std::size_t>(c1) * k_ + c2] =
            colorset_index(colors);
      }
    }
  }

  /// One bottom-up DP pass for a fixed coloring, filling the per-node
  /// tables.  When `needed` is non-null (size num_nodes) only flagged
  /// nodes are computed — the batch scheduler masks off stages no
  /// active job demands; the mask must be closed under children.
  /// Intermediate tables are freed on the free_after schedule unless
  /// keep_tables; nodes with free_after == -1 survive until
  /// release_all_tables() so callers can read them.
  void compute_tables(const ColorArray& colors, bool parallel_inner,
                      const std::vector<char>* needed = nullptr,
                      bool keep_tables = false) {
    release_all_tables();
    const int num_nodes = partition_.num_nodes();
    for (int i = 0; i < num_nodes; ++i) {
      // Cooperative stop (run/guard.hpp): polled between stage passes
      // so a deadline or budget trips within one node pass, not one
      // full iteration.  The aborted pass's tables are released; the
      // caller sees guard->stopped() and discards the iteration.
      if (guard_ != nullptr && guard_->poll()) {
        release_all_tables();
        return;
      }
      const Subtemplate& node = partition_.node(i);
      const bool wanted =
          needed == nullptr || (*needed)[static_cast<std::size_t>(i)] != 0;
      const bool paging = spill_enabled() && !keep_tables;
      if (!node.is_leaf() && wanted) {
        if (paging) {
          // Children computed earlier may have been paged out; the
          // kernels read them directly, so restore before the pass.
          ensure_resident(node.active);
          ensure_resident(node.passive);
        }
        compute_node(i, colors, parallel_inner);
        if (paging) {
          node_bytes_[static_cast<std::size_t>(i)] =
              tables_[static_cast<std::size_t>(i)]->bytes();
          resident_bytes_ += node_bytes_[static_cast<std::size_t>(i)];
        }
      }
      if (!keep_tables) {
        for (int j = 0; j < i; ++j) {
          if (partition_.node(j).free_after == i) free_node(j);
        }
        if (paging) evict_over_budget(i);
      }
    }
  }

  /// Colorful-embedding total of a computed non-leaf node's table
  /// (restoring it first if it was paged out).
  [[nodiscard]] double node_total(int node) {
    ensure_resident(node);
    return table_total(*tables_[static_cast<std::size_t>(node)]);
  }

  /// Count of graph vertices matching a leaf node's label filter — the
  /// DP base case a single-vertex template degenerates to.
  [[nodiscard]] double leaf_count(int node) const {
    const Subtemplate& leaf = partition_.node(node);
    double count = 0.0;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (leaf_matches(leaf, v)) count += 1.0;
    }
    return count;
  }

  /// Adds a computed node's per-vertex totals into `out` (size n): its
  /// table's row sums, or 1 per label-matching vertex for a leaf.
  void add_vertex_totals(int node, std::vector<double>& out) {
    const Subtemplate& sub = partition_.node(node);
    if (sub.is_leaf()) {
      for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        if (leaf_matches(sub, v)) out[static_cast<std::size_t>(v)] += 1.0;
      }
      return;
    }
    ensure_resident(node);
    const Table& table = *tables_[static_cast<std::size_t>(node)];
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      out[static_cast<std::size_t>(v)] += table.vertex_total(v);
    }
  }

  /// One full bottom-up DP pass for a fixed coloring; returns the sum
  /// over the root table (Alg. 2 line 20); a single-vertex template
  /// counts its label-matching vertices.
  double run(const ColorArray& colors, bool parallel_inner,
             bool keep_tables = false) {
    compute_tables(colors, parallel_inner, nullptr, keep_tables);
    if (guard_ != nullptr && guard_->stopped()) return 0.0;
    const int root = partition_.root_node();
    if (partition_.node(root).is_leaf()) return leaf_count(root);
    const double total = node_total(root);
    if (!keep_tables) release_all_tables();
    return total;
  }

  /// Table for a node (nullptr for leaves or freed nodes); valid after
  /// run(..., keep_tables = true).
  [[nodiscard]] const Table* table(int node) const noexcept {
    return tables_[static_cast<std::size_t>(node)].get();
  }

  /// Retained DP state of one coloring's pass (every non-leaf table
  /// plus its frontier), kept per iteration by the driver's retained
  /// runs (sched/driver.hpp) between delta passes.
  struct Retained {
    std::vector<std::unique_ptr<Table>> tables;
    std::vector<std::vector<VertexId>> frontiers;
  };

  /// Per-pass work accounting for the delta path (aggregated across
  /// iterations into CountResult::delta).
  struct DeltaPassStats {
    std::uint64_t rows_recomputed = 0;
    std::uint64_t rows_copied = 0;
    int stages_recomputed = 0;
  };

  /// Moves the current tables/frontiers out (leaving empty slots);
  /// valid after a keep_tables pass or run_delta().
  [[nodiscard]] Retained take_retained() {
    Retained out;
    out.tables = std::move(tables_);
    out.frontiers = std::move(frontiers_);
    tables_.clear();
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    frontiers_.assign(static_cast<std::size_t>(partition_.num_nodes()),
                      std::vector<VertexId>());
    return out;
  }

  /// Installs previously taken retained state.  The state must come
  /// from an engine over the same partition and table layout.
  void adopt_retained(Retained&& retained) {
    release_all_tables();
    tables_ = std::move(retained.tables);
    frontiers_ = std::move(retained.frontiers);
    tables_.resize(static_cast<std::size_t>(partition_.num_nodes()));
    frontiers_.resize(static_cast<std::size_t>(partition_.num_nodes()));
  }

  /// Incremental recount after a graph delta — the engine half of the
  /// delta path.  Preconditions: spill disabled, reference_kernels
  /// off, graph_ is the POST-delta graph, and tables_/frontiers_ hold
  /// the retained state of this configuration's previous pass over the
  /// PRE-delta graph under the SAME coloring (adopt_retained).
  ///
  /// Each non-leaf stage of size h is recomputed restricted to the
  /// dirty ball of radius h-1 (leaf tables depend only on colors and
  /// are never materialized).  Rows outside the ball are preserved by
  /// one of two routes: patchable layouts (CompactTable) keep the
  /// RETAINED table and overwrite only the ball rows in place, so the
  /// pass never touches the O(n) clean region; the other layouts copy
  /// every clean row verbatim into the fresh table (run/spill.hpp's
  /// decode -> commit_row round trip, proven bit-exact).  The
  /// resulting tables and frontiers are bit-identical to a full
  /// keep_tables pass on the new graph either way; callers read totals
  /// through node_total() as after compute_tables().
  void run_delta(const ColorArray& colors, bool parallel_inner,
                 const DirtyBalls& dirty,
                 DeltaPassStats* delta_stats = nullptr) {
    const int num_nodes = partition_.num_nodes();
    std::vector<std::unique_ptr<Table>> old_tables = std::move(tables_);
    std::vector<std::vector<VertexId>> old_frontiers = std::move(frontiers_);
    old_tables.resize(static_cast<std::size_t>(num_nodes));
    old_frontiers.resize(static_cast<std::size_t>(num_nodes));
    tables_.clear();
    tables_.resize(static_cast<std::size_t>(num_nodes));
    frontiers_.assign(static_cast<std::size_t>(num_nodes),
                      std::vector<VertexId>());

    std::vector<VertexId> restricted;  // ball ∩ new active frontier (S/G)
    std::vector<VertexId> clean;       // retained rows kept verbatim
    std::vector<double> rowbuf;
    for (int i = 0; i < num_nodes; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Subtemplate& node = partition_.node(i);
      if (node.is_leaf()) continue;
      const int h = node.size();
      const std::vector<VertexId>& ball = dirty.at(h - 1);
      if (ball.empty() && old_tables[idx] != nullptr) {
        // Empty delta: nothing inside any ball, the retained stage is
        // the new stage.
        tables_[idx] = std::move(old_tables[idx]);
        frontiers_[idx] = std::move(old_frontiers[idx]);
        continue;
      }
      // Pair / single-active stages draw candidates from a leaf
      // frontier (or all vertices): the ball stands in directly, with
      // the leaf label filter re-applied per vertex.  Single-passive /
      // general stages draw from the active child's (already rebuilt)
      // frontier: restrict to the intersection so the survivor set
      // matches a full pass exactly — dense tables would otherwise
      // commit spurious zero rows for ball vertices off the frontier.
      const int a = partition_.node(node.active).size();
      if (h == 2 || a == 1) {
        delta_restrict_ = &ball;
      } else {
        const std::vector<VertexId>& af =
            frontiers_[static_cast<std::size_t>(node.active)];
        restricted.clear();
        for (const VertexId v : ball) {
          if (std::binary_search(af.begin(), af.end(), v)) {
            restricted.push_back(v);
          }
        }
        delta_restrict_ = &restricted;
      }
      compute_node(i, colors, parallel_inner);
      delta_restrict_ = nullptr;

      std::vector<VertexId>& fresh_frontier = frontiers_[idx];
      if (delta_stats != nullptr) {
        ++delta_stats->stages_recomputed;
        delta_stats->rows_recomputed += fresh_frontier.size();
      }
      // Preserve the clean rows: every retained-frontier vertex
      // outside the ball kept its row (the dirty-ball bound).  The
      // retained frontier entries are kept even when rowless (zero-row
      // carry-overs, see kernel_single_passive) — a full pass keeps
      // them too.
      Table* old = old_tables[idx].get();
      const std::vector<VertexId>& old_frontier = old_frontiers[idx];
      clean.clear();
      if constexpr (Table::kPatchableRows) {
        if (old != nullptr) {
          // Patch route: the RETAINED table stays; only ball rows are
          // rewritten from the freshly computed dirty stage (or
          // cleared, for ball vertices a full pass would not commit —
          // off the new frontier or recomputed to all-zero).  Clean
          // rows are physically untouched, so the pass costs O(ball),
          // not O(n).
          const Table& fresh = *tables_[idx];
          const std::uint32_t width = fresh.num_colorsets();
          for (const VertexId v : ball) {
            const double* prow = fresh.row_ptr(v);
            if (prow != nullptr) {
              old->patch_row(v, std::span<const double>(prow, width));
            } else {
              old->clear_row(v);
            }
          }
          for (const VertexId v : old_frontier) {
            if (!dirty.dirty(v, h - 1)) clean.push_back(v);
          }
          if (delta_stats != nullptr) {
            delta_stats->rows_copied += clean.size();
          }
          tables_[idx] = std::move(old_tables[idx]);
        }
      } else if (old != nullptr) {
        // Copy route: splice every clean row verbatim into the fresh
        // table.
        Table& fresh = *tables_[idx];
        const std::uint32_t width = fresh.num_colorsets();
        rowbuf.resize(width);
        for (const VertexId v : old_frontier) {
          if (dirty.dirty(v, h - 1)) continue;
          clean.push_back(v);
          if constexpr (Table::kContiguousRows) {
            const double* prow = old->row_ptr(v);
            if (prow == nullptr) continue;
            std::copy(prow, prow + width, rowbuf.begin());
          } else if constexpr (DecodableRowTable<Table>) {
            if (!old->has_vertex(v)) continue;
            old->decode_row(v, rowbuf.data());
          } else {
            if (!old->has_vertex(v)) continue;
            for (std::uint32_t c = 0; c < width; ++c) {
              rowbuf[static_cast<std::size_t>(c)] = old->get(v, c);
            }
          }
          fresh.commit_row(v, rowbuf);
          if (delta_stats != nullptr) ++delta_stats->rows_copied;
        }
      }
      if (!clean.empty()) {
        std::vector<VertexId> merged(clean.size() + fresh_frontier.size());
        std::merge(clean.begin(), clean.end(), fresh_frontier.begin(),
                   fresh_frontier.end(), merged.begin());
        fresh_frontier = std::move(merged);
      }
      // The retained stage is fully absorbed (or adopted): drop any
      // leftover now to bound the transient peak at one duplicated
      // stage.
      old_tables[idx].reset();
      std::vector<VertexId>().swap(old_frontiers[idx]);
    }
  }

  [[nodiscard]] const PartitionTree& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

  /// Attaches a cooperative stop condition; nullptr detaches.  The
  /// guard must outlive every subsequent compute_tables()/run() call.
  void set_guard(const RunGuard* guard) noexcept { guard_ = guard; }

  /// Per-node-pass kernel measurements, appended across compute calls
  /// while DpEngineOptions::collect_stats is set.
  [[nodiscard]] const std::vector<DpStageStats>& stage_stats()
      const noexcept {
    return stats_;
  }
  void clear_stage_stats() noexcept { stats_.clear(); }

  void release_all_tables() noexcept {
    for (int j = 0; j < static_cast<int>(tables_.size()); ++j) free_node(j);
  }

  /// Out-of-core paging activity since construction: bytes of table
  /// pages written to spill_dir and the number of page-out events.
  /// Always 0 when the spill knobs are unset.
  [[nodiscard]] std::size_t spilled_bytes() const noexcept {
    return spilled_bytes_;
  }
  [[nodiscard]] int spill_events() const noexcept { return spill_events_; }

  ~DpEngine() { release_all_tables(); }  // drops any leftover page files
  DpEngine(DpEngine&&) noexcept = default;
  DpEngine(const DpEngine&) = delete;
  DpEngine& operator=(const DpEngine&) = delete;
  DpEngine& operator=(DpEngine&&) = delete;

 private:
  /// Leaf base case (Alg. 2 line 4) with the labeled-mode filter: a
  /// single-vertex subtemplate matches graph vertex v iff labels agree
  /// (§V-A).  The label is carried by the partition node so the engine
  /// needs no back-reference to the originating template.
  [[nodiscard]] bool leaf_matches(const Subtemplate& leaf,
                                  VertexId v) const noexcept {
    if (leaf.root_label < 0 || !graph_.has_labels()) return true;
    return leaf.root_label == static_cast<int>(graph_.label(v));
  }

  /// Vertex list a leaf subtemplate restricts the DP to: the label's
  /// frontier when the leaf is labeled, nullptr (= all vertices) when
  /// unlabeled.
  [[nodiscard]] const std::vector<VertexId>* leaf_frontier(
      const Subtemplate& leaf) const noexcept {
    if (leaf.root_label < 0 || !graph_.has_labels() ||
        opts_.label_frontiers == nullptr) {
      return nullptr;
    }
    const auto label = static_cast<std::size_t>(leaf.root_label);
    if (label >= opts_.label_frontiers->by_label.size()) return nullptr;
    return &opts_.label_frontiers->by_label[label];
  }

  void release_frontier(int node) noexcept {
    std::vector<VertexId>().swap(frontiers_[static_cast<std::size_t>(node)]);
  }

  // ---- out-of-core paging (run/spill.hpp) -------------------------------

  [[nodiscard]] bool spill_enabled() const noexcept {
    return !opts_.spill_dir.empty() && opts_.spill_budget_bytes > 0;
  }

  [[nodiscard]] std::string spill_path(int node) const {
    std::string path = opts_.spill_dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += "fascia_spill_e" + std::to_string(spill_tag_) + "_n" +
            std::to_string(node) + ".tbl";
    return path;
  }

  /// Restores a paged-out node's table; no-op when resident (or when
  /// paging is off — spilled_to_ is then empty).  The page file is
  /// consumed; a later eviction rewrites it.  The frontier was never
  /// released, so the restored node is indistinguishable from one that
  /// stayed resident.
  void ensure_resident(int node) {
    const auto idx = static_cast<std::size_t>(node);
    if (idx >= spilled_to_.size() || spilled_to_[idx].empty()) return;
    FASCIA_TRACE("dp.page_in", node);
    tables_[idx] = run::restore_table<Table>(spilled_to_[idx],
                                             graph_.num_vertices(), nullptr);
    std::remove(spilled_to_[idx].c_str());
    spilled_to_[idx].clear();
    node_bytes_[idx] = tables_[idx]->bytes();
    resident_bytes_ += node_bytes_[idx];
  }

  /// Frees a node's table wherever it lives — resident memory or a
  /// spill page — and its frontier.  The one release path, so byte
  /// accounting and page files can never leak apart.
  void free_node(int node) noexcept {
    const auto idx = static_cast<std::size_t>(node);
    if (idx < spilled_to_.size() && !spilled_to_[idx].empty()) {
      std::remove(spilled_to_[idx].c_str());
      spilled_to_[idx].clear();
    }
    if (idx < node_bytes_.size()) {
      resident_bytes_ -= node_bytes_[idx];
      node_bytes_[idx] = 0;
    }
    tables_[idx].reset();
    release_frontier(node);
  }

  /// First stage after `current` that reads `node`'s table;
  /// num_nodes when none does (the ideal eviction victim).
  [[nodiscard]] int next_use(int node, int current) const noexcept {
    for (const int c : consumers_[static_cast<std::size_t>(node)]) {
      if (c > current) return c;
    }
    return partition_.num_nodes();
  }

  /// Belady eviction after stage `current`: page out the resident
  /// table with the farthest next consuming stage until the resident
  /// set fits the budget (or nothing is left to evict — the active
  /// triple alone may exceed the budget, which the planner's
  /// working-set estimate already surfaced).
  void evict_over_budget(int current) {
    while (resident_bytes_ > opts_.spill_budget_bytes) {
      int victim = -1;
      int victim_use = -1;
      for (int j = 0; j <= current; ++j) {
        if (tables_[static_cast<std::size_t>(j)] == nullptr) continue;
        const int use = next_use(j, current);
        if (use > victim_use) {
          victim_use = use;
          victim = j;
        }
      }
      if (victim < 0) break;
      page_out(victim);
    }
  }

  void page_out(int node) {
    const auto idx = static_cast<std::size_t>(node);
    FASCIA_TRACE("dp.page_out", node);
    std::string path = spill_path(node);
    const std::size_t written = run::spill_table(
        path, *tables_[idx], frontiers_[idx], graph_.num_vertices());
    spilled_to_[idx] = std::move(path);
    spilled_bytes_ += written;
    ++spill_events_;
    resident_bytes_ -= node_bytes_[idx];
    node_bytes_[idx] = 0;
    tables_[idx].reset();  // frontier stays — restores reuse it
    if (obs::enabled()) detail::record_spilled_bytes(written);
  }

  /// Threads the inner-parallel sweep will use (and therefore the
  /// first-touch zeroing partition that must match it).
  [[nodiscard]] int effective_inner_threads() const noexcept {
#ifdef _OPENMP
    return opts_.inner_threads > 0 ? opts_.inner_threads
                                   : omp_get_max_threads();
#else
    return 1;
#endif
  }

  void compute_node(int index, const ColorArray& colors, bool parallel) {
    const Subtemplate& node = partition_.node(index);
    const int h = node.size();
    const auto num_sets = num_colorsets(k_, h);
    // First-touch: zero the table with the same thread partition the
    // parallel sweep below uses (count_table.hpp TableInit).
    const TableInit init{parallel ? effective_inner_threads() : 1};
    auto table = std::make_unique<Table>(graph_.num_vertices(), num_sets, init);

    const Subtemplate& active = partition_.node(node.active);
    const Subtemplate& passive = partition_.node(node.passive);
    const int a = active.size();
    const int p = passive.size();

    DpStageStats stat;
    stat.node = index;
    stat.parent_size = h;
    stat.active_size = a;
    stat.kernel = h == 2 ? 'P' : a == 1 ? 'A' : p == 1 ? 'S' : 'G';
    const bool obs_on = obs::enabled();
    WallClock clock(opts_.collect_stats || obs_on);
    // Span detail carries what the fixed args cannot: the table layout
    // and the stage shape.  Built only when tracing is live.
    char span_detail[obs::TraceEvent::kDetailCapacity];
    span_detail[0] = '\0';
    if (obs_on) {
      std::snprintf(span_detail, sizeof(span_detail), "%s %s h=%d a=%d t=%d",
                    dp_kernel_name(stat.kernel), Table::kName, h, a,
                    parallel ? effective_inner_threads() : 1);
    }
    FASCIA_TRACE("dp.stage", index, static_cast<unsigned char>(stat.kernel),
                 span_detail);

    std::vector<VertexId>& frontier_out =
        frontiers_[static_cast<std::size_t>(index)];
    frontier_out.clear();
    std::vector<VertexId>* frontier_sink =
        opts_.reference_kernels ? nullptr : &frontier_out;

    if (h == 2) {
      if (opts_.reference_kernels) {
        kernel_pair_reference(*table, node, colors, parallel);
      } else {
        kernel_pair(*table, node, colors, parallel, frontier_sink, stat);
      }
    } else if (a == 1) {
      if (opts_.reference_kernels) {
        kernel_single_active_reference(*table, node, colors, parallel);
      } else {
        kernel_single_active(*table, index, node, colors, parallel,
                             frontier_sink, stat);
      }
    } else if (p == 1) {
      if (opts_.reference_kernels) {
        kernel_single_passive_reference(*table, node, colors, parallel);
      } else {
        kernel_single_passive(*table, index, node, colors, parallel,
                              frontier_sink, stat);
      }
    } else {
      if (opts_.reference_kernels) {
        kernel_general_reference(*table, node, colors, parallel);
      } else {
        kernel_general(*table, index, node, colors, parallel, frontier_sink,
                       stat);
      }
    }
    // MemTracker::current() is an O(1) atomic read covering every live
    // table; Table::bytes() can be an O(n) row scan (compact), far too
    // slow to pay per stage just for a metric sample.
    const std::size_t table_bytes = obs_on ? MemTracker::current() : 0;
    tables_[static_cast<std::size_t>(index)] = std::move(table);
    if (opts_.reference_kernels) {
      stat.candidates = static_cast<std::uint64_t>(graph_.num_vertices());
    }
    stat.survivors = static_cast<std::uint64_t>(frontier_out.size());
    if (obs_on) {
      detail::record_stage_metrics(stat.kernel, clock.elapsed_s(),
                                   stat.survivors, graph_.num_vertices(),
                                   table_bytes);
    }
    if (opts_.collect_stats) {
      stat.seconds = clock.elapsed_s();
      stats_.push_back(stat);
    }
  }

  // ---- shared kernel plumbing -------------------------------------------

  /// Minimal timer that only reads the clock when enabled (the stats
  /// path); avoids pulling util/timer.hpp into this header's hot path.
  class WallClock {
   public:
    explicit WallClock(bool enabled) {
      if (enabled) start_ = now();
    }
    [[nodiscard]] double elapsed_s() const { return now() - start_; }

   private:
    static double now() {
#ifdef _OPENMP
      return omp_get_wtime();
#else
      return static_cast<double>(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now()
                                         .time_since_epoch())
                                     .count()) *
             1e-9;
#endif
    }
    double start_ = 0.0;
  };

  /// Per-thread scratch for one kernel pass.
  struct Workspace {
    std::vector<double> row;   ///< count per parent colorset, for one v
    std::vector<double> psum;  ///< passive-row accumulator / color counts
    std::vector<double> gather;  ///< row materialized via get() (hash)
    /// Hoisted nonzero active-row colorset indices (general kernel).
    std::vector<ColorsetIndex> nz_active;
    std::vector<VertexId> survivors;  ///< vertices that committed a row
    std::uint64_t macs = 0;           ///< multiply-accumulate tally
  };

  /// Candidate set of one kernel pass: an explicit frontier, or all n
  /// vertices when null.
  struct FrontierView {
    const std::vector<VertexId>* list;
    VertexId n;
    [[nodiscard]] std::size_t size() const noexcept {
      return list != nullptr ? list->size() : static_cast<std::size_t>(n);
    }
    [[nodiscard]] VertexId operator[](std::size_t i) const noexcept {
      return list != nullptr ? (*list)[i] : static_cast<VertexId>(i);
    }
  };

  /// Software-prefetch distances for neighbor-row gathers.  The slot
  /// (per-vertex indirection cell) is hinted far ahead — it must be
  /// resident before the row hint can chase the pointer it holds — and
  /// the row data close ahead, matching the per-neighbor work of one
  /// row's multiply-accumulate.
  static constexpr std::size_t kPrefetchSlotAhead = 8;
  static constexpr std::size_t kPrefetchRowAhead = 2;

  /// Dynamic-scheduling grain derived from the candidate count: aim
  /// for ~8 chunks per thread so a small frontier is not serialized
  /// behind per-chunk scheduling overhead, capped at the legacy 64.
  [[nodiscard]] static int dynamic_chunk(std::size_t count,
                                         int threads) noexcept {
    const std::size_t per =
        count / (static_cast<std::size_t>(threads) * 8 + 1);
    return static_cast<int>(std::clamp<std::size_t>(per, 1, 64));
  }

  /// Runs `body(v, ws)` over the candidate set (optionally
  /// OpenMP-parallel); a body returning true means "committed a row",
  /// and those vertices become the node's frontier (sorted ascending —
  /// commit-layer filtering keeps zero rows out of the tables, so a
  /// frontier vertex without a stored row is read as zeros
  /// downstream).  Workspace buffers are sized once per thread.
  template <class Body>
  void for_frontier(bool parallel, const FrontierView& front,
                    std::uint32_t row_width, std::uint32_t psum_width,
                    std::size_t active_bound,
                    std::vector<VertexId>* frontier_out, DpStageStats& stat,
                    Body&& body) {
    const std::size_t count = front.size();
    stat.candidates = count;
    const auto prepare = [&](Workspace& ws) {
      ws.row.resize(row_width);
      ws.psum.resize(psum_width);
      if (active_bound > 0) ws.nz_active.reserve(active_bound);
      ws.survivors.clear();
      ws.macs = 0;
    };
#ifdef _OPENMP
    if (parallel && count > 0) {
      const int threads = effective_inner_threads();
      const int chunk = dynamic_chunk(count, threads);
      // Workspaces persist across stage passes and iterations: the
      // row/psum/nz buffers keep their capacity, so the steady state
      // allocates nothing per stage.
      if (workspaces_.size() < static_cast<std::size_t>(threads)) {
        workspaces_.resize(static_cast<std::size_t>(threads));
      }
#pragma omp parallel num_threads(threads)
      {
        Workspace& ws =
            workspaces_[static_cast<std::size_t>(omp_get_thread_num())];
        prepare(ws);
#pragma omp for schedule(dynamic, chunk)
        for (std::size_t i = 0; i < count; ++i) {
          const VertexId v = front[i];
          if (body(v, ws)) ws.survivors.push_back(v);
        }
#pragma omp critical(fascia_frontier_merge)
        {
          if (frontier_out != nullptr) {
            frontier_out->insert(frontier_out->end(), ws.survivors.begin(),
                                 ws.survivors.end());
          }
          stat.macs += ws.macs;
        }
      }
      if (frontier_out != nullptr) {
        std::sort(frontier_out->begin(), frontier_out->end());
      }
      return;
    }
#endif
    if (workspaces_.empty()) workspaces_.resize(1);
    Workspace& ws = workspaces_.front();
    prepare(ws);
    for (std::size_t i = 0; i < count; ++i) {
      const VertexId v = front[i];
      if (body(v, ws)) ws.survivors.push_back(v);
    }
    if (frontier_out != nullptr) *frontier_out = ws.survivors;
    stat.macs += ws.macs;
  }

  // ---- vectorized kernels (the default path) ----------------------------
  // Each iterates the stage's frontier, fills a thread-private row of
  // C(k,h) counts for vertex v over borrowed contiguous child rows,
  // and commits it when nonzero.  All accumulations reassociate sums
  // of exact integer counts, so results match the reference kernels
  // bit for bit (header comment).

  void kernel_pair(Table& out, const Subtemplate& node,
                   const ColorArray& colors, bool parallel,
                   std::vector<VertexId>* frontier_out, DpStageStats& stat) {
    const Subtemplate& active = partition_.node(node.active);
    const Subtemplate& passive = partition_.node(node.passive);
    const std::vector<VertexId>* candidates =
        delta_restrict_ != nullptr ? delta_restrict_ : leaf_frontier(active);
    const bool check_active =
        delta_restrict_ != nullptr || candidates == nullptr;
    for_frontier(
        parallel, {candidates, graph_.num_vertices()}, out.num_colorsets(),
        static_cast<std::uint32_t>(k_), 0, frontier_out, stat,
        [&](VertexId v, Workspace& ws) {
          if (check_active && !leaf_matches(active, v)) return false;
          const int cv = colors[static_cast<std::size_t>(v)];
          // Fold the neighbor walk into per-color counts first: the
          // row scatter then costs k adds instead of deg(v).
          auto& cnt = ws.psum;
          std::fill(cnt.begin(), cnt.end(), 0.0);
          for (VertexId u : graph_.neighbors(v)) {
            if (!leaf_matches(passive, u)) continue;
            cnt[colors[static_cast<std::size_t>(u)]] += 1.0;
          }
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          bool any = false;
          for (int c = 0; c < k_; ++c) {
            if (c == cv || cnt[static_cast<std::size_t>(c)] == 0.0) continue;
            row[pair_index_[static_cast<std::size_t>(cv) * k_ + c]] +=
                cnt[static_cast<std::size_t>(c)];
            any = true;
          }
          if (!any) return false;
          out.commit_row(v, row);
          ws.macs += graph_.neighbors(v).size() + static_cast<std::size_t>(k_);
          return true;
        });
  }

  void kernel_single_active(Table& out, int index, const Subtemplate& node,
                            const ColorArray& colors, bool parallel,
                            std::vector<VertexId>* frontier_out,
                            DpStageStats& stat) {
    const Subtemplate& active = partition_.node(node.active);
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const SingleActiveSplit& split =
        *node_single_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>* candidates =
        delta_restrict_ != nullptr ? delta_restrict_ : leaf_frontier(active);
    const bool check_active =
        delta_restrict_ != nullptr || candidates == nullptr;
    for_frontier(
        parallel, {candidates, graph_.num_vertices()}, out.num_colorsets(),
        0, 0, frontier_out, stat, [&](VertexId v, Workspace& ws) {
          if (check_active && !leaf_matches(active, v)) return false;
          const int cv = colors[static_cast<std::size_t>(v)];
          const auto passives = split.passives(cv);
          const auto parents = split.parents(cv);
          const std::size_t m = passives.size();
          const ColorsetIndex* pas = passives.data();
          const ColorsetIndex* par = parents.data();
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          std::size_t nu = 0;
          const auto neighbors = graph_.neighbors(v);
          const VertexId* nbr = neighbors.data();
          const std::size_t deg = neighbors.size();
          if constexpr (!Table::kContiguousRows &&
                        DecodableRowTable<Table>) {
            ws.psum.resize(tp.num_colorsets());
            std::fill(ws.psum.begin(), ws.psum.end(), 0.0);
          }
          for (std::size_t j = 0; j < deg; ++j) {
            if constexpr (Table::kContiguousRows) {
              if (j + kPrefetchSlotAhead < deg) {
                tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
              }
              if (j + kPrefetchRowAhead < deg) {
                tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
              }
            }
            const VertexId u = nbr[j];
            if constexpr (Table::kContiguousRows) {
              const double* prow = tp.row_ptr(u);
              if (prow == nullptr) continue;
              ++nu;
              // Parents within one color are all distinct, so the
              // scatter has no intra-loop conflicts; the passive reads
              // are a monotone gather over one contiguous row.
#ifdef _OPENMP
#pragma omp simd
#endif
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += prow[pas[s]];
              }
            } else if constexpr (DecodableRowTable<Table>) {
              if (!tp.has_vertex(u)) continue;
              ++nu;
              // Fold the neighbor rows first — O(nnz) adds into a
              // dense partial-sum row — and apply the split list once
              // per vertex after the loop, not once per neighbor.
              tp.add_row_into(u, ws.psum.data());
            } else {
              if (!tp.has_vertex(u)) continue;
              ++nu;
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += tp.get(u, pas[s]);
              }
            }
          }
          if (nu == 0) return false;
          if constexpr (!Table::kContiguousRows &&
                        DecodableRowTable<Table>) {
            const double* ps = ws.psum.data();
#ifdef _OPENMP
#pragma omp simd
#endif
            for (std::size_t s = 0; s < m; ++s) {
              r[par[s]] += ps[pas[s]];
            }
          }
          out.commit_row(v, row);
          ws.macs += nu * m;
          return true;
        });
  }

  void kernel_single_passive(Table& out, int index, const Subtemplate& node,
                             const ColorArray& colors, bool parallel,
                             std::vector<VertexId>* frontier_out,
                             DpStageStats& stat) {
    const Subtemplate& passive = partition_.node(node.passive);
    const Table& ta = *tables_[static_cast<std::size_t>(node.active)];
    const SingleActiveSplit& split =
        *node_single_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>& active_frontier =
        delta_restrict_ != nullptr
            ? *delta_restrict_
            : frontiers_[static_cast<std::size_t>(node.active)];
    for_frontier(
        parallel, {&active_frontier, graph_.num_vertices()},
        out.num_colorsets(), static_cast<std::uint32_t>(k_), 0, frontier_out,
        stat, [&](VertexId v, Workspace& ws) {
          if constexpr (!Table::kContiguousRows) {
            // The frontier can carry vertices whose committed row was
            // all zero (commit-layer filtering stores nothing): drop
            // them here, mirroring the contiguous path's null
            // row_ptr check below — otherwise they do a full split
            // pass over zeros and survive every later stage.
            if (!ta.has_vertex(v)) return false;
          }
          // Matching neighbors only contribute through their color, so
          // count them per color and apply each color's split list
          // once, scaled — deg(v)·C(k-1,h-1) adds become
          // deg(v) + k·C(k-1,h-1).
          auto& cnt = ws.psum;
          std::fill(cnt.begin(), cnt.end(), 0.0);
          std::size_t nu = 0;
          for (VertexId u : graph_.neighbors(v)) {
            if (!leaf_matches(passive, u)) continue;
            cnt[colors[static_cast<std::size_t>(u)]] += 1.0;
            ++nu;
          }
          if (nu == 0) return false;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          const double* arow = nullptr;
          if constexpr (Table::kContiguousRows) {
            arow = ta.row_ptr(v);
            if (arow == nullptr) return false;  // frontier guarantees rows
          } else if constexpr (DecodableRowTable<Table>) {
            // v's row feeds every color's split list: reconstruct it
            // once, then run the contiguous gather below.
            ws.gather.resize(ta.num_colorsets());
            ta.decode_row(v, ws.gather.data());
            arow = ws.gather.data();
          }
          for (int c = 0; c < k_; ++c) {
            const double scale = cnt[static_cast<std::size_t>(c)];
            if (scale == 0.0) continue;
            const auto passives = split.passives(c);
            const auto parents = split.parents(c);
            const std::size_t m = passives.size();
            const ColorsetIndex* pas = passives.data();
            const ColorsetIndex* par = parents.data();
            if constexpr (Table::kContiguousRows ||
                          DecodableRowTable<Table>) {
              // entry.passive indexes the parent set minus the
              // neighbor's color — exactly the active child's colorset.
#ifdef _OPENMP
#pragma omp simd
#endif
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += scale * arow[pas[s]];
              }
            } else {
              for (std::size_t s = 0; s < m; ++s) {
                r[par[s]] += scale * ta.get(v, pas[s]);
              }
            }
            ws.macs += m;
          }
          out.commit_row(v, row);
          ws.macs += graph_.neighbors(v).size();
          return true;
        });
  }

  void kernel_general(Table& out, int index, const Subtemplate& node,
                      const ColorArray& colors, bool parallel,
                      std::vector<VertexId>* frontier_out,
                      DpStageStats& stat) {
    (void)colors;  // colors only matter at the leaves
    const Table& ta = *tables_[static_cast<std::size_t>(node.active)];
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const SplitTable& split =
        *node_general_[static_cast<std::size_t>(index)];
    const std::vector<VertexId>& active_frontier =
        delta_restrict_ != nullptr
            ? *delta_restrict_
            : frontiers_[static_cast<std::size_t>(node.active)];
    const std::uint32_t num_actives = split.num_actives();
    const std::uint32_t per_active = split.per_active();
    const std::uint32_t passive_width = tp.num_colorsets();
    const std::uint32_t num_parents = out.num_colorsets();
    const std::uint32_t per_parent = split.splits_per_parent();
    const ColorsetIndex* all_act = split.all_actives().data();
    const ColorsetIndex* all_pas = split.all_passives().data();
    const std::size_t flat_size = split.flat_size();
    const std::size_t active_bound =
        node_active_bound_[static_cast<std::size_t>(index)];
    for_frontier(
        parallel, {&active_frontier, graph_.num_vertices()},
        num_parents, passive_width, active_bound, frontier_out, stat,
        [&](VertexId v, Workspace& ws) {
          // The active side depends only on v: hoist the nonzero
          // colorsets of v's borrowed active row by scanning its
          // C(k,a) entries (vs the C(k,h)·C(h,a) split slots the
          // reference kernel probes).  Each survivor A owns a
          // fixed-width (parent, passive) span in the active-grouped
          // split arrays: passives ascend (monotone gather) and
          // parents are distinct (conflict-free scatter).
          const double* arow;
          if constexpr (Table::kContiguousRows) {
            arow = ta.row_ptr(v);
            if (arow == nullptr) return false;  // frontier guarantees rows
          } else {
            // Zero-row frontier carry-overs (see kernel_single_passive)
            // decode to all zeros: drop them before paying the gather.
            if (!ta.has_vertex(v)) return false;
            ws.gather.resize(num_actives);
            if constexpr (DecodableRowTable<Table>) {
              ta.decode_row(v, ws.gather.data());
            } else {
              for (std::uint32_t idx = 0; idx < num_actives; ++idx) {
                ws.gather[idx] = ta.get(v, idx);
              }
            }
            arow = ws.gather.data();
          }
          auto& nz = ws.nz_active;
          nz.clear();
          for (std::uint32_t idx = 0; idx < num_actives; ++idx) {
            if (arow[idx] != 0.0) nz.push_back(idx);
          }
          if (nz.empty()) return false;
          const std::size_t num_entries = nz.size() * per_active;

          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          double* r = row.data();
          const auto neighbors = graph_.neighbors(v);
          std::size_t nu = 0;
          // The hoisted active values are neighbor-independent, so
          // when the per-neighbor entry work outweighs one passive
          // row, fold the neighbor rows into one partial-sum row
          // first (contiguous simd adds for borrowed rows, one gather
          // per colorset for hash tables), then apply the split once
          // per vertex as a parent-major dot-product sweep:
          // sequential index reads, no scatter, no branches.  Zero
          // active values contribute exact zero terms (the DP values
          // are integers in doubles), so the sweep needs no filtering
          // and the committed sums are unchanged.  For borrowed rows
          // the crossover weighs the direct path's scattered
          // multiply-accumulates (~3x a contiguous add) against the
          // fold adds plus the full sweep; hash rows pay a hashed
          // probe per folded slot, so they fold only when that is
          // strictly fewer probes than the direct path issues.
          const std::size_t deg = neighbors.size();
          bool fold_neighbors;
          if constexpr (Table::kContiguousRows || DecodableRowTable<Table>) {
            // Decodable rows fold at contiguous cost: add_row_into
            // touches only the stored nonzeros.
            fold_neighbors = deg >= 2 && 3 * deg * num_entries >=
                                             deg * passive_width +
                                                 2 * flat_size;
          } else {
            fold_neighbors = deg >= 2 && num_entries >= passive_width;
          }
          const VertexId* nbr = neighbors.data();
          if (fold_neighbors) {
            auto& psum = ws.psum;
            std::fill(psum.begin(), psum.end(), 0.0);
            double* ps = psum.data();
            for (std::size_t j = 0; j < deg; ++j) {
              if constexpr (Table::kContiguousRows) {
                if (j + kPrefetchSlotAhead < deg) {
                  tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
                }
                if (j + kPrefetchRowAhead < deg) {
                  tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
                }
              }
              const VertexId u = nbr[j];
              if constexpr (Table::kContiguousRows) {
                const double* prow = tp.row_ptr(u);
                if (prow == nullptr) continue;
                ++nu;
#ifdef _OPENMP
#pragma omp simd
#endif
                for (std::uint32_t c = 0; c < passive_width; ++c) {
                  ps[c] += prow[c];
                }
              } else {
                if (!tp.has_vertex(u)) continue;
                ++nu;
                if constexpr (DecodableRowTable<Table>) {
                  tp.add_row_into(u, ps);
                } else {
                  for (std::uint32_t c = 0; c < passive_width; ++c) {
                    ps[c] += tp.get(u, c);
                  }
                }
              }
            }
            if (nu == 0) return false;
            const ColorsetIndex* act = all_act;
            const ColorsetIndex* pas = all_pas;
            for (std::uint32_t parent = 0; parent < num_parents;
                 ++parent, act += per_parent, pas += per_parent) {
              double acc = 0.0;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
              for (std::uint32_t s = 0; s < per_parent; ++s) {
                acc += arow[act[s]] * ps[pas[s]];
              }
              r[parent] = acc;
            }
            ws.macs += nu * passive_width + flat_size;
          } else {
            const ColorsetIndex* grp_par = split.group_parents(0).data();
            const ColorsetIndex* grp_pas = split.group_passives(0).data();
            for (std::size_t j = 0; j < deg; ++j) {
              if constexpr (Table::kContiguousRows) {
                if (j + kPrefetchSlotAhead < deg) {
                  tp.prefetch_slot(nbr[j + kPrefetchSlotAhead]);
                }
                if (j + kPrefetchRowAhead < deg) {
                  tp.prefetch_row(nbr[j + kPrefetchRowAhead]);
                }
              }
              const VertexId u = nbr[j];
              const double* prow = nullptr;
              if constexpr (Table::kContiguousRows) {
                prow = tp.row_ptr(u);
                if (prow == nullptr) continue;
              } else if constexpr (DecodableRowTable<Table>) {
                if (!tp.has_vertex(u)) continue;
                // One O(nnz) reconstruction into the (otherwise idle)
                // psum scratch buys the contiguous gather below —
                // cheaper than a packed probe per split entry.
                tp.decode_row(u, ws.psum.data());
                prow = ws.psum.data();
              } else {
                if (!tp.has_vertex(u)) continue;
              }
              ++nu;
              for (const ColorsetIndex a_idx : nz) {
                const double ca = arow[a_idx];
                const std::size_t base =
                    static_cast<std::size_t>(a_idx) * per_active;
                const ColorsetIndex* gp = grp_par + base;
                const ColorsetIndex* gpas = grp_pas + base;
                if constexpr (Table::kContiguousRows ||
                              DecodableRowTable<Table>) {
#ifdef _OPENMP
#pragma omp simd
#endif
                  for (std::uint32_t s = 0; s < per_active; ++s) {
                    r[gp[s]] += ca * prow[gpas[s]];
                  }
                } else {
                  for (std::uint32_t s = 0; s < per_active; ++s) {
                    r[gp[s]] += ca * tp.get(u, gpas[s]);
                  }
                }
              }
            }
            ws.macs += nu * num_entries;
          }
          if (nu == 0) return false;
          out.commit_row(v, row);
          return true;
        });
  }

  // ---- reference kernels (pre-frontier scalar path) ---------------------
  // The seed implementation, kept verbatim behind
  // DpEngineOptions::reference_kernels: full-n scans, per-element
  // table.get() probes, AoS hoisted entries.  The bit-identity tests
  // and bench/micro_dp's before/after numbers run against these.

  struct ReferenceWorkspace {
    std::vector<double> row;
    struct ActiveEntry {
      ColorsetIndex parent;
      ColorsetIndex passive;
      double value;
    };
    std::vector<ActiveEntry> active_entries;
  };

  template <class Body>
  void for_all_vertices_reference(bool parallel, std::uint32_t row_width,
                                  Body&& body) {
    const VertexId n = graph_.num_vertices();
#ifdef _OPENMP
    if (parallel) {
#pragma omp parallel num_threads(effective_inner_threads())
      {
        ReferenceWorkspace workspace;
        workspace.row.resize(row_width);
#pragma omp for schedule(dynamic, 64)
        for (VertexId v = 0; v < n; ++v) body(v, workspace);
      }
      return;
    }
#endif
    ReferenceWorkspace workspace;
    workspace.row.resize(row_width);
    for (VertexId v = 0; v < n; ++v) body(v, workspace);
  }

  void kernel_pair_reference(Table& out, const Subtemplate& node,
                             const ColorArray& colors, bool parallel) {
    const Subtemplate& active = partition_.node(node.active);
    const Subtemplate& passive = partition_.node(node.passive);
    for_all_vertices_reference(
        parallel, out.num_colorsets(),
        [&](VertexId v, ReferenceWorkspace& ws) {
          if (!leaf_matches(active, v)) return;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          const int cv = colors[static_cast<std::size_t>(v)];
          bool any = false;
          for (VertexId u : graph_.neighbors(v)) {
            const int cu = colors[static_cast<std::size_t>(u)];
            if (cu == cv || !leaf_matches(passive, u)) continue;
            row[pair_index_[static_cast<std::size_t>(cv) * k_ + cu]] += 1.0;
            any = true;
          }
          if (any) out.commit_row(v, row);
        });
  }

  void kernel_single_active_reference(Table& out, const Subtemplate& node,
                                      const ColorArray& colors,
                                      bool parallel) {
    const Subtemplate& active = partition_.node(node.active);
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const SingleActiveSplit& split =
        *single_splits_[static_cast<std::size_t>(node.size())];
    for_all_vertices_reference(
        parallel, out.num_colorsets(),
        [&](VertexId v, ReferenceWorkspace& ws) {
          if (!leaf_matches(active, v)) return;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          const int cv = colors[static_cast<std::size_t>(v)];
          const auto entries = split.entries(cv);
          bool any = false;
          for (VertexId u : graph_.neighbors(v)) {
            if (!tp.has_vertex(u)) continue;
            any = true;
            for (const auto& entry : entries) {
              row[entry.parent] += tp.get(u, entry.passive);
            }
          }
          if (any) out.commit_row(v, row);
        });
  }

  void kernel_single_passive_reference(Table& out, const Subtemplate& node,
                                       const ColorArray& colors,
                                       bool parallel) {
    const Subtemplate& passive = partition_.node(node.passive);
    const Table& ta = *tables_[static_cast<std::size_t>(node.active)];
    const SingleActiveSplit& split =
        *single_splits_[static_cast<std::size_t>(node.size())];
    for_all_vertices_reference(
        parallel, out.num_colorsets(),
        [&](VertexId v, ReferenceWorkspace& ws) {
          if (!ta.has_vertex(v)) return;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          bool any = false;
          for (VertexId u : graph_.neighbors(v)) {
            if (!leaf_matches(passive, u)) continue;
            const int cu = colors[static_cast<std::size_t>(u)];
            for (const auto& entry : split.entries(cu)) {
              const double count = ta.get(v, entry.passive);
              if (count != 0.0) {
                row[entry.parent] += count;
                any = true;
              }
            }
          }
          if (any) out.commit_row(v, row);
        });
  }

  void kernel_general_reference(Table& out, const Subtemplate& node,
                                const ColorArray& colors, bool parallel) {
    (void)colors;  // colors only matter at the leaves
    const Table& ta = *tables_[static_cast<std::size_t>(node.active)];
    const Table& tp = *tables_[static_cast<std::size_t>(node.passive)];
    const int h = node.size();
    const int a = partition_.node(node.active).size();
    const SplitTable& split = general_splits_.at(std::make_pair(h, a));
    const auto num_parents = out.num_colorsets();
    for_all_vertices_reference(
        parallel, num_parents,
        [&](VertexId v, ReferenceWorkspace& ws) {
          if (!ta.has_vertex(v)) return;
          // The active side depends only on v: hoist its nonzero
          // (parent, passive, value) triples out of the neighbor loop.
          auto& entries = ws.active_entries;
          entries.clear();
          for (ColorsetIndex parent = 0; parent < num_parents; ++parent) {
            const auto act = split.active_indices(parent);
            const auto pas = split.passive_indices(parent);
            for (std::size_t s = 0; s < act.size(); ++s) {
              const double ca = ta.get(v, act[s]);
              if (ca != 0.0) entries.push_back({parent, pas[s], ca});
            }
          }
          if (entries.empty()) return;
          auto& row = ws.row;
          std::fill(row.begin(), row.end(), 0.0);
          bool any = false;
          for (VertexId u : graph_.neighbors(v)) {
            if (!tp.has_vertex(u)) continue;
            any = true;
            for (const auto& entry : entries) {
              row[entry.parent] += entry.value * tp.get(u, entry.passive);
            }
          }
          if (any) out.commit_row(v, row);
        });
  }

  const Graph& graph_;
  const PartitionTree& partition_;
  int k_;
  DpEngineOptions opts_;
  const RunGuard* guard_ = nullptr;
  /// Candidate override for run_delta(): when set, every kernel sweeps
  /// this sorted list instead of its usual candidate source (with the
  /// leaf label filter re-applied per vertex where one exists).  Null
  /// outside delta passes.
  const std::vector<VertexId>* delta_restrict_ = nullptr;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::vector<VertexId>> frontiers_;
  std::vector<std::optional<SingleActiveSplit>> single_splits_;
  std::map<std::pair<int, int>, SplitTable> general_splits_;
  /// Per-node split pointers resolved at construction — the kernels
  /// never hit the optional/map lookups on the hot path.
  std::vector<const SingleActiveSplit*> node_single_;
  std::vector<const SplitTable*> node_general_;
  std::vector<std::size_t> node_active_bound_;
  std::vector<ColorsetIndex> pair_index_;
  std::vector<DpStageStats> stats_;
  /// Per-thread scratch, persistent across stages and iterations.
  std::vector<Workspace> workspaces_;
  /// Out-of-core paging state (sized only when the spill knobs are
  /// set): page path per spilled node (empty = resident), resident
  /// bytes per node, consuming stages per node (ascending).
  std::vector<std::string> spilled_to_;
  std::vector<std::size_t> node_bytes_;
  std::vector<std::vector<int>> consumers_;
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  int spill_events_ = 0;
  int spill_tag_ = 0;
};

}  // namespace fascia
