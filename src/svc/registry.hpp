#pragma once
// Graph registry: load once, serve many (DESIGN.md §11).
//
// The dominant cost of a one-shot counting request on a large network
// is not the DP — it is reading and CSR-building the graph.  A
// long-lived service amortizes that: a graph is registered once (by
// name) and every subsequent job against it starts immediately from
// the cached CSR.  The registry also memoizes the two derived
// artifacts jobs recompute most often:
//
//   * partition trees, keyed by (template canon, strategy,
//     share_tables, root) — admission control partitions every
//     submitted template to estimate its memory, and the worker would
//     otherwise partition it again;
//   * reorder permutations, keyed by (graph, mode) — the locality
//     pass is deterministic per graph, so its Permutation is reusable
//     across jobs (the engine still applies it per run; caching saves
//     the analysis pass for repeated lookups via `reorder_of`).
//
// Entries are byte-accounted against a configurable budget with LRU
// eviction.  Eviction drops the registry's reference only: entries
// hand out shared_ptr, so a running job keeps its evicted graph alive
// until it finishes — eviction can never invalidate in-flight work.
// Every graph copy the registry lets go while something still holds
// it (evicted, replaced by a put of the same name, erased) is tracked
// weakly and reported as held_graphs/held_bytes, so memory that
// outlives its registry entry is visible rather than silent.
// The accounting is deliberately internal (not routed through the
// process MemTracker): registry residency is service state, not run
// state, and charging it to the run-layer tracker would perturb every
// job's observed-peak report.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "treelet/partition.hpp"
#include "treelet/tree_template.hpp"

namespace fascia::svc {

class GraphRegistry {
 public:
  /// `budget_bytes` bounds the sum of cached graph + permutation +
  /// partition bytes; 0 = unbounded.  A single graph larger than the
  /// budget is still admitted (it becomes the sole resident and is
  /// evicted as soon as anything else arrives).
  explicit GraphRegistry(std::size_t budget_bytes = 0);

  /// Registers `graph` under `name`, replacing any previous entry of
  /// that name, and returns the shared handle.
  std::shared_ptr<const Graph> put(const std::string& name, Graph graph);

  /// Cached graph, refreshing its LRU position; nullptr when absent
  /// (including evicted — the caller reloads and put()s again).
  [[nodiscard]] std::shared_ptr<const Graph> get(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name);

  /// Drops `name` (graph and its cached permutations).  Running jobs
  /// holding the shared_ptr are unaffected.
  bool erase(const std::string& name);

  /// Reorder permutation for (graph `name`, mode), computed on first
  /// use and cached.  Returns nullptr when the graph is absent or
  /// mode == kNone.
  std::shared_ptr<const Permutation> reorder_of(const std::string& name,
                                                ReorderMode mode);

  /// Partition tree for the template under (strategy, share, root),
  /// computed on first use and cached under the template's canonical
  /// key.  Graph-independent, so one cache serves every graph.
  std::shared_ptr<const PartitionTree> partition_of(const TreeTemplate& tmpl,
                                                    PartitionStrategy strategy,
                                                    bool share_tables,
                                                    int root);

  struct Stats {
    std::size_t resident_bytes = 0;
    std::size_t budget_bytes = 0;
    std::size_t graphs = 0;
    std::size_t permutations = 0;
    std::size_t partitions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Re-registers served by resurrecting a let-go-but-held copy with
    /// identical content instead of admitting a duplicate allocation.
    std::uint64_t resurrections = 0;
    /// Graph copies the registry let go (evicted, replaced, erased)
    /// that something outside it still keeps alive, and their bytes.
    /// Not part of resident_bytes.
    std::size_t held_graphs = 0;
    std::size_t held_bytes = 0;
  };
  [[nodiscard]] Stats stats();

  /// Names of currently resident graphs (for status responses).
  [[nodiscard]] std::vector<std::string> graph_names();

 private:
  struct Entry;
  void touch_locked(Entry& entry);
  void evict_locked(std::size_t incoming_bytes);
  void let_go_locked(const Entry& entry);

  struct Entry {
    std::string key;
    std::shared_ptr<const Graph> graph;          // graph entries
    std::shared_ptr<const Permutation> perm;     // permutation entries
    std::shared_ptr<const PartitionTree> part;   // partition entries
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  std::mutex mutex_;
  std::vector<Entry> entries_;

  /// Graphs the registry let go (evicted, replaced, erased) that were
  /// still held elsewhere at the time.  Dropping the registry's strong
  /// reference does not free them, so stats() counts the live ones,
  /// and a re-register of identical content resurrects the held copy
  /// instead of building a second one.  Expired pointers are pruned
  /// opportunistically.
  struct HeldGraph {
    std::string key;
    std::weak_ptr<const Graph> graph;
    std::size_t bytes = 0;
  };
  std::vector<HeldGraph> held_;

  std::size_t budget_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t resurrections_ = 0;
};

}  // namespace fascia::svc
