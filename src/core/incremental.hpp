#pragma once
// Incremental delta counting: the dynamic-graph half of the counter.
//
// begin_incremental() runs a normal color-coding count but RETAINS
// each iteration's DP state (every non-leaf table + frontier) inside
// the returned RunHandle.  After the caller mutates the graph with
// Graph::apply(GraphDelta), handle.recount(graph, delta) re-runs each
// DP stage restricted to the delta's dirty-vertex neighborhood (a
// stage of size s only changes within s-1 hops of a touched endpoint)
// and splices the untouched rows back verbatim, producing an estimate
// BIT-IDENTICAL to a full recount of the new graph under the same
// seed — at a cost proportional to the dirty region, not the graph.
//
//   Graph graph = GraphSource::from_file("web.el").build();
//   RunHandle handle = begin_incremental(graph, tmpl, options);
//   use(handle.result().estimate);
//   GraphDelta delta;
//   delta.insert(10, 42);
//   delta.remove(7, 9);
//   graph.apply(delta);
//   use(handle.recount(graph, delta).estimate);  // == full recount
//
// Both passes run on the one iteration driver (sched/driver.hpp) as a
// retained run and a delta pass, so reports carry the same stages,
// memory plan and thread layout as count_template's.
//
// Memory: the handle holds iterations x (all non-leaf tables), priced
// by run::estimate_retained_bytes — retention is opt-in for a reason.
// Restrictions (CountOptions::validate with execution.incremental): no
// reorder, no RunControls.  All four table layouts and all four
// parallel modes work.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/count_options.hpp"
#include "graph/graph.hpp"
#include "treelet/tree_template.hpp"

namespace fascia {

class GraphDelta;

/// A live incremental count: the latest result plus the retained DP
/// state that makes cheap recounts possible.  Move-only; dropping the
/// handle frees the retained tables.
class RunHandle {
 public:
  RunHandle(RunHandle&&) noexcept;
  RunHandle& operator=(RunHandle&&) noexcept;
  RunHandle(const RunHandle&) = delete;
  RunHandle& operator=(const RunHandle&) = delete;
  ~RunHandle();

  /// The latest count (initial run or last recount).  Its `delta`
  /// field and report `.delta` section carry the incremental
  /// accounting; zeros before the first recount.
  [[nodiscard]] const CountResult& result() const noexcept;

  /// Graph::version() of the graph this handle last counted.  The
  /// counting service matches it against its per-graph version tokens
  /// to detect stale handles.
  [[nodiscard]] std::uint64_t graph_version() const noexcept;

  /// Recounts the handle has served (0 right after begin_incremental).
  [[nodiscard]] std::uint64_t recounts() const noexcept;

  /// Actual bytes held by the retained tables and frontiers.
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

  /// Incrementally recount after `delta` produced `new_graph`.  The
  /// graph must be the handle's graph with exactly `delta` applied
  /// since the last (re)count — same vertex set, same labels.  Throws
  /// Error(kBadInput) on a vertex-count mismatch and Error(kUsage) on
  /// a handle poisoned by a previously failed recount; on any failure
  /// mid-recount the handle becomes unusable (retained state is
  /// partially advanced) and the caller must begin_incremental anew.
  const CountResult& recount(const Graph& new_graph, const GraphDelta& delta);

  /// Retained state and latest result; public only for the factory.
  class Impl;

 private:
  friend RunHandle begin_incremental(const Graph&, const TreeTemplate&,
                                     const CountOptions&);
  explicit RunHandle(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Runs the initial count with per-iteration DP state retained.
/// `options.execution.incremental` is implied (and validated, see
/// header comment); every other option keeps its count_template
/// meaning.
RunHandle begin_incremental(const Graph& graph, const TreeTemplate& tmpl,
                            const CountOptions& options = {});

}  // namespace fascia
