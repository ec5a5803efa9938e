#pragma once
// Dynamic-programming count tables (§III-C).
//
// One table instance stores, for a single subtemplate of size h, the
// count of colorful embeddings rooted at each graph vertex for each
// colorset (indexed combinadically; see comb/colorset.hpp).  FASCIA's
// key engineering contribution is abstracting this structure so the
// layout can vary:
//
//   * NaiveTable   — dense n x C(k,h) array, everything initialized
//                    (the paper's baseline in Figs. 6-7).
//   * CompactTable — per-vertex rows allocated lazily on first commit;
//                    uninitialized vertices answer has_vertex() false,
//                    letting the DP skip them entirely (the paper's
//                    "improved" layout; ~20 % memory saving unlabeled,
//                    >90 % labeled).
//   * HashTable    — open addressing keyed by vid·Nc + I (the paper's
//                    hashing scheme; wins for high-selectivity
//                    templates, e.g. long paths on road networks).
//   * SuccinctTable — per-row nonzero packing behind a rank-indexed
//                    bitmap or sorted-slot list (Motivo-style; the
//                    layout that makes k = 10-12 tables fit fixed
//                    memory budgets).
//
// The counter is *compile-time* polymorphic over the table type: the
// innermost DP loop — where the paper measures >90 % of runtime — must
// not pay a virtual call per read.  All four classes expose the same
// duck-typed API:
//
//   bool   has_vertex(VertexId v) const;
//   double get(VertexId v, ColorsetIndex idx) const;   // 0 when absent
//   void   commit_row(VertexId v, std::span<const double> row);
//   double vertex_total(VertexId v) const;   // row sum, ascending colorset
//   VertexId num_vertices() const;
//   std::uint32_t num_colorsets() const;
//   std::size_t bytes() const;
//
// The whole-table sum is table_total() below, defined once for every
// layout so that all four round the same way once counts pass 2^53.
//
// Row-borrow contract (the vectorized kernels' fast path):
//
//   static constexpr bool kContiguousRows;
//   const double* row_ptr(VertexId v) const;
//
// When kContiguousRows is true, row_ptr(v) returns the vertex's
// num_colorsets() doubles as one contiguous array (nullptr when the
// vertex has no row), valid until the next commit to that vertex or
// table destruction; the DP inner loops then run multiply-accumulates
// over raw rows instead of per-element get() calls.  A layout without
// contiguous storage (the hash table) sets the flag false and returns
// nullptr unconditionally — callers must fall back to get().
//
// In-place patch contract (the incremental delta path's fast path):
//
//   static constexpr bool kPatchableRows;
//   void patch_row(VertexId v, std::span<const double> row);
//   void clear_row(VertexId v);
//
// When kPatchableRows is true, a finished table can be mutated row-
// wise after the fact: patch_row replaces (or creates) v's row with
// the given nonzero row, clear_row removes it so has_vertex(v) turns
// false again.  DpEngine::run_delta then rewrites only the dirty-ball
// rows of a retained table instead of copying every clean row into a
// fresh one — the difference between O(ball) and O(n) recounts.  Only
// the compact layout supports this (its rows are independent per-
// vertex allocations); dense, probe-table, and bit-packed layouts set
// the flag false and keep the copy-splice path.
//
// Prefetch hints (best-effort, may be no-ops):
//
//   void prefetch_slot(VertexId v) const;  // per-vertex indirection cell
//   void prefetch_row(VertexId v) const;   // the row's leading cache line
//
// The frontier sweeps issue these a few neighbors ahead of the gather:
// slot first (the compact layout must load rows_[v] before the row
// address even exists), row once the slot is expected resident.  Pure
// hints — no correctness dependency.
//
// commit_row may be called concurrently for *distinct* vertices (the
// inner-loop parallel mode does exactly that); get/has_vertex are safe
// concurrently with each other but not with commits to the same table.
// The DP never reads a table it is still writing, so this contract is
// naturally satisfied.  All layouts report logical allocations to
// MemTracker so the Figs. 6-7 benches can compare peaks.

#include <cstdint>

#include "comb/colorset.hpp"
#include "graph/graph.hpp"

/// Best-effort cache-line prefetch; expands to nothing on compilers
/// without the builtin.
#if defined(__GNUC__) || defined(__clang__)
#define FASCIA_PREFETCH(addr) __builtin_prefetch((addr))
#else
#define FASCIA_PREFETCH(addr) ((void)sizeof(addr))
#endif

namespace fascia {

/// First-touch placement policy for table construction.  Vertex-indexed
/// arrays (the naive data block, the compact row-pointer array, the
/// hash occupied flags) are zeroed by `zero_threads` threads in the
/// SAME static partition the DP's inner-parallel sweep later uses, so
/// on a NUMA machine each page faults in on the node of the thread
/// that will write it.  Rows committed lazily (compact/hash) are
/// first-touched by the committing thread by construction.  With
/// zero_threads <= 1 (the default) initialization is serial — outer
/// engine copies each zero their own tables from their own thread,
/// which is already the right placement.
struct TableInit {
  int zero_threads = 1;
};

/// Runtime selector used by CountOptions; maps to the classes above.
enum class TableKind {
  kNaive,
  kCompact,
  kHash,
  kSuccinct,
};

const char* table_kind_name(TableKind kind) noexcept;

/// Sum of every count in `table`: vertex_total(v) over ascending v.
/// Doubles hold counts exactly only below 2^53, so the summation order
/// is part of the result; this single order keeps estimates bit-
/// identical across layouts beyond that point too.
template <class Table>
[[nodiscard]] double table_total(const Table& table) noexcept {
  double sum = 0.0;
  for (VertexId v = 0; v < table.num_vertices(); ++v) {
    sum += table.vertex_total(v);
  }
  return sum;
}

}  // namespace fascia
