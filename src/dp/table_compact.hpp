#pragma once
// The paper's "improved" layout: rows exist only for vertices that
// received at least one nonzero count.  Besides the memory saving
// (Fig. 6), the has_vertex() boolean check lets the DP skip whole
// vertices and neighbor reads (§III-C) — the source of FASCIA's
// speedup on selective (labeled / sparse) instances.

#include <memory>
#include <span>

#include "dp/count_table.hpp"

namespace fascia {

class CompactTable {
 public:
  CompactTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~CompactTable();

  CompactTable(const CompactTable&) = delete;
  CompactTable& operator=(const CompactTable&) = delete;

  /// Rows are per-vertex contiguous arrays (absent until first nonzero
  /// commit), so the DP can borrow a raw row pointer per vertex.
  static constexpr bool kContiguousRows = true;
  /// Rows are independent heap allocations behind a pointer array, so
  /// a finished table can be patched row-wise (count_table.hpp).
  static constexpr bool kPatchableRows = true;
  static constexpr const char* kName = "compact";

  [[nodiscard]] bool has_vertex(VertexId v) const noexcept {
    return rows_[static_cast<std::size_t>(v)] != nullptr;
  }

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept {
    const double* row = rows_[static_cast<std::size_t>(v)];
    return row == nullptr ? 0.0 : row[idx];
  }

  /// The vertex's row as num_colorsets() contiguous doubles; nullptr
  /// when the vertex never committed a nonzero row.
  [[nodiscard]] const double* row_ptr(VertexId v) const noexcept {
    return rows_[static_cast<std::size_t>(v)];
  }

  /// Two-step prefetch: the row address itself lives behind rows_[v],
  /// so warm that cell first; prefetch_row then chases it (reading a
  /// possibly-cold pointer, hence the larger slot distance upstream).
  void prefetch_slot(VertexId v) const noexcept {
    FASCIA_PREFETCH(rows_.get() + static_cast<std::size_t>(v));
  }
  void prefetch_row(VertexId v) const noexcept {
    const double* row = rows_[static_cast<std::size_t>(v)];
    if (row != nullptr) FASCIA_PREFETCH(row);
  }

  /// Allocates the vertex row iff `row` has a nonzero entry.  Safe to
  /// call concurrently for distinct vertices: each writes its own slot
  /// and operator new is thread-safe.
  void commit_row(VertexId v, std::span<const double> row);

  /// Replaces (or creates) v's row with `row`, which the caller
  /// guarantees has a nonzero entry — the delta path's in-place patch
  /// (count_table.hpp).  Not safe concurrently with reads.
  void patch_row(VertexId v, std::span<const double> row);

  /// Drops v's row; has_vertex(v) turns false.  No-op when absent.
  void clear_row(VertexId v) noexcept;

  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Vertices with at least one count (selectivity statistics).
  [[nodiscard]] VertexId num_active_vertices() const noexcept;

 private:
  VertexId n_;
  std::uint32_t num_colorsets_;
  // Raw pointer array so the nullptr fill can run under TableInit's
  // first-touch partition; rows themselves are first-touched by the
  // committing thread (commit_row allocates and writes in one place).
  std::unique_ptr<double*[]> rows_;
};

}  // namespace fascia
