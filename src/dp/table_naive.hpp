#pragma once
// Dense count table: n x C(k,h) doubles, all initialized.  This is the
// paper's naive baseline: no per-vertex existence tracking, so
// has_vertex() is constant true and the DP cannot skip empty vertices.

#include <memory>
#include <span>

#include "dp/count_table.hpp"

namespace fascia {

class NaiveTable {
 public:
  NaiveTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~NaiveTable();

  NaiveTable(const NaiveTable&) = delete;
  NaiveTable& operator=(const NaiveTable&) = delete;

  /// Rows are one dense array; every vertex has a (possibly all-zero)
  /// contiguous row.
  static constexpr bool kContiguousRows = true;
  /// Patching a dense table would not beat re-copying it — the delta
  /// path keeps the copy-splice for this layout (count_table.hpp).
  static constexpr bool kPatchableRows = false;
  static constexpr const char* kName = "naive";

  [[nodiscard]] bool has_vertex(VertexId) const noexcept { return true; }

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept {
    return data_[static_cast<std::size_t>(v) * num_colorsets_ + idx];
  }

  [[nodiscard]] const double* row_ptr(VertexId v) const noexcept {
    return data_.get() + static_cast<std::size_t>(v) * num_colorsets_;
  }

  /// No indirection to warm — rows are addressed arithmetically.
  void prefetch_slot(VertexId) const noexcept {}
  void prefetch_row(VertexId v) const noexcept {
    FASCIA_PREFETCH(data_.get() + static_cast<std::size_t>(v) * num_colorsets_);
  }

  void commit_row(VertexId v, std::span<const double> row) noexcept;

  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return size_ * sizeof(double);
  }

 private:
  VertexId n_;
  std::uint32_t num_colorsets_;
  std::size_t size_ = 0;
  // Raw uninitialized allocation + explicit zeroing pass: a
  // std::vector would first-touch every page from the constructing
  // thread before TableInit could spread the zeroing.
  std::unique_ptr<double[]> data_;
};

}  // namespace fascia
