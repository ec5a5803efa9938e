#include "dp/table_compact.hpp"

#include <algorithm>
#include <cstring>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

namespace {

// Row allocations are batched into MemTracker updates per commit; the
// pointer array itself is charged up front.
std::size_t row_bytes(std::uint32_t num_colorsets) {
  return num_colorsets * sizeof(double);
}

}  // namespace

CompactTable::CompactTable(VertexId n, std::uint32_t num_colorsets,
                           TableInit init)
    : n_(n), num_colorsets_(num_colorsets) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  rows_ = std::make_unique_for_overwrite<double*[]>(
      static_cast<std::size_t>(n_));
  // The nullptr fill is the pointer array's first touch; rows are
  // first-touched by whichever thread commits them.
  detail::first_touch_zero(rows_.get(), static_cast<std::size_t>(n_),
                           init.zero_threads);
  MemTracker::add(static_cast<std::size_t>(n_) * sizeof(double*));
}

CompactTable::~CompactTable() {
  MemTracker::sub(bytes());
  for (VertexId v = 0; v < n_; ++v) {
    delete[] rows_[static_cast<std::size_t>(v)];
  }
}

void CompactTable::commit_row(VertexId v, std::span<const double> row) {
  const bool any_nonzero =
      std::any_of(row.begin(), row.end(), [](double x) { return x != 0.0; });
  if (!any_nonzero) return;
  double* copy = new double[num_colorsets_];
  std::memcpy(copy, row.data(), row_bytes(num_colorsets_));
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    MemTracker::add(row_bytes(num_colorsets_));
  } else {
    delete[] slot;
  }
  slot = copy;
}

void CompactTable::patch_row(VertexId v, std::span<const double> row) {
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    slot = new double[num_colorsets_];
    MemTracker::add(row_bytes(num_colorsets_));
  }
  std::memcpy(slot, row.data(), row_bytes(num_colorsets_));
}

void CompactTable::clear_row(VertexId v) noexcept {
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) return;
  delete[] slot;
  slot = nullptr;
  MemTracker::sub(row_bytes(num_colorsets_));
}

double CompactTable::vertex_total(VertexId v) const noexcept {
  const double* row = rows_[static_cast<std::size_t>(v)];
  if (row == nullptr) return 0.0;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < num_colorsets_; ++i) sum += row[i];
  return sum;
}

std::size_t CompactTable::bytes() const noexcept {
  std::size_t held = static_cast<std::size_t>(n_) * sizeof(double*);
  for (VertexId v = 0; v < n_; ++v) {
    if (rows_[static_cast<std::size_t>(v)] != nullptr) {
      held += row_bytes(num_colorsets_);
    }
  }
  return held;
}

VertexId CompactTable::num_active_vertices() const noexcept {
  VertexId active = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (rows_[static_cast<std::size_t>(v)] != nullptr) ++active;
  }
  return active;
}

}  // namespace fascia
