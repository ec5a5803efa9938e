#include "dp/table_naive.hpp"

#include <algorithm>
#include <cstring>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

NaiveTable::NaiveTable(VertexId n, std::uint32_t num_colorsets, TableInit init)
    : n_(n), num_colorsets_(num_colorsets),
      size_(static_cast<std::size_t>(n) * num_colorsets) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  data_ = std::make_unique_for_overwrite<double[]>(size_);
  // First touch decides page placement: zero with the same static
  // thread partition the inner-parallel frontier sweep uses, so each
  // thread's vertex range lives on its own NUMA node.  Serial when
  // init.zero_threads <= 1 (outer copies construct from their own
  // thread, which is already the right home).
  detail::first_touch_zero(data_.get(), size_, init.zero_threads);
  MemTracker::add(bytes());
}

NaiveTable::~NaiveTable() { MemTracker::sub(bytes()); }

void NaiveTable::commit_row(VertexId v, std::span<const double> row) noexcept {
  std::memcpy(data_.get() + static_cast<std::size_t>(v) * num_colorsets_,
              row.data(), num_colorsets_ * sizeof(double));
}

double NaiveTable::vertex_total(VertexId v) const noexcept {
  const double* row = data_.get() + static_cast<std::size_t>(v) * num_colorsets_;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < num_colorsets_; ++i) sum += row[i];
  return sum;
}

}  // namespace fascia
