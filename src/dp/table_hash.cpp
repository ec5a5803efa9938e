#include "dp/table_hash.hpp"

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

namespace {

constexpr std::size_t kInitialCapacity = 1024;
constexpr double kMaxLoad = 0.7;

}  // namespace

HashTable::HashTable(VertexId n, std::uint32_t num_colorsets, TableInit init)
    : n_(n), num_colorsets_(num_colorsets) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  occupied_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(static_cast<std::size_t>(n));
  detail::first_touch_zero(occupied_.get(), static_cast<std::size_t>(n),
                           init.zero_threads);
  keys_.assign(kInitialCapacity, kEmpty);
  values_.assign(kInitialCapacity, 0.0);
  mask_ = kInitialCapacity - 1;
  MemTracker::add(bytes());
}

HashTable::~HashTable() { MemTracker::sub(bytes()); }

void HashTable::grow_locked() {
  const std::size_t old_capacity = keys_.size();
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<double> old_values = std::move(values_);

  const std::size_t new_capacity = old_capacity * 2;
  MemTracker::add(new_capacity * (sizeof(std::uint64_t) + sizeof(double)));
  keys_.assign(new_capacity, kEmpty);
  values_.assign(new_capacity, 0.0);
  mask_ = new_capacity - 1;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (old_keys[i] == kEmpty) continue;
    std::size_t slot = probe_start(old_keys[i]);
    while (keys_[slot] != kEmpty) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[i];
    values_[slot] = old_values[i];
  }
  MemTracker::sub(old_capacity * (sizeof(std::uint64_t) + sizeof(double)));
}

void HashTable::insert_locked(std::uint64_t key, double value) {
  if (static_cast<double>(entries_ + 1) >
      kMaxLoad * static_cast<double>(keys_.size())) {
    grow_locked();
  }
  std::size_t slot = probe_start(key);
  while (keys_[slot] != kEmpty && keys_[slot] != key) {
    slot = (slot + 1) & mask_;
  }
  if (keys_[slot] == kEmpty) {
    keys_[slot] = key;
    ++entries_;
  }
  values_[slot] = value;
}

void HashTable::commit_row(VertexId v, std::span<const double> row) {
  bool any = false;
  for (double x : row) {
    if (x != 0.0) {
      any = true;
      break;
    }
  }
  if (!any) return;

  const std::uint64_t base =
      static_cast<std::uint64_t>(v) * num_colorsets_;
  std::lock_guard<std::mutex> lock(write_mutex_);
  for (std::uint32_t i = 0; i < row.size(); ++i) {
    if (row[i] != 0.0) insert_locked(base + i, row[i]);
  }
  occupied_[static_cast<std::size_t>(v)] = 1;
}

double HashTable::vertex_total(VertexId v) const noexcept {
  if (!has_vertex(v)) return 0.0;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < num_colorsets_; ++i) {
    sum += get(v, i);
  }
  return sum;
}

std::size_t HashTable::bytes() const noexcept {
  return keys_.size() * (sizeof(std::uint64_t) + sizeof(double)) +
         static_cast<std::size_t>(n_) * sizeof(std::uint8_t);
}

}  // namespace fascia
