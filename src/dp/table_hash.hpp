#pragma once
// The paper's hashing scheme (§III-C): entries keyed by
//   key = vid * Nc + I
// (unique over all vertex/colorset combinations) in an open-addressing
// table sized as a factor of the live entry count.  Beats the array
// layouts when a template is highly selective — few (vertex, colorset)
// cells are ever nonzero relative to n * C(k,h) — which the paper
// demonstrates on the PA road network with long paths (Fig. 7, up to
// 90 % saving at U12-1).
//
// Concurrency contract: commits take a mutex (amortized rehash happens
// under it); reads are lock-free and only ever target fully-built
// tables, per the count_table.hpp contract.  Commit throughput is not
// the bottleneck the paper optimizes hash mode for (memory is) —
// EXPERIMENTS.md discusses the tradeoff.

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dp/count_table.hpp"

namespace fascia {

class HashTable {
 public:
  HashTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~HashTable();

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  /// Entries are scattered across the probe table — no contiguous
  /// per-vertex storage exists to borrow.  row_ptr() always returns
  /// nullptr; kernels fall back to keyed get() reads.
  static constexpr bool kContiguousRows = false;
  /// Open addressing has no O(1) row erase (tombstones would bleed
  /// into probe chains) — the delta path keeps the copy-splice here.
  static constexpr bool kPatchableRows = false;
  static constexpr const char* kName = "hash";

  [[nodiscard]] bool has_vertex(VertexId v) const noexcept {
    return occupied_[static_cast<std::size_t>(v)] != 0;
  }

  [[nodiscard]] const double* row_ptr(VertexId) const noexcept {
    return nullptr;
  }

  /// Entries are probe-scattered; there is no useful address to warm
  /// before the keyed lookup itself.
  void prefetch_slot(VertexId) const noexcept {}
  void prefetch_row(VertexId) const noexcept {}

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept {
    const std::uint64_t key =
        static_cast<std::uint64_t>(v) * num_colorsets_ + idx;
    std::size_t slot = probe_start(key);
    while (true) {
      const std::uint64_t found = keys_[slot];
      if (found == key) return values_[slot];
      if (found == kEmpty) return 0.0;
      slot = (slot + 1) & mask_;
    }
  }

  void commit_row(VertexId v, std::span<const double> row);

  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] std::size_t bytes() const noexcept;
  [[nodiscard]] std::size_t num_entries() const noexcept { return entries_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
    // splitmix-style finalizer: the raw key is highly structured
    // (vid * Nc + I), so mixing matters.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((z ^ (z >> 31)) & mask_);
  }

  void insert_locked(std::uint64_t key, double value);
  void grow_locked();

  VertexId n_;
  std::uint32_t num_colorsets_;
  std::size_t mask_ = 0;       ///< capacity - 1 (power of two)
  std::size_t entries_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<double> values_;
  // Per-vertex any-entry flags: the only vertex-indexed array here, so
  // the only one whose first touch TableInit spreads (the probe table
  // starts tiny and grows under the commit mutex).
  std::unique_ptr<std::uint8_t[]> occupied_;
  std::mutex write_mutex_;
};

}  // namespace fascia
