#pragma once
// Succinct colorset-indexed rows (the Motivo-style fourth layout).
//
// Each vertex row stores ONLY its nonzero counts, packed in colorset
// order, behind one of two per-row addressings chosen by density at
// commit time:
//
//   * bitmap — C(k,h) bits (one per colorset index) plus a per-word
//     cumulative-popcount rank directory (comb/colorset.hpp helpers);
//     get() is a bit test + O(1) rank into the packed values.
//   * sparse — the sorted nonzero colorset indices as u32s; get() is a
//     binary search.  Wins when a row has fewer than roughly one
//     nonzero per 21 colorset slots, where even the bitmap's
//     1.5 bits/slot overhead exceeds the 4 B/nonzero index list.
//
// Whichever is smaller per row is used, so the table is never larger
// than nnz * 12 B + one header word per active vertex (plus the
// row-pointer array every lazy layout carries).  Compared to compact's
// C(k,h) * 8 B per active row this is what makes k = 10-12 tables fit
// real memory budgets (Fig. 6's regime taken to the k the paper
// targets); compared to hash it has no empty-slot slack and no key
// storage.
//
// The encoding is LOSSLESS: doubles are stored verbatim, and zero
// slots read back exactly 0.0, so estimates are bit-identical to the
// dense layouts per coloring (the PR-3 matrix pins this).  Like the
// hash layout there is no contiguous per-vertex row to borrow —
// kContiguousRows is false and the vectorized kernels fall back to
// per-element get() through the same frontier machinery.
//
// Concurrency contract matches count_table.hpp: commit_row may run
// concurrently for distinct vertices (each writes its own row slot;
// shared counters are relaxed atomics), reads never overlap commits.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "dp/count_table.hpp"

namespace fascia {

template <class Emit>
inline void succinct_row_for_each(const std::uint64_t* blob,
                                  std::size_t bitmap_words, Emit&& emit);

class SuccinctTable {
 public:
  SuccinctTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~SuccinctTable();

  SuccinctTable(const SuccinctTable&) = delete;
  SuccinctTable& operator=(const SuccinctTable&) = delete;

  /// Values are packed by rank — there is no num_colorsets()-wide
  /// contiguous row to borrow.  Kernels fall back to get().
  static constexpr bool kContiguousRows = false;
  /// Rows are bit-packed into one stream — no in-place rewrites; the
  /// delta path keeps the decode -> commit copy-splice here.
  static constexpr bool kPatchableRows = false;
  static constexpr const char* kName = "succinct";

  [[nodiscard]] bool has_vertex(VertexId v) const noexcept {
    return rows_[static_cast<std::size_t>(v)] != nullptr;
  }

  [[nodiscard]] const double* row_ptr(VertexId) const noexcept {
    return nullptr;
  }

  /// Same two-step warm as compact: the blob address lives behind
  /// rows_[v]; the header word decides everything else.
  void prefetch_slot(VertexId v) const noexcept {
    FASCIA_PREFETCH(rows_.get() + static_cast<std::size_t>(v));
  }
  void prefetch_row(VertexId v) const noexcept {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob != nullptr) FASCIA_PREFETCH(blob);
  }

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept;

  /// Dense-row reconstruction for the kernels' sequential read
  /// patterns: enumerating the stored nonzeros is O(nnz) (plus the
  /// zero-fill), where a get() sweep over the full width pays a rank
  /// or binary search per slot.  decode_row writes v's full row
  /// (exact zeros included) into out[0..num_colorsets());
  /// add_row_into accumulates only the nonzeros into out.
  void decode_row(VertexId v, double* out) const noexcept;
  void add_row_into(VertexId v, double* out) const noexcept;

  /// Calls emit(slot, value) for v's stored nonzeros in ascending
  /// slot order (no-op for a missing row).  Kernels whose split lists
  /// are also slot-sorted merge-join against this instead of paying a
  /// dense reconstruction per row.
  template <class Emit>
  void for_each_nonzero(VertexId v, Emit&& emit) const {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob == nullptr) return;
    succinct_row_for_each(blob, words_, std::forward<Emit>(emit));
  }

  void commit_row(VertexId v, std::span<const double> row);

  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Vertices with at least one count (selectivity statistics).
  [[nodiscard]] VertexId num_active_vertices() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Encoding-mix introspection for tests and the micro_tables bench.
  [[nodiscard]] std::size_t num_bitmap_rows() const noexcept {
    return bitmap_rows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t num_sparse_rows() const noexcept {
    return static_cast<std::size_t>(num_active_vertices()) -
           num_bitmap_rows();
  }

 private:
  // Row blob: a u64 array so every region is 8-byte aligned.
  //   word 0          header: nnz in the low 32 bits, mode in the high
  //   sparse (mode 0) [nnz doubles][nnz u32 sorted slots, padded]
  //   bitmap (mode 1) [words_ bitmap words][rank u32s, padded]
  //                   [nnz doubles]
  [[nodiscard]] std::size_t blob_words_sparse(std::uint32_t nnz)
      const noexcept {
    return 1 + nnz + (static_cast<std::size_t>(nnz) + 1) / 2;
  }
  [[nodiscard]] std::size_t blob_words_bitmap(std::uint32_t nnz)
      const noexcept {
    return 1 + words_ + (words_ + 1) / 2 + nnz;
  }

  // Row blobs live in bump-allocated slabs: every row is committed
  // exactly once per DP stage and the whole table dies together, so a
  // per-row new[]/delete[] (one malloc per frontier vertex per stage,
  // contended across the inner sweep threads) buys nothing.  The fast
  // path is one fetch_add on the current slab; the mutex only guards
  // slab creation.  A recommitted row (the restore path) allocates a
  // fresh blob and strands the old one until the table dies — rows are
  // never recommitted inside a stage, so the slack is theoretical.
  std::uint64_t* alloc_blob(std::size_t total_words);

  struct Slab {
    std::unique_ptr<std::uint64_t[]> data;
    std::size_t capacity = 0;           ///< words
    std::atomic<std::size_t> offset{0};  ///< words handed out
  };

  VertexId n_;
  std::uint32_t num_colorsets_;
  std::size_t words_;  ///< bitmap words per row (ceil(colorsets / 64))
  // Raw pointer array so the nullptr fill can run under TableInit's
  // first-touch partition, exactly like the compact layout.
  std::unique_ptr<std::uint64_t*[]> rows_;
  std::vector<std::unique_ptr<Slab>> slabs_;  ///< guarded by slab_mutex_
  std::atomic<Slab*> current_slab_{nullptr};
  std::mutex slab_mutex_;
  std::atomic<std::size_t> slab_bytes_{0};  ///< capacity across slabs
  std::atomic<VertexId> active_{0};
  std::atomic<std::size_t> bitmap_rows_{0};
};

// get() is the kernels' fallback read path (kContiguousRows == false)
// — it must inline into the templated DP loops, so it lives here.
inline double SuccinctTable::get(VertexId v,
                                 ColorsetIndex idx) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  if (blob == nullptr) return 0.0;
  const auto nnz = static_cast<std::uint32_t>(blob[0]);
  if ((blob[0] >> 32) != 0) {  // bitmap mode
    const std::uint64_t* words = blob + 1;
    if (!colorset_bitmap_test(words, idx)) return 0.0;
    const auto* ranks = reinterpret_cast<const std::uint32_t*>(words + words_);
    const auto* values = reinterpret_cast<const double*>(
        blob + 1 + words_ + (words_ + 1) / 2);
    return values[colorset_bitmap_rank(words, ranks, idx)];
  }
  // sparse mode: binary search the sorted slot list
  const auto* values = reinterpret_cast<const double*>(blob + 1);
  const auto* slots = reinterpret_cast<const std::uint32_t*>(blob + 1 + nnz);
  std::uint32_t lo = 0;
  std::uint32_t hi = nnz;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (slots[mid] < idx) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return (lo < nnz && slots[lo] == idx) ? values[lo] : 0.0;
}

// Shared nonzero enumeration: calls emit(slot, value) in ascending slot
// order (the packed-value order), touching only stored entries.
template <class Emit>
inline void succinct_row_for_each(const std::uint64_t* blob,
                                  std::size_t bitmap_words, Emit&& emit) {
  const auto nnz = static_cast<std::uint32_t>(blob[0]);
  if ((blob[0] >> 32) != 0) {  // bitmap mode
    const std::uint64_t* words = blob + 1;
    const auto* values = reinterpret_cast<const double*>(
        blob + 1 + bitmap_words + (bitmap_words + 1) / 2);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < bitmap_words; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        emit(static_cast<ColorsetIndex>(w * 64 + b), values[rank++]);
        bits &= bits - 1;
      }
    }
  } else {  // sparse mode
    const auto* values = reinterpret_cast<const double*>(blob + 1);
    const auto* slots = reinterpret_cast<const std::uint32_t*>(blob + 1 + nnz);
    for (std::uint32_t i = 0; i < nnz; ++i) {
      emit(static_cast<ColorsetIndex>(slots[i]), values[i]);
    }
  }
}

inline void SuccinctTable::decode_row(VertexId v,
                                      double* out) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  const std::size_t width = num_colorsets_;
  if (blob == nullptr) {
    std::memset(out, 0, width * sizeof(double));
    return;
  }
  if ((blob[0] >> 32) != 0) {  // bitmap mode: per-word, full words memcpy
    const std::uint64_t* words = blob + 1;
    const auto* values = reinterpret_cast<const double*>(
        blob + 1 + words_ + (words_ + 1) / 2);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t base = w * 64;
      const std::size_t lim = std::min<std::size_t>(64, width - base);
      std::uint64_t bits = words[w];
      if (bits == ~std::uint64_t{0}) {
        std::memcpy(out + base, values + rank, 64 * sizeof(double));
        rank += 64;
        continue;
      }
      std::memset(out + base, 0, lim * sizeof(double));
      while (bits != 0) {
        out[base + std::countr_zero(bits)] = values[rank++];
        bits &= bits - 1;
      }
    }
    return;
  }
  std::memset(out, 0, width * sizeof(double));
  succinct_row_for_each(
      blob, words_, [&](ColorsetIndex idx, double value) { out[idx] = value; });
}

inline void SuccinctTable::add_row_into(VertexId v,
                                        double* out) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  if (blob == nullptr) return;
  if ((blob[0] >> 32) != 0) {  // bitmap mode: full words add contiguously
    const std::uint64_t* words = blob + 1;
    const auto* values = reinterpret_cast<const double*>(
        blob + 1 + words_ + (words_ + 1) / 2);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t base = w * 64;
      std::uint64_t bits = words[w];
      if (bits == ~std::uint64_t{0}) {
        const double* src = values + rank;
        double* dst = out + base;
        for (std::size_t b = 0; b < 64; ++b) dst[b] += src[b];
        rank += 64;
        continue;
      }
      while (bits != 0) {
        out[base + std::countr_zero(bits)] += values[rank++];
        bits &= bits - 1;
      }
    }
    return;
  }
  succinct_row_for_each(blob, words_, [&](ColorsetIndex idx, double value) {
    out[idx] += value;
  });
}

}  // namespace fascia
