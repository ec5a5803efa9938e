#include "dp/table_succinct.hpp"

#include <algorithm>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

namespace {

// 64 KiB starting slab; grows geometrically so a table of any size
// settles into O(log) slab allocations.
constexpr std::size_t kMinSlabWords = 8192;

}  // namespace

SuccinctTable::SuccinctTable(VertexId n, std::uint32_t num_colorsets,
                             TableInit init)
    : n_(n),
      num_colorsets_(num_colorsets),
      words_(colorset_bitmap_words(num_colorsets)) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  rows_ = std::make_unique_for_overwrite<std::uint64_t*[]>(
      static_cast<std::size_t>(n_));
  detail::first_touch_zero(rows_.get(), static_cast<std::size_t>(n_),
                           init.zero_threads);
  MemTracker::add(static_cast<std::size_t>(n_) * sizeof(std::uint64_t*));
}

SuccinctTable::~SuccinctTable() { MemTracker::sub(bytes()); }

std::uint64_t* SuccinctTable::alloc_blob(std::size_t total_words) {
  for (;;) {
    Slab* slab = current_slab_.load(std::memory_order_acquire);
    if (slab != nullptr) {
      const std::size_t off =
          slab->offset.fetch_add(total_words, std::memory_order_relaxed);
      if (off + total_words <= slab->capacity) return slab->data.get() + off;
    }
    std::lock_guard<std::mutex> lock(slab_mutex_);
    if (current_slab_.load(std::memory_order_acquire) != slab) {
      continue;  // another thread already installed a fresh slab
    }
    const std::size_t prev = slab != nullptr ? slab->capacity : 0;
    const std::size_t capacity =
        std::max({total_words, prev * 2, kMinSlabWords});
    auto fresh = std::make_unique<Slab>();
    fresh->data = std::make_unique_for_overwrite<std::uint64_t[]>(capacity);
    fresh->capacity = capacity;
    MemTracker::add(capacity * sizeof(std::uint64_t));
    slab_bytes_.fetch_add(capacity * sizeof(std::uint64_t),
                          std::memory_order_relaxed);
    current_slab_.store(fresh.get(), std::memory_order_release);
    slabs_.push_back(std::move(fresh));
  }
}

void SuccinctTable::commit_row(VertexId v, std::span<const double> row) {
  // One branchless pass builds the occupancy bitmap in per-thread
  // scratch and counts nonzeros by popcount; everything after touches
  // only stored entries (plus one bitmap copy), so a commit costs one
  // vectorizable width scan + O(nnz) — within arm's reach of compact's
  // any_of + memcpy.
  thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(words_);
  std::uint32_t nnz = 0;
  const double* in = row.data();
  const std::size_t width = row.size();
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, width - base);
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < lim; ++b) {
      bits |= static_cast<std::uint64_t>(in[base + b] != 0.0) << b;
    }
    scratch[w] = bits;
    nnz += static_cast<std::uint32_t>(std::popcount(bits));
  }
  if (nnz == 0) return;

  const std::size_t sparse_words = blob_words_sparse(nnz);
  const std::size_t bitmap_words_total = blob_words_bitmap(nnz);
  const bool bitmap = bitmap_words_total <= sparse_words;
  const std::size_t total_words = bitmap ? bitmap_words_total : sparse_words;

  std::uint64_t* blob = alloc_blob(total_words);
  blob[0] = nnz | (bitmap ? (std::uint64_t{1} << 32) : 0);
  if (bitmap) {
    std::uint64_t* words = blob + 1;
    std::memcpy(words, scratch.data(), words_ * sizeof(std::uint64_t));
    auto* ranks = reinterpret_cast<std::uint32_t*>(words + words_);
    auto* values =
        reinterpret_cast<double*>(blob + 1 + words_ + (words_ + 1) / 2);
    std::uint32_t out = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = scratch[w];
      if (bits == ~std::uint64_t{0}) {
        std::memcpy(values + out, in + w * 64, 64 * sizeof(double));
        out += 64;
        continue;
      }
      while (bits != 0) {
        values[out++] = in[w * 64 + std::countr_zero(bits)];
        bits &= bits - 1;
      }
    }
    colorset_bitmap_build_ranks(words, words_, ranks);
  } else {
    auto* values = reinterpret_cast<double*>(blob + 1);
    auto* slots = reinterpret_cast<std::uint32_t*>(blob + 1 + nnz);
    std::uint32_t out = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = scratch[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        values[out] = in[w * 64 + b];
        slots[out++] = static_cast<std::uint32_t>(w * 64 + b);
        bits &= bits - 1;
      }
    }
  }

  std::uint64_t*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    active_.fetch_add(1, std::memory_order_relaxed);
  } else if ((slot[0] >> 32) != 0) {
    // Recommit (restore path): the old blob strands in its slab.
    bitmap_rows_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (bitmap) bitmap_rows_.fetch_add(1, std::memory_order_relaxed);
  slot = blob;
}

double SuccinctTable::vertex_total(VertexId v) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  if (blob == nullptr) return 0.0;
  const auto nnz = static_cast<std::uint32_t>(blob[0]);
  const auto* values =
      (blob[0] >> 32) != 0
          ? reinterpret_cast<const double*>(blob + 1 + words_ +
                                            (words_ + 1) / 2)
          : reinterpret_cast<const double*>(blob + 1);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < nnz; ++i) sum += values[i];
  return sum;
}

std::size_t SuccinctTable::bytes() const noexcept {
  return static_cast<std::size_t>(n_) * sizeof(std::uint64_t*) +
         slab_bytes_.load(std::memory_order_relaxed);
}

}  // namespace fascia
