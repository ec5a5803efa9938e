#include <gtest/gtest.h>

#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {
namespace {

// Typed test: the four layouts share one behavioural contract.
template <class T>
class TableContract : public ::testing::Test {};

using TableKinds =
    ::testing::Types<NaiveTable, CompactTable, HashTable, SuccinctTable>;
TYPED_TEST_SUITE(TableContract, TableKinds);

TYPED_TEST(TableContract, FreshTableReadsZero) {
  TypeParam table(10, 6);
  for (VertexId v = 0; v < 10; ++v) {
    for (ColorsetIndex c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(table.get(v, c), 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(table_total(table), 0.0);
}

TYPED_TEST(TableContract, CommitThenReadBack) {
  TypeParam table(5, 4);
  const std::vector<double> row = {1.0, 0.0, 2.5, 0.0};
  table.commit_row(3, row);
  EXPECT_DOUBLE_EQ(table.get(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(table.get(3, 1), 0.0);
  EXPECT_DOUBLE_EQ(table.get(3, 2), 2.5);
  EXPECT_DOUBLE_EQ(table.get(2, 0), 0.0);
  EXPECT_TRUE(table.has_vertex(3));
}

TYPED_TEST(TableContract, TotalsAndVertexTotals) {
  TypeParam table(4, 3);
  table.commit_row(0, std::vector<double>{1.0, 2.0, 0.0});
  table.commit_row(2, std::vector<double>{0.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(table_total(table), 7.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(0), 3.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(1), 0.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(2), 4.0);
}

TYPED_TEST(TableContract, TotalSumsVertexTotalsInVertexOrder) {
  // Past 2^53 doubles round, so the summation order is part of the
  // result.  Every layout sums vertex_total(v) over ascending v, so
  // this table totals 2^53 + 2 everywhere; one running sum over all
  // cells would round 2^53 + 1 back down twice and return 2^53.
  constexpr double kTwo53 = 9007199254740992.0;
  TypeParam table(2, 2);
  table.commit_row(0, std::vector<double>{kTwo53, 0.0});
  table.commit_row(1, std::vector<double>{1.0, 1.0});
  EXPECT_EQ(table_total(table), kTwo53 + 2.0);
}

TYPED_TEST(TableContract, NumColorsetsReported) {
  TypeParam table(3, 17);
  EXPECT_EQ(table.num_colorsets(), 17u);
}

TYPED_TEST(TableContract, BytesNonZero) {
  TypeParam table(100, 10);
  table.commit_row(0, std::vector<double>(10, 1.0));
  EXPECT_GT(table.bytes(), 0u);
}

TYPED_TEST(TableContract, MemTrackerBalanced) {
  MemTracker::reset_all();
  {
    TypeParam table(50, 8);
    table.commit_row(1, std::vector<double>(8, 1.0));
    EXPECT_GT(MemTracker::current(), 0u);
  }
  EXPECT_EQ(MemTracker::current(), 0u);
}

TYPED_TEST(TableContract, ConcurrentCommitsDistinctVertices) {
  constexpr VertexId kN = 500;
  TypeParam table(kN, 5);
#ifdef _OPENMP
#pragma omp parallel for
#endif
  for (VertexId v = 0; v < kN; ++v) {
    std::vector<double> row(5, static_cast<double>(v + 1));
    table.commit_row(v, row);
  }
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_DOUBLE_EQ(table.get(v, 3), static_cast<double>(v + 1));
  }
}

// ---- row-borrow contract (vectorized kernels) ---------------------------
// kContiguousRows == true promises: row_ptr(v) is non-null whenever
// has_vertex(v), and the returned row reads element-for-element like
// get(v, .).  kContiguousRows == false promises row_ptr always null,
// so kernels fall back to get().

TYPED_TEST(TableContract, RowBorrowMatchesGet) {
  TypeParam table(6, 4);
  table.commit_row(2, std::vector<double>{1.0, 0.0, 3.0, 4.0});
  table.commit_row(4, std::vector<double>{0.0, 2.0, 0.0, 0.0});
  for (VertexId v = 0; v < 6; ++v) {
    const double* row = table.row_ptr(v);
    if constexpr (TypeParam::kContiguousRows) {
      if (table.has_vertex(v)) {
        ASSERT_NE(row, nullptr);
        for (ColorsetIndex c = 0; c < 4; ++c) {
          EXPECT_DOUBLE_EQ(row[c], table.get(v, c));
        }
      }
    } else {
      EXPECT_EQ(row, nullptr);
    }
  }
}

TEST(NaiveTable, RowPtrNeverNull) {
  static_assert(NaiveTable::kContiguousRows);
  NaiveTable table(3, 2);
  // Dense layout: every vertex has a row, committed or not.
  for (VertexId v = 0; v < 3; ++v) {
    ASSERT_NE(table.row_ptr(v), nullptr);
    EXPECT_DOUBLE_EQ(table.row_ptr(v)[0], 0.0);
  }
}

TEST(CompactTable, RowPtrNullMirrorsHasVertex) {
  static_assert(CompactTable::kContiguousRows);
  CompactTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});  // rejected
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(table.row_ptr(v) != nullptr, table.has_vertex(v));
  }
}

TEST(HashTable, RowPtrAlwaysNull) {
  static_assert(!HashTable::kContiguousRows);
  HashTable table(3, 2);
  table.commit_row(1, std::vector<double>{5.0, 6.0});
  EXPECT_EQ(table.row_ptr(1), nullptr);
}

// ---- layout-specific behaviour -----------------------------------------

TEST(NaiveTable, HasVertexAlwaysTrue) {
  NaiveTable table(4, 2);
  EXPECT_TRUE(table.has_vertex(0));  // no skip optimization by design
}

TEST(CompactTable, EmptyRowNotAllocated) {
  CompactTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_FALSE(table.has_vertex(1));
  EXPECT_EQ(table.num_active_vertices(), 0);
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  EXPECT_EQ(table.num_active_vertices(), 1);
}

TEST(CompactTable, UsesLessMemoryThanNaiveWhenSparse) {
  MemTracker::reset_all();
  std::size_t naive_bytes = 0, compact_bytes = 0;
  {
    NaiveTable naive(10000, 100);
    naive_bytes = naive.bytes();
  }
  {
    CompactTable compact(10000, 100);
    compact.commit_row(5, std::vector<double>(100, 1.0));
    compact_bytes = compact.bytes();
  }
  EXPECT_LT(compact_bytes, naive_bytes / 10);
}

TEST(HashTable, GrowsPastInitialCapacity) {
  HashTable table(5000, 4);
  std::vector<double> row = {1.0, 2.0, 3.0, 4.0};
  for (VertexId v = 0; v < 5000; ++v) table.commit_row(v, row);
  EXPECT_EQ(table.num_entries(), 20000u);
  for (VertexId v = 0; v < 5000; ++v) {
    ASSERT_DOUBLE_EQ(table.get(v, 2), 3.0);
  }
}

TEST(HashTable, SparseFootprintBeatsDense) {
  // One active vertex among many: the paper's high-selectivity regime
  // (Fig. 7).  Compare against the dense layout's *computed* footprint
  // rather than allocating gigabytes in a unit test.
  HashTable hash(1 << 20, 924);
  hash.commit_row(12345, std::vector<double>(924, 1.0));
  const std::size_t dense_bytes =
      std::size_t{1 << 20} * 924 * sizeof(double);
  EXPECT_LT(hash.bytes(), dense_bytes / 100);
}

TEST(HashTable, OverwriteSameKey) {
  HashTable table(3, 2);
  table.commit_row(1, std::vector<double>{5.0, 0.0});
  table.commit_row(1, std::vector<double>{7.0, 1.0});
  EXPECT_DOUBLE_EQ(table.get(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(table.get(1, 1), 1.0);
}

// ---- succinct layout ----------------------------------------------------

TEST(SuccinctTable, EmptyRowNotAllocated) {
  SuccinctTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_FALSE(table.has_vertex(1));
  EXPECT_EQ(table.num_active_vertices(), 0);
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  EXPECT_EQ(table.num_active_vertices(), 1);
}

TEST(SuccinctTable, DensityPicksBitmapOrSortedSlots) {
  // 256 colorsets: the bitmap header is 4 words + 2 rank words = 6
  // words per row, a sorted-slot row is ~1.5 words per nonzero — so a
  // dense row must choose the bitmap and a 1-nonzero row the slots.
  constexpr std::uint32_t kWidth = 256;
  SuccinctTable table(4, kWidth);
  std::vector<double> dense(kWidth, 2.0);
  table.commit_row(0, dense);
  std::vector<double> sparse(kWidth, 0.0);
  sparse[200] = 7.0;
  table.commit_row(1, sparse);
  EXPECT_EQ(table.num_bitmap_rows(), 1u);
  EXPECT_EQ(table.num_sparse_rows(), 1u);
  for (ColorsetIndex c = 0; c < kWidth; ++c) {
    EXPECT_DOUBLE_EQ(table.get(0, c), 2.0);
    EXPECT_DOUBLE_EQ(table.get(1, c), c == 200 ? 7.0 : 0.0);
  }
}

TEST(SuccinctTable, DecodeRowRoundTripsBothModes) {
  // Width > 64 exercises the multi-word bitmap paths, including the
  // all-ones fast path for word 0 of the dense row.
  constexpr std::uint32_t kWidth = 100;
  SuccinctTable table(3, kWidth);
  std::vector<double> dense(kWidth);
  for (std::uint32_t c = 0; c < kWidth; ++c) {
    dense[c] = c % 7 == 3 ? 0.0 : static_cast<double>(c + 1);
  }
  std::vector<double> mostly_full(kWidth, 1.0);
  mostly_full[70] = 0.0;  // word 0 stays all-ones, word 1 does not
  std::vector<double> sparse(kWidth, 0.0);
  sparse[3] = 5.0;
  sparse[64] = 6.0;
  table.commit_row(0, dense);
  table.commit_row(1, mostly_full);
  table.commit_row(2, sparse);
  std::vector<double> out(kWidth, -1.0);
  for (VertexId v = 0; v < 3; ++v) {
    const std::vector<double>& expect =
        v == 0 ? dense : (v == 1 ? mostly_full : sparse);
    table.decode_row(v, out.data());
    EXPECT_EQ(out, expect) << "vertex " << v;
  }
}

TEST(SuccinctTable, AddRowIntoAccumulates) {
  constexpr std::uint32_t kWidth = 80;
  SuccinctTable table(2, kWidth);
  std::vector<double> a(kWidth, 1.0);  // word 0 all-ones fast path
  std::vector<double> b(kWidth, 0.0);
  b[10] = 3.0;
  b[79] = 4.0;
  table.commit_row(0, a);
  table.commit_row(1, b);
  std::vector<double> acc(kWidth, 1.0);
  table.add_row_into(0, acc.data());
  table.add_row_into(1, acc.data());
  for (std::uint32_t c = 0; c < kWidth; ++c) {
    double expect = 2.0;
    if (c == 10) expect += 3.0;
    if (c == 79) expect += 4.0;
    EXPECT_DOUBLE_EQ(acc[c], expect) << "slot " << c;
  }
}

TEST(SuccinctTable, ForEachNonzeroAscendingSlots) {
  SuccinctTable table(1, 130);
  std::vector<double> row(130, 0.0);
  row[0] = 1.0;
  row[63] = 2.0;
  row[64] = 3.0;
  row[129] = 4.0;
  table.commit_row(0, row);
  std::vector<std::pair<ColorsetIndex, double>> seen;
  table.for_each_nonzero(0, [&](ColorsetIndex idx, double value) {
    seen.emplace_back(idx, value);
  });
  const std::vector<std::pair<ColorsetIndex, double>> expect = {
      {0, 1.0}, {63, 2.0}, {64, 3.0}, {129, 4.0}};
  EXPECT_EQ(seen, expect);
}

TEST(SuccinctTable, RecommitReplacesRow) {
  // The restore path (checkpoint / spill page-in) re-commits rows;
  // the old blob strands in its slab but readers must see only the
  // new encoding, across a mode flip.
  constexpr std::uint32_t kWidth = 256;
  SuccinctTable table(2, kWidth);
  table.commit_row(0, std::vector<double>(kWidth, 1.0));  // bitmap
  EXPECT_EQ(table.num_bitmap_rows(), 1u);
  std::vector<double> sparse(kWidth, 0.0);
  sparse[17] = 9.0;
  table.commit_row(0, sparse);  // flips to sorted slots
  EXPECT_EQ(table.num_bitmap_rows(), 0u);
  EXPECT_EQ(table.num_sparse_rows(), 1u);
  for (ColorsetIndex c = 0; c < kWidth; ++c) {
    EXPECT_DOUBLE_EQ(table.get(0, c), c == 17 ? 9.0 : 0.0);
  }
  EXPECT_DOUBLE_EQ(table.vertex_total(0), 9.0);
}

TEST(SuccinctTable, SparseFootprintBeatsCompact) {
  // Fig. 7's regime: the whole point of the layout.  Compact pays the
  // full row width per active vertex; succinct pays ~12 B per nonzero
  // (plus slab slack bounded by one geometric growth step).
  constexpr VertexId kN = 20000;
  constexpr std::uint32_t kWidth = 924;  // C(12,6): the k = 12 midpoint
  SuccinctTable succinct(kN, kWidth);
  CompactTable compact(kN, kWidth);
  std::vector<double> row(kWidth, 0.0);
  for (std::uint32_t c = 0; c < kWidth; c += 16) row[c] = 1.0;
  for (VertexId v = 0; v < kN; ++v) {
    succinct.commit_row(v, row);
    compact.commit_row(v, row);
  }
  EXPECT_LT(succinct.bytes(), compact.bytes() / 4);
  EXPECT_DOUBLE_EQ(table_total(succinct), table_total(compact));
}

TEST(SuccinctTable, BytesCoverSlabsAndMemTrackerBalances) {
  MemTracker::reset_all();
  const std::size_t before = MemTracker::current();
  {
    SuccinctTable table(1000, 64);
    std::vector<double> row(64, 1.0);
    for (VertexId v = 0; v < 1000; ++v) table.commit_row(v, row);
    // bytes() reports slab *capacity* (the allocation), never less
    // than the handed-out blobs: 1000 rows x (1 header + 1 bitmap +
    // 1 rank + 64 values) words, plus the row-pointer array.
    const std::size_t floor_bytes =
        1000 * sizeof(std::uint64_t*) + 1000 * 67 * sizeof(std::uint64_t);
    EXPECT_GE(table.bytes(), floor_bytes);
    EXPECT_EQ(MemTracker::current() - before, table.bytes());
  }
  EXPECT_EQ(MemTracker::current(), before);
}

}  // namespace
}  // namespace fascia
