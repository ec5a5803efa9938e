#include "comb/split_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

namespace fascia {
namespace {

struct SplitParam {
  int k;
  int h;
  int a;
};

class SplitTableProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SplitTableProperty, EverySplitIsDisjointUnionOfParent) {
  const auto [k, h, a] = GetParam();
  const SplitTable table(k, h, a);
  EXPECT_EQ(table.num_parents(), num_colorsets(k, h));
  EXPECT_EQ(table.splits_per_parent(), num_colorsets(h, a));

  for (ColorsetIndex parent = 0; parent < table.num_parents(); ++parent) {
    const auto parent_colors = colorset_colors(parent, h);
    const auto actives = table.active_indices(parent);
    const auto passives = table.passive_indices(parent);
    ASSERT_EQ(actives.size(), passives.size());
    std::set<std::pair<ColorsetIndex, ColorsetIndex>> unique;
    for (std::size_t s = 0; s < actives.size(); ++s) {
      const auto act = colorset_colors(actives[s], a);
      const auto pas = colorset_colors(passives[s], h - a);
      // Disjoint union == parent.
      std::vector<int> merged;
      std::merge(act.begin(), act.end(), pas.begin(), pas.end(),
                 std::back_inserter(merged));
      ASSERT_EQ(merged, parent_colors);
      EXPECT_TRUE(unique.emplace(actives[s], passives[s]).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitTableProperty,
    ::testing::Values(SplitParam{3, 2, 1}, SplitParam{5, 3, 1},
                      SplitParam{5, 4, 2}, SplitParam{7, 5, 2},
                      SplitParam{7, 7, 3}, SplitParam{10, 6, 3},
                      SplitParam{12, 5, 2}));

TEST_P(SplitTableProperty, ParentMajorViewMatchesPerParentSpans) {
  const auto [k, h, a] = GetParam();
  const SplitTable table(k, h, a);
  const auto all_act = table.all_actives();
  const auto all_pas = table.all_passives();
  ASSERT_EQ(table.flat_size(),
            static_cast<std::size_t>(table.num_parents()) *
                table.splits_per_parent());
  ASSERT_EQ(all_act.size(), table.flat_size());
  ASSERT_EQ(all_pas.size(), table.flat_size());
  for (ColorsetIndex parent = 0; parent < table.num_parents(); ++parent) {
    const auto actives = table.active_indices(parent);
    const auto passives = table.passive_indices(parent);
    const std::size_t base =
        static_cast<std::size_t>(parent) * table.splits_per_parent();
    for (std::size_t s = 0; s < actives.size(); ++s) {
      EXPECT_EQ(all_act[base + s], actives[s]);
      EXPECT_EQ(all_pas[base + s], passives[s]);
    }
  }
}

TEST_P(SplitTableProperty, ActiveGroupedViewCoversAllSplits) {
  const auto [k, h, a] = GetParam();
  const SplitTable table(k, h, a);
  EXPECT_EQ(table.num_actives(), num_colorsets(k, a));
  EXPECT_EQ(table.per_active(), num_colorsets(k - a, h - a));

  // Collect the ground-truth (active, parent, passive) triples from
  // the per-parent view.
  std::set<std::tuple<ColorsetIndex, ColorsetIndex, ColorsetIndex>> expected;
  for (ColorsetIndex parent = 0; parent < table.num_parents(); ++parent) {
    const auto actives = table.active_indices(parent);
    const auto passives = table.passive_indices(parent);
    for (std::size_t s = 0; s < actives.size(); ++s) {
      expected.emplace(actives[s], parent, passives[s]);
    }
  }

  std::set<std::tuple<ColorsetIndex, ColorsetIndex, ColorsetIndex>> grouped;
  for (ColorsetIndex act = 0; act < table.num_actives(); ++act) {
    const auto parents = table.group_parents(act);
    const auto passives = table.group_passives(act);
    ASSERT_EQ(parents.size(), table.per_active());
    ASSERT_EQ(passives.size(), table.per_active());
    std::set<ColorsetIndex> parents_seen;
    for (std::size_t s = 0; s < parents.size(); ++s) {
      // Passives ascend within a group (monotone gather) ...
      if (s > 0) {
        EXPECT_LT(passives[s - 1], passives[s]);
      }
      // ... and parents are distinct (conflict-free scatter).
      EXPECT_TRUE(parents_seen.insert(parents[s]).second);
      grouped.emplace(act, parents[s], passives[s]);
    }
  }
  EXPECT_EQ(grouped, expected);
}

TEST(SplitTable, RejectsBadShapes) {
  EXPECT_THROW(SplitTable(5, 3, 0), std::invalid_argument);
  EXPECT_THROW(SplitTable(5, 3, 3), std::invalid_argument);
  EXPECT_THROW(SplitTable(5, 6, 2), std::invalid_argument);
}

TEST(SplitTable, BytesPositive) {
  EXPECT_GT(SplitTable(7, 4, 2).bytes(), 0u);
}

class SingleActiveProperty : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SingleActiveProperty, EntriesAreParentMinusColor) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  for (int c = 0; c < k; ++c) {
    const auto entries = split.entries(c);
    EXPECT_EQ(entries.size(),
              static_cast<std::size_t>(num_colorsets(k - 1, h - 1)));
    std::set<ColorsetIndex> parents_seen;
    for (const auto& entry : entries) {
      const auto parent_colors = colorset_colors(entry.parent, h);
      const auto passive_colors = colorset_colors(entry.passive, h - 1);
      // Parent = passive + {c}.
      EXPECT_TRUE(std::binary_search(parent_colors.begin(),
                                     parent_colors.end(), c));
      std::vector<int> expected = passive_colors;
      expected.insert(std::upper_bound(expected.begin(), expected.end(), c),
                      c);
      EXPECT_EQ(expected, parent_colors);
      EXPECT_TRUE(parents_seen.insert(entry.parent).second);
    }
  }
}

TEST_P(SingleActiveProperty, EveryParentContainingColorAppears) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  for (int c = 0; c < k; ++c) {
    std::set<ColorsetIndex> covered;
    for (const auto& entry : split.entries(c)) covered.insert(entry.parent);
    for (ColorsetIndex parent = 0; parent < num_colorsets(k, h); ++parent) {
      EXPECT_EQ(covered.count(parent) > 0, colorset_contains(parent, h, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SingleActiveProperty,
    ::testing::Values(SplitParam{3, 2, 0}, SplitParam{5, 3, 0},
                      SplitParam{7, 4, 0}, SplitParam{10, 7, 0},
                      SplitParam{12, 12, 0}));

TEST_P(SingleActiveProperty, SoaViewMirrorsEntries) {
  const auto [k, h, a_unused] = GetParam();
  (void)a_unused;
  const SingleActiveSplit split(k, h);
  for (int c = 0; c < k; ++c) {
    const auto entries = split.entries(c);
    const auto passives = split.passives(c);
    const auto parents = split.parents(c);
    ASSERT_EQ(passives.size(), entries.size());
    ASSERT_EQ(parents.size(), entries.size());
    for (std::size_t s = 0; s < entries.size(); ++s) {
      EXPECT_EQ(passives[s], entries[s].passive);
      EXPECT_EQ(parents[s], entries[s].parent);
    }
  }
}

TEST(SingleActiveSplit, RejectsBadShapes) {
  EXPECT_THROW(SingleActiveSplit(5, 1), std::invalid_argument);
  EXPECT_THROW(SingleActiveSplit(5, 6), std::invalid_argument);
}

}  // namespace
}  // namespace fascia
