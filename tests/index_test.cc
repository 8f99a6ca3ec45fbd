#include "engine/index.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mscm::engine {
namespace {

TEST(IndexTest, LookupReturnsMatchingRows) {
  Table t = test::SequentialTable("T", 100);
  const Index idx(t, 0, /*clustered=*/false);
  const auto rows = idx.Lookup(10, 14);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(t.value(rows[i], 0), static_cast<int64_t>(10 + i));
  }
}

TEST(IndexTest, LookupEmptyRange) {
  Table t = test::SequentialTable("T", 100);
  const Index idx(t, 0, false);
  EXPECT_TRUE(idx.Lookup(200, 300).empty());
  EXPECT_TRUE(idx.Lookup(50, 49).empty());
}

TEST(IndexTest, LookupDuplicateKeys) {
  Table t = test::SequentialTable("T", 100, /*mod=*/10);
  const Index idx(t, 1, false);
  // Key 3 appears 10 times in column 1.
  EXPECT_EQ(idx.Lookup(3, 3).size(), 10u);
  EXPECT_EQ(idx.CountRange(3, 3), 10u);
}

TEST(IndexTest, CountRangeMatchesLookupSize) {
  Table t = test::SequentialTable("T", 500, /*mod=*/37);
  const Index idx(t, 1, false);
  for (int64_t lo = 0; lo < 37; lo += 5) {
    EXPECT_EQ(idx.CountRange(lo, lo + 7), idx.Lookup(lo, lo + 7).size());
  }
}

TEST(IndexTest, ClusteredRequiresSortedTable) {
  Table t = test::SequentialTable("T", 50);
  t.SortByColumn(0);
  const Index idx(t, 0, /*clustered=*/true);
  EXPECT_TRUE(idx.clustered());
  EXPECT_EQ(idx.Lookup(5, 9).size(), 5u);
}

TEST(IndexTest, TreeHeightGrowsWithSize) {
  Table small = test::SequentialTable("S", 100);
  Table big = test::SequentialTable("B", 100000);
  const Index i_small(small, 0, false);
  const Index i_big(big, 0, false);
  EXPECT_GE(i_big.TreeHeight(), i_small.TreeHeight());
  EXPECT_GE(i_small.TreeHeight(), 1);
  EXPECT_EQ(i_big.TreeHeight(), 3);  // ceil(log_256(1e5)) = 3
}

TEST(IndexTest, NumEntriesMatchesTable) {
  Table t = test::SequentialTable("T", 321);
  const Index idx(t, 0, false);
  EXPECT_EQ(idx.num_entries(), 321u);
}

}  // namespace
}  // namespace mscm::engine
