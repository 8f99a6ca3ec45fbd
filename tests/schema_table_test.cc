#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/schema.h"
#include "engine/table.h"
#include "tests/test_util.h"

namespace mscm::engine {
namespace {

TEST(SchemaTest, ColumnLookup) {
  const Schema s({{"a1", 8}, {"a2", 16}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.ColumnIndex("a2"), 1);
  EXPECT_EQ(s.ColumnIndex("zz"), -1);
}

TEST(SchemaTest, TupleBytesSumsWidths) {
  const Schema s({{"a1", 8}, {"a2", 16}, {"a3", 20}});
  EXPECT_EQ(s.TupleBytes(), 44);
}

TEST(TableTest, AddAndAccessRows) {
  Table t = test::SequentialTable("T", 5);
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.value(3, 0), 3);
  EXPECT_EQ(t.value(3, 1), 3);
}

TEST(TableTest, RowsPerPageFromTupleWidth) {
  // 16-byte tuples -> 512 rows in an 8192-byte page.
  Table t = test::SequentialTable("T", 10);
  EXPECT_EQ(t.RowsPerPage(), 512u);
}

TEST(TableTest, NumPagesRoundsUp) {
  Table t = test::SequentialTable("T", 513);
  EXPECT_EQ(t.NumPages(), 2u);
  Table t2 = test::SequentialTable("T2", 512);
  EXPECT_EQ(t2.NumPages(), 1u);
  Table empty("E", Schema({{"x", 8}}));
  EXPECT_EQ(empty.NumPages(), 0u);
}

TEST(TableTest, PageOfRow) {
  Table t = test::SequentialTable("T", 1100);
  EXPECT_EQ(t.PageOfRow(0), 0u);
  EXPECT_EQ(t.PageOfRow(511), 0u);
  EXPECT_EQ(t.PageOfRow(512), 1u);
  EXPECT_EQ(t.PageOfRow(1099), 2u);
}

TEST(TableTest, StatsMinMaxDistinct) {
  Table t = test::SequentialTable("T", 100, /*mod=*/7);
  t.RecomputeStats();
  EXPECT_EQ(t.column_stats(0).min, 0);
  EXPECT_EQ(t.column_stats(0).max, 99);
  EXPECT_EQ(t.column_stats(0).distinct, 100);
  EXPECT_EQ(t.column_stats(1).distinct, 7);
}

TEST(TableTest, SortByColumnSetsSortedBy) {
  Table t("T", Schema({{"c0", 8}}));
  t.AddRow({5});
  t.AddRow({1});
  t.AddRow({3});
  EXPECT_EQ(t.sorted_by(), -1);
  t.SortByColumn(0);
  EXPECT_EQ(t.sorted_by(), 0);
  EXPECT_EQ(t.value(0, 0), 1);
  EXPECT_EQ(t.value(2, 0), 5);
}

TEST(TableTest, SortIsStable) {
  Table t("T", Schema({{"k", 8}, {"v", 8}}));
  t.AddRow({1, 100});
  t.AddRow({0, 200});
  t.AddRow({1, 300});
  t.SortByColumn(0);
  EXPECT_EQ(t.value(1, 1), 100);
  EXPECT_EQ(t.value(2, 1), 300);

  // Every column follows the order a stable sort of whole rows gives.
  Rng rng(3);
  Table big("B", Schema({{"k", 8}, {"a", 8}, {"b", 16}}));
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({rng.UniformInt(0, 49), i, rng.UniformInt(-1000, 1000)});
    big.AddRow(rows.back());
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a[0] < b[0]; });
  big.SortByColumn(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) ASSERT_EQ(big.value(i, c), rows[i][c]);
  }
}

}  // namespace
}  // namespace mscm::engine
