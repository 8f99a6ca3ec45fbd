#include "engine/database.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mscm::engine {
namespace {

TEST(DatabaseTest, AddAndFindTable) {
  Database db;
  db.AddTable(test::SequentialTable("T1", 10));
  EXPECT_NE(db.FindTable("T1"), nullptr);
  EXPECT_EQ(db.FindTable("T2"), nullptr);
}

TEST(DatabaseTest, AddTableComputesStats) {
  Database db;
  db.AddTable(test::SequentialTable("T1", 10));
  EXPECT_TRUE(db.FindTable("T1")->has_stats());
}

TEST(DatabaseTest, CreateClusteredIndexSortsTable) {
  Database db;
  Table t("T", Schema({{"k", 8}, {"v", 8}}));
  t.AddRow({3, 0});
  t.AddRow({1, 1});
  t.AddRow({2, 2});
  db.AddTable(std::move(t));
  db.CreateIndex("T", 0, /*clustered=*/true);
  const Table* sorted = db.FindTable("T");
  EXPECT_EQ(sorted->value(0, 0), 1);
  EXPECT_EQ(sorted->value(0, 1), 1);
  EXPECT_EQ(sorted->sorted_by(), 0);
  EXPECT_NE(db.ClusteredIndexOn("T"), nullptr);
}

TEST(DatabaseTest, FindIndexByColumn) {
  Database db;
  db.AddTable(test::SequentialTable("T", 20));
  db.CreateIndex("T", 0, true);
  db.CreateIndex("T", 1, false);
  EXPECT_NE(db.FindIndex("T", 0), nullptr);
  EXPECT_NE(db.FindIndex("T", 1), nullptr);
  EXPECT_EQ(db.FindIndex("T", 5), nullptr);
  EXPECT_TRUE(db.FindIndex("T", 0)->clustered());
  EXPECT_FALSE(db.FindIndex("T", 1)->clustered());
}

TEST(DatabaseTest, IndexesOnUnknownTableEmpty) {
  Database db;
  EXPECT_TRUE(db.IndexesOn("nope").empty());
  EXPECT_EQ(db.ClusteredIndexOn("nope"), nullptr);
}

TEST(DatabaseTest, TableNamesSorted) {
  Database db;
  db.AddTable(test::SequentialTable("B", 5));
  db.AddTable(test::SequentialTable("A", 5));
  const auto names = db.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "A");
  EXPECT_EQ(names[1], "B");
}

}  // namespace
}  // namespace mscm::engine
