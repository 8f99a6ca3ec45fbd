#include "engine/table_generator.h"

#include <gtest/gtest.h>

namespace mscm::engine {
namespace {

TEST(TableGeneratorTest, PaperCardinalitiesSpanPaperRange) {
  EXPECT_EQ(PaperCardinality(1), 3000u);
  EXPECT_EQ(PaperCardinality(12), 250000u);
  for (int i = 1; i < 12; ++i) {
    EXPECT_LT(PaperCardinality(i), PaperCardinality(i + 1));
  }
}

TEST(TableGeneratorTest, GeneratesRequestedTables) {
  TableGeneratorConfig config;
  config.num_tables = 5;
  config.scale = 0.01;
  Rng rng(1);
  const Database db = GenerateDatabase(config, rng);
  EXPECT_EQ(db.TableNames().size(), 5u);
  EXPECT_NE(db.FindTable("R1"), nullptr);
  EXPECT_NE(db.FindTable("R5"), nullptr);
  EXPECT_EQ(db.FindTable("R6"), nullptr);
}

TEST(TableGeneratorTest, ScaleControlsCardinality) {
  TableGeneratorConfig config;
  config.num_tables = 1;
  config.scale = 0.1;
  Rng rng(2);
  const Database db = GenerateDatabase(config, rng);
  EXPECT_EQ(db.FindTable("R1")->num_rows(), 300u);
}

TEST(TableGeneratorTest, MinimumCardinalityEnforced) {
  TableGeneratorConfig config;
  config.num_tables = 1;
  config.scale = 1e-9;
  Rng rng(3);
  const Database db = GenerateDatabase(config, rng);
  EXPECT_GE(db.FindTable("R1")->num_rows(), 64u);
}

TEST(TableGeneratorTest, IndexesCreatedPerConfig) {
  TableGeneratorConfig config;
  config.num_tables = 2;
  config.scale = 0.01;
  Rng rng(4);
  const Database db = GenerateDatabase(config, rng);
  for (const std::string name : {"R1", "R2"}) {
    EXPECT_NE(db.ClusteredIndexOn(name), nullptr) << name;
    EXPECT_NE(db.FindIndex(name, 1), nullptr) << name;
    EXPECT_NE(db.FindIndex(name, 2), nullptr) << name;
    EXPECT_EQ(db.IndexesOn(name).size(), 3u) << name;
  }
}

TEST(TableGeneratorTest, NoIndexesWhenDisabled) {
  TableGeneratorConfig config;
  config.num_tables = 1;
  config.scale = 0.01;
  config.clustered_indexes = false;
  config.nonclustered_indexes = false;
  Rng rng(5);
  const Database db = GenerateDatabase(config, rng);
  EXPECT_TRUE(db.IndexesOn("R1").empty());
}

TEST(TableGeneratorTest, TupleWidthsVaryAcrossTables) {
  TableGeneratorConfig config;
  config.num_tables = 6;
  config.scale = 0.01;
  Rng rng(6);
  const Database db = GenerateDatabase(config, rng);
  std::set<int> widths;
  for (const std::string& name : db.TableNames()) {
    widths.insert(db.FindTable(name)->schema().TupleBytes());
  }
  EXPECT_GT(widths.size(), 1u);
}

TEST(TableGeneratorTest, JoinColumnDomainSharedAcrossTables) {
  // Column a5 (index 4) must have the same domain in every table so
  // cross-table equijoins are meaningful.
  TableGeneratorConfig config;
  config.num_tables = 4;
  config.scale = 0.05;
  Rng rng(7);
  const Database db = GenerateDatabase(config, rng);
  for (const std::string& name : db.TableNames()) {
    const auto& s = db.FindTable(name)->column_stats(4);
    EXPECT_GE(s.min, 0) << name;
    EXPECT_LT(s.max, 5000) << name;
  }
}

TEST(TableGeneratorTest, DeterministicForSameSeed) {
  TableGeneratorConfig config;
  config.num_tables = 2;
  config.scale = 0.01;
  Rng rng_a(8);
  Rng rng_b(8);
  const Database a = GenerateDatabase(config, rng_a);
  const Database b = GenerateDatabase(config, rng_b);
  const Table* ta = a.FindTable("R2");
  const Table* tb = b.FindTable("R2");
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (size_t c = 0; c < ta->schema().num_columns(); ++c) {
    EXPECT_EQ(ta->column(c), tb->column(c));
  }
}

TEST(TableGeneratorTest, ProbingTableShape) {
  Database db;
  Rng rng(9);
  AddProbingTable(db, rng);
  const Table* p = db.FindTable("P0");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->num_rows(), 2000u);
  EXPECT_EQ(p->schema().num_columns(), 3u);
  // The probing workload uses a non-clustered index on p2 so its cost also
  // registers random-I/O contention.
  EXPECT_NE(db.FindIndex("P0", 1), nullptr);
  EXPECT_EQ(db.ClusteredIndexOn("P0"), nullptr);
}

}  // namespace
}  // namespace mscm::engine
