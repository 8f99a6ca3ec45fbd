#include "engine/executor.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace mscm::engine {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(test::TinyDatabase(/*seed=*/11));
    executor_ = std::make_unique<Executor>(db_.get());
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
  PlannerRules rules_;
};

TEST_F(ExecutorTest, SeqScanResultMatchesNaiveCount) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    SelectQuery q;
    q.table = "R2";
    const Table* t = db_->FindTable("R2");
    const int col = static_cast<int>(
        rng.UniformInt(3, static_cast<int64_t>(t->schema().num_columns()) - 1));
    const auto& s = t->column_stats(static_cast<size_t>(col));
    const int64_t lo = rng.UniformInt(s.min, s.max);
    q.predicate.Add({col, CompareOp::kBetween, lo,
                     lo + rng.UniformInt(0, s.max - lo)});
    const SelectPlan plan = ChooseSelectPlan(*db_, q, rules_);
    const SelectExecution exec = executor_->ExecuteSelect(q, plan);
    EXPECT_EQ(exec.result_rows, executor_->NaiveSelectCount(q));
  }
}

TEST_F(ExecutorTest, ClusteredScanResultMatchesNaiveCount) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    SelectQuery q;
    q.table = "R1";
    const Table* t = db_->FindTable("R1");
    const auto& s = t->column_stats(0);
    const int64_t lo = rng.UniformInt(s.min, s.max);
    q.predicate.Add({0, CompareOp::kBetween, lo,
                     lo + rng.UniformInt(0, s.max - lo)});
    // Extra residual condition half the time.
    if (trial % 2 == 0) {
      q.predicate.Add({3, CompareOp::kLe, t->column_stats(3).max / 2, 0});
    }
    const SelectPlan plan = ChooseSelectPlan(*db_, q, rules_);
    ASSERT_EQ(plan.method, AccessMethod::kClusteredIndexScan);
    const SelectExecution exec = executor_->ExecuteSelect(q, plan);
    EXPECT_EQ(exec.result_rows, executor_->NaiveSelectCount(q));
    // Intermediate rows is what the index delivered; result can't exceed it.
    EXPECT_GE(exec.intermediate_rows, exec.result_rows);
  }
}

TEST_F(ExecutorTest, NonClusteredScanResultMatchesNaiveCount) {
  const Table* t = db_->FindTable("R3");
  const auto& s = t->column_stats(1);
  SelectQuery q;
  q.table = "R3";
  const int64_t span = s.max - s.min + 1;
  q.predicate.Add({1, CompareOp::kBetween, s.min, s.min + span / 60});
  const SelectPlan plan = ChooseSelectPlan(*db_, q, rules_);
  ASSERT_EQ(plan.method, AccessMethod::kNonClusteredIndexScan);
  const SelectExecution exec = executor_->ExecuteSelect(q, plan);
  EXPECT_EQ(exec.result_rows, executor_->NaiveSelectCount(q));
  // Non-clustered scans pay one random I/O per *distinct* heap page touched:
  // bounded above by the fetched-tuple count and below by the minimum pages
  // that could hold them, and actually counted from the row placement.
  EXPECT_LE(exec.work.random_pages,
            static_cast<double>(exec.intermediate_rows));
  EXPECT_GE(exec.work.random_pages,
            std::ceil(static_cast<double>(exec.intermediate_rows) /
                      static_cast<double>(t->RowsPerPage())));
  std::unordered_set<size_t> pages;
  const auto& idx_cond = q.predicate.conditions()[0];
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (idx_cond.Matches(t->value(i, static_cast<size_t>(idx_cond.column)))) {
      pages.insert(t->PageOfRow(i));
    }
  }
  EXPECT_DOUBLE_EQ(exec.work.random_pages,
                   static_cast<double>(pages.size()));
}

TEST_F(ExecutorTest, SeqScanWorkCountersMatchTableGeometry) {
  SelectQuery q;
  q.table = "R2";
  q.predicate.Add({3, CompareOp::kGe, 0, 0});
  const SelectExecution exec = executor_->ExecuteSelect(
      q, SelectPlan{AccessMethod::kSequentialScan, -1});
  const Table* t = db_->FindTable("R2");
  EXPECT_DOUBLE_EQ(exec.work.sequential_pages,
                   static_cast<double>(t->NumPages()));
  EXPECT_DOUBLE_EQ(exec.work.tuples_read,
                   static_cast<double>(t->num_rows()));
  EXPECT_EQ(exec.operand_rows, t->num_rows());
}

TEST_F(ExecutorTest, ProjectionControlsResultBytes) {
  SelectQuery narrow;
  narrow.table = "R2";
  narrow.projection = {0};
  SelectQuery wide;
  wide.table = "R2";
  const SelectPlan plan{AccessMethod::kSequentialScan, -1};
  const SelectExecution e_narrow = executor_->ExecuteSelect(narrow, plan);
  const SelectExecution e_wide = executor_->ExecuteSelect(wide, plan);
  EXPECT_LT(e_narrow.result_tuple_bytes, e_wide.result_tuple_bytes);
  EXPECT_EQ(e_narrow.result_rows, e_wide.result_rows);
  EXPECT_LT(e_narrow.work.result_bytes, e_wide.work.result_bytes);
}

TEST_F(ExecutorTest, JoinResultMatchesNaiveForAllMethods) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R2";
  q.left_column = 4;
  q.right_column = 4;
  const Table* l = db_->FindTable("R1");
  const Table* r = db_->FindTable("R2");
  q.left_predicate.Add(
      {3, CompareOp::kLe, l->column_stats(3).max / 2, 0});
  q.right_predicate.Add(
      {3, CompareOp::kLe, r->column_stats(3).max / 3, 0});

  const size_t naive = executor_->NaiveJoinCount(q);
  for (JoinMethod m : {JoinMethod::kBlockNestedLoop, JoinMethod::kSortMerge,
                       JoinMethod::kHashJoin}) {
    const JoinExecution exec = executor_->ExecuteJoin(q, JoinPlan{m, 0});
    EXPECT_EQ(exec.result_rows, naive) << ToString(m);
  }
}

TEST_F(ExecutorTest, IndexNestedLoopJoinMatchesNaive) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R3";
  q.left_column = 1;
  q.right_column = 1;  // right side has a non-clustered index on column 1
  const Table* l = db_->FindTable("R1");
  q.left_predicate.Add({3, CompareOp::kLe, l->column_stats(3).min + 5, 0});
  const JoinExecution exec =
      executor_->ExecuteJoin(q, JoinPlan{JoinMethod::kIndexNestedLoop, 0});
  EXPECT_EQ(exec.result_rows, executor_->NaiveJoinCount(q));
}

TEST_F(ExecutorTest, JoinQualifiedCountsAreFilterCounts) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R2";
  q.left_column = 4;
  q.right_column = 4;
  const Table* l = db_->FindTable("R1");
  q.left_predicate.Add({3, CompareOp::kLe, l->column_stats(3).max / 2, 0});
  const JoinExecution exec =
      executor_->ExecuteJoin(q, JoinPlan{JoinMethod::kHashJoin, 0});
  size_t expected_left = 0;
  for (size_t row = 0; row < l->num_rows(); ++row) {
    if (q.left_predicate.Matches(*l, row)) ++expected_left;
  }
  EXPECT_EQ(exec.left_qualified, expected_left);
  EXPECT_EQ(exec.right_qualified, db_->FindTable("R2")->num_rows());
}

TEST_F(ExecutorTest, BlockNestedLoopChargesQuadraticCompares) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R2";
  q.left_column = 4;
  q.right_column = 4;
  const JoinExecution exec =
      executor_->ExecuteJoin(q, JoinPlan{JoinMethod::kBlockNestedLoop, 0});
  EXPECT_DOUBLE_EQ(exec.work.compare_ops,
                   static_cast<double>(exec.left_qualified) *
                       static_cast<double>(exec.right_qualified));
}

TEST_F(ExecutorTest, HashJoinChargesLinearHashOps) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R2";
  q.left_column = 4;
  q.right_column = 4;
  const JoinExecution exec =
      executor_->ExecuteJoin(q, JoinPlan{JoinMethod::kHashJoin, 0});
  EXPECT_DOUBLE_EQ(exec.work.hash_ops,
                   static_cast<double>(exec.left_qualified) +
                       static_cast<double>(exec.right_qualified));
  EXPECT_DOUBLE_EQ(exec.work.compare_ops, 0.0);
}

TEST_F(ExecutorTest, EmptyResultJoin) {
  JoinQuery q;
  q.left_table = "R1";
  q.right_table = "R2";
  q.left_column = 4;
  q.right_column = 4;
  // Impossible predicate on the left side.
  q.left_predicate.Add({3, CompareOp::kLt, -1000, 0});
  const JoinExecution exec =
      executor_->ExecuteJoin(q, JoinPlan{JoinMethod::kHashJoin, 0});
  EXPECT_EQ(exec.result_rows, 0u);
  EXPECT_EQ(exec.left_qualified, 0u);
}

// Conditions no value satisfies — x < INT64_MIN, x > INT64_MAX and an
// inverted between — select nothing on every access path, as the naive
// count says, and estimate to selectivity 0. Their ranges are where
// computing lo - 1 or lo + 1 would overflow.
TEST(ExecutorEmptyRangeTest, UnsatisfiableConditionsSelectNothing) {
  Database db;
  db.AddTable(test::SequentialTable("T", 100));
  db.CreateIndex("T", 0, /*clustered=*/true);
  db.CreateIndex("T", 1, /*clustered=*/false);
  const Table* t = db.FindTable("T");
  const Executor executor(&db);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int col : {0, 1}) {
    const AccessMethod index_method = col == 0
                                          ? AccessMethod::kClusteredIndexScan
                                          : AccessMethod::kNonClusteredIndexScan;
    for (const Condition& cond : {Condition{col, CompareOp::kLt, kMin, 0},
                                  Condition{col, CompareOp::kGt, kMax, 0},
                                  Condition{col, CompareOp::kBetween, 7, 3}}) {
      SCOPED_TRACE(cond.ToString(t->schema()));
      SelectQuery q;
      q.table = "T";
      q.predicate.Add(cond);
      EXPECT_EQ(executor.NaiveSelectCount(q), 0u);
      EXPECT_EQ(EstimateConditionSelectivity(*t, cond), 0.0);
      const SelectExecution seq = executor.ExecuteSelect(
          q, SelectPlan{AccessMethod::kSequentialScan, -1});
      EXPECT_EQ(seq.result_rows, 0u);
      const SelectExecution index =
          executor.ExecuteSelect(q, SelectPlan{index_method, 0});
      EXPECT_EQ(index.intermediate_rows, 0u);
      EXPECT_EQ(index.result_rows, 0u);
      const SelectExecution planned =
          executor.ExecuteSelect(q, ChooseSelectPlan(db, q, PlannerRules{}));
      EXPECT_EQ(planned.result_rows, 0u);
    }
  }
}

// The join count reads its key range from the two key columns' exact
// statistics: a dense array indexed by key - lo when the common range is
// narrower than the two tables' rows, an open-addressing table otherwise.
// Each case below pins the count to the naive nested loop under every join
// method, on tables of (key, tag = row % 4) with a non-clustered index on
// the key so the index nested loop can run with either side outer.
class JoinCountTest : public ::testing::Test {
 protected:
  static constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  static constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

  void AddKeyTable(const std::string& name, const std::vector<int64_t>& keys) {
    Table t(name, Schema({{"key", 8}, {"tag", 8}}));
    for (size_t i = 0; i < keys.size(); ++i) {
      t.AddRow({keys[i], static_cast<int64_t>(i % 4)});
    }
    db_.AddTable(std::move(t));
    db_.CreateIndex(name, 0, /*clustered=*/false);
  }

  static JoinQuery KeyJoin(const std::string& left, const std::string& right) {
    JoinQuery q;
    q.left_table = left;
    q.right_table = right;
    q.left_column = 0;
    q.right_column = 0;
    return q;
  }

  // The naive count, which every join method must reproduce.
  size_t ExpectEveryMethodMatchesNaive(const JoinQuery& q) const {
    const Executor executor(&db_);
    const size_t naive = executor.NaiveJoinCount(q);
    for (const JoinPlan plan : {JoinPlan{JoinMethod::kBlockNestedLoop, 0},
                                JoinPlan{JoinMethod::kIndexNestedLoop, 0},
                                JoinPlan{JoinMethod::kIndexNestedLoop, 1},
                                JoinPlan{JoinMethod::kSortMerge, 0},
                                JoinPlan{JoinMethod::kHashJoin, 0}}) {
      EXPECT_EQ(executor.ExecuteJoin(q, plan).result_rows, naive)
          << ToString(plan.method) << " outer side " << plan.outer_side;
    }
    return naive;
  }

  Database db_;
};

// Overlapping ranges [100, 160] and [130, 220]: width 30 against 350 rows.
// Either side builds, as the predicates make it the smaller qualified one.
TEST_F(JoinCountTest, DenseKeyRangeMatchesNaive) {
  Rng rng(5);
  std::vector<int64_t> left(200);
  std::vector<int64_t> right(150);
  for (int64_t& k : left) k = rng.UniformInt(100, 160);
  for (int64_t& k : right) k = rng.UniformInt(130, 220);
  AddKeyTable("L", left);
  AddKeyTable("R", right);

  JoinQuery q = KeyJoin("L", "R");
  EXPECT_GT(ExpectEveryMethodMatchesNaive(q), 0u);  // right side builds
  q.left_predicate.Add({1, CompareOp::kEq, 0, 0});
  EXPECT_GT(ExpectEveryMethodMatchesNaive(q), 0u);  // left side builds
  q.right_predicate.Add({1, CompareOp::kGe, 1, 0});
  EXPECT_GT(ExpectEveryMethodMatchesNaive(q), 0u);
  // Ranges that touch at one value: a width-0 array.
  AddKeyTable("T", {160, 160, 161, 170, 200});
  EXPECT_GT(ExpectEveryMethodMatchesNaive(KeyJoin("L", "T")), 0u);
}

// Keys at both ends of int64: hi - lo is 2^64 - 1, which only an unsigned
// subtraction holds, so the count falls back to the open-addressing table.
TEST_F(JoinCountTest, FullInt64RangeFallsBackToKeyCounts) {
  AddKeyTable("L", {kMin, kMin, kMin + 1, -5, 0, 0, 7, kMax - 1, kMax, kMax});
  AddKeyTable("R", {kMax, kMin, 7, 7, 0, kMin + 1, 3, kMax, kMax - 2, -5,
                    kMin, 11});
  JoinQuery q = KeyJoin("L", "R");
  // kMin 2x2, kMin+1 1x1, -5 1x1, 0 2x1, 7 1x2, kMax 2x2.
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(q), 14u);
  q.left_predicate.Add({1, CompareOp::kLe, 1, 0});
  ExpectEveryMethodMatchesNaive(q);
  q.right_predicate.Add({1, CompareOp::kEq, 2, 0});
  ExpectEveryMethodMatchesNaive(q);
  // One side near each end: the common range [-7, 0] is dense again.
  AddKeyTable("N", {kMin, kMin + 3, -10, -7, -7, 0});
  AddKeyTable("P", {-7, 0, 0, 5, kMax});
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(KeyJoin("N", "P")), 4u);
}

TEST_F(JoinCountTest, DisjointKeyRangesMatchNothing) {
  AddKeyTable("L", {0, 5, 99, 42, 42});
  AddKeyTable("R", {100, 1000, 1099, 100});
  AddKeyTable("W", {kMin, -1});
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(KeyJoin("L", "R")), 0u);
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(KeyJoin("R", "L")), 0u);
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(KeyJoin("W", "R")), 0u);
}

// L spans below the common range [10, 20] and R above it. The build side's
// out-of-range keys all land in the clamp slot, and the probe side's
// out-of-range keys read that slot: a count there would add L's
// [-100, -90] keys to every one of R's [300, 310] keys.
TEST_F(JoinCountTest, KeysOutsideTheCommonRangeNeverCount) {
  std::vector<int64_t> left;
  std::vector<int64_t> right;
  for (int64_t k = -100; k <= -90; ++k) left.insert(left.end(), 3, k);
  for (int64_t k = 0; k <= 20; ++k) left.push_back(k);
  for (int64_t k = 10; k <= 30; ++k) right.insert(right.end(), 2, k);
  for (int64_t k = 300; k <= 310; ++k) right.insert(right.end(), 5, k);
  AddKeyTable("L", left);
  AddKeyTable("R", right);

  JoinQuery q = KeyJoin("L", "R");
  // L (54 rows) builds; keys 10..20 match twice each.
  EXPECT_EQ(ExpectEveryMethodMatchesNaive(q), 22u);
  // A predicate keeping a quarter of R makes R the build side.
  q.right_predicate.Add({1, CompareOp::kEq, 3, 0});
  ExpectEveryMethodMatchesNaive(q);
}

TEST_F(JoinCountTest, EmptyQualifiedSideMatchesNothing) {
  AddKeyTable("L", {1, 2, 3, 3, 4});
  AddKeyTable("R", {3, 3, 4, 5});
  AddKeyTable("V", {kMin, 3, 3, kMax});
  AddKeyTable("W", {kMin, 3, kMax});
  // Dense, then the wide fallback; each matches without its predicates.
  for (const auto& [left, right] : {std::pair{"L", "R"}, std::pair{"V", "W"}}) {
    SCOPED_TRACE(left);
    JoinQuery q = KeyJoin(left, right);
    EXPECT_GT(ExpectEveryMethodMatchesNaive(q), 0u);
    q.left_predicate.Add({1, CompareOp::kGt, 3, 0});
    EXPECT_EQ(ExpectEveryMethodMatchesNaive(q), 0u);
    q = KeyJoin(left, right);
    q.right_predicate.Add({1, CompareOp::kLt, 0, 0});
    EXPECT_EQ(ExpectEveryMethodMatchesNaive(q), 0u);
  }
}

}  // namespace
}  // namespace mscm::engine
