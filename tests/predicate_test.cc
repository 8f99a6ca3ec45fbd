#include "engine/predicate.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace mscm::engine {
namespace {

// A one-row table holding `values`, one column per value.
Table OneRow(const Row& values) {
  std::vector<Column> columns;
  for (size_t c = 0; c < values.size(); ++c) {
    columns.push_back({"c" + std::to_string(c), 8});
  }
  Table t("T", Schema(std::move(columns)));
  t.AddRow(values);
  return t;
}

TEST(ConditionTest, AllOperatorsMatchCorrectly) {
  EXPECT_TRUE((Condition{0, CompareOp::kEq, 5, 0}).Matches(5));
  EXPECT_FALSE((Condition{0, CompareOp::kEq, 6, 0}).Matches(5));
  EXPECT_TRUE((Condition{0, CompareOp::kLt, 6, 0}).Matches(5));
  EXPECT_FALSE((Condition{0, CompareOp::kLt, 5, 0}).Matches(5));
  EXPECT_TRUE((Condition{0, CompareOp::kLe, 5, 0}).Matches(5));
  EXPECT_TRUE((Condition{0, CompareOp::kGt, 4, 0}).Matches(5));
  EXPECT_FALSE((Condition{0, CompareOp::kGt, 5, 0}).Matches(5));
  EXPECT_TRUE((Condition{0, CompareOp::kGe, 5, 0}).Matches(5));
  EXPECT_TRUE((Condition{1, CompareOp::kBetween, 10, 10}).Matches(10));
  EXPECT_FALSE((Condition{1, CompareOp::kBetween, 11, 20}).Matches(10));
}

TEST(ConditionTest, KeyRangeMatchesSemantics) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Condition between{0, CompareOp::kBetween, 3, 7};
  EXPECT_EQ(between.Range().lo, 3);
  EXPECT_EQ(between.Range().hi, 7);
  const Condition eq{0, CompareOp::kEq, 4, 0};
  EXPECT_EQ(eq.Range().lo, 4);
  EXPECT_EQ(eq.Range().hi, 4);
  const Condition lt{0, CompareOp::kLt, 4, 0};
  EXPECT_EQ(lt.Range().lo, kMin);
  EXPECT_EQ(lt.Range().hi, 3);
  const Condition ge{0, CompareOp::kGe, 4, 0};
  EXPECT_EQ(ge.Range().lo, 4);
  EXPECT_EQ(ge.Range().hi, kMax);
  // At the int64 limits: x <= INT64_MIN and x >= INT64_MAX hold for one
  // value each, while x < INT64_MIN, x > INT64_MAX and an inverted between
  // hold for none (lo - 1 and lo + 1 would overflow).
  EXPECT_TRUE((Condition{0, CompareOp::kLe, kMin, 0}).Matches(kMin));
  EXPECT_TRUE((Condition{0, CompareOp::kGe, kMax, 0}).Matches(kMax));
  for (const Condition& c : {Condition{0, CompareOp::kLt, kMin, 0},
                             Condition{0, CompareOp::kGt, kMax, 0},
                             Condition{0, CompareOp::kBetween, 7, 3}}) {
    EXPECT_TRUE(c.Range().empty());
    for (int64_t v : {kMin, int64_t{0}, int64_t{5}, kMax}) {
      EXPECT_FALSE(c.Matches(v)) << v;
    }
  }
}

TEST(PredicateTest, EmptyPredicateMatchesEverything) {
  const Predicate p;
  EXPECT_TRUE(p.Matches(OneRow({1, 2, 3}), 0));
  EXPECT_TRUE(p.empty());
}

TEST(PredicateTest, ConjunctionSemantics) {
  Predicate p;
  p.Add({0, CompareOp::kGe, 5, 0});
  p.Add({1, CompareOp::kLt, 10, 0});
  EXPECT_TRUE(p.Matches(OneRow({5, 9}), 0));
  EXPECT_FALSE(p.Matches(OneRow({4, 9}), 0));
  EXPECT_FALSE(p.Matches(OneRow({5, 10}), 0));
}

TEST(PredicateTest, FindCondition) {
  Predicate p;
  p.Add({2, CompareOp::kEq, 1, 0});
  p.Add({0, CompareOp::kGt, 1, 0});
  EXPECT_EQ(p.FindCondition(2), 0);
  EXPECT_EQ(p.FindCondition(0), 1);
  EXPECT_EQ(p.FindCondition(1), -1);
}

TEST(PredicateTest, ToStringReadable) {
  const Schema schema({{"a1", 8}, {"a2", 8}});
  Predicate p;
  p.Add({0, CompareOp::kBetween, 3, 9});
  p.Add({1, CompareOp::kGt, 100, 0});
  EXPECT_EQ(p.ToString(schema), "a1 between 3 and 9 and a2 > 100");
  EXPECT_EQ(Predicate().ToString(schema), "true");
}

// The column scan keeps exactly the rows single-row matching accepts: over
// the whole table, and in candidate order over an id list with or without a
// skipped condition.
TEST(SelectTest, AgreesWithRowMatching) {
  Rng rng(5);
  Table t("T", Schema({{"a", 8}, {"b", 8}, {"c", 8}}));
  constexpr int64_t kRows = 500;
  for (int64_t i = 0; i < kRows; ++i) {
    t.AddRow({rng.UniformInt(0, 99), rng.UniformInt(-50, 50),
              rng.UniformInt(0, 9)});
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Condition> conds(static_cast<size_t>(rng.UniformInt(0, 3)));
    for (Condition& c : conds) {
      c.column = static_cast<int>(rng.UniformInt(0, 2));
      c.op = static_cast<CompareOp>(rng.UniformInt(0, 5));
      c.lo = rng.UniformInt(-60, 110);
      c.hi = c.lo + rng.UniformInt(-5, 60);
    }
    const int skip = static_cast<int>(
        rng.UniformInt(-1, static_cast<int64_t>(conds.size()) - 1));
    std::vector<Condition> kept_conds;
    for (size_t c = 0; c < conds.size(); ++c) {
      if (static_cast<int>(c) != skip) kept_conds.push_back(conds[c]);
    }
    const Predicate pred(conds);
    const Predicate kept(kept_conds);

    std::vector<RowId> want_all;
    for (RowId i = 0; i < kRows; ++i) {
      if (pred.Matches(t, i)) want_all.push_back(i);
    }
    EXPECT_EQ(Select(t, pred), want_all);

    std::vector<RowId> ids;
    for (RowId i = 0; i < kRows; ++i) {
      if (rng.Bernoulli(0.3)) ids.push_back(i);
    }
    rng.Shuffle(ids);
    std::vector<RowId> want_ids;
    for (RowId id : ids) {
      if (kept.Matches(t, id)) want_ids.push_back(id);
    }
    EXPECT_EQ(Select(t, pred, ids, skip), want_ids);
  }
}

class SelectivityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(test::SequentialTable("T", 1000));
    table_->RecomputeStats();
  }
  std::unique_ptr<Table> table_;
};

TEST_F(SelectivityTest, BetweenMatchesTrueFraction) {
  // col0 uniform 0..999; between 100..299 -> 20%.
  const Condition c{0, CompareOp::kBetween, 100, 299};
  EXPECT_NEAR(EstimateConditionSelectivity(*table_, c), 0.2, 1e-9);
}

TEST_F(SelectivityTest, EqualityUsesDistinctCount) {
  const Condition c{0, CompareOp::kEq, 500, 0};
  EXPECT_NEAR(EstimateConditionSelectivity(*table_, c), 1.0 / 1000.0, 1e-12);
}

TEST_F(SelectivityTest, OutOfRangeGivesZero) {
  for (const Condition& c :
       {Condition{0, CompareOp::kBetween, 5000, 6000},
        Condition{0, CompareOp::kBetween, 7, 3},
        Condition{0, CompareOp::kLt, std::numeric_limits<int64_t>::min(), 0},
        Condition{0, CompareOp::kGt, std::numeric_limits<int64_t>::max(), 0}}) {
    EXPECT_DOUBLE_EQ(EstimateConditionSelectivity(*table_, c), 0.0);
  }
}

TEST_F(SelectivityTest, WholeRangeGivesOne) {
  const Condition c{0, CompareOp::kBetween, -100, 100000};
  EXPECT_NEAR(EstimateConditionSelectivity(*table_, c), 1.0, 1e-9);
}

TEST_F(SelectivityTest, ConjunctionMultiplies) {
  Predicate p;
  p.Add({0, CompareOp::kBetween, 0, 499});    // 0.5
  p.Add({1, CompareOp::kBetween, 0, 4});      // 0.5 of 0..9
  EXPECT_NEAR(EstimatePredicateSelectivity(*table_, p), 0.25, 1e-9);
}

TEST_F(SelectivityTest, EstimateTracksActualCount) {
  const Condition c{0, CompareOp::kBetween, 250, 749};
  size_t actual = 0;
  for (size_t row = 0; row < table_->num_rows(); ++row) {
    if (c.Matches(table_->value(row, 0))) ++actual;
  }
  const double est = EstimateConditionSelectivity(*table_, c) *
                     static_cast<double>(table_->num_rows());
  EXPECT_NEAR(est, static_cast<double>(actual), 5.0);
}

}  // namespace
}  // namespace mscm::engine
