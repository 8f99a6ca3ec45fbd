// Property tests (parameterized) over the executor: for any sampled query of
// any class, the chosen-plan execution must agree with the brute-force
// reference semantics, and the work counters must satisfy basic sanity
// invariants.

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/sampling.h"
#include "engine/executor.h"
#include "sim/performance_profile.h"
#include "tests/test_util.h"

namespace mscm::engine {
namespace {

using core::QueryClassId;

struct Case {
  QueryClassId cls;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << core::Label(c.cls) << "/seed" << c.seed;
}

class ExecutorPropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(
        test::TinyDatabase(/*seed=*/17, /*num_tables=*/6, /*scale=*/0.03));
    executor_ = std::make_unique<Executor>(db_.get());
    sampler_ = std::make_unique<core::QuerySampler>(db_.get(), rules_,
                                                    GetParam().seed);
  }
  PlannerRules rules_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<core::QuerySampler> sampler_;
};

TEST_P(ExecutorPropertyTest, PlanExecutionMatchesNaiveSemantics) {
  const QueryClassId cls = GetParam().cls;
  for (int i = 0; i < 10; ++i) {
    if (core::IsJoinClass(cls)) {
      const JoinQuery q = sampler_->SampleJoin(cls);
      const JoinPlan plan = ChooseJoinPlan(*db_, q, rules_);
      const JoinExecution exec = executor_->ExecuteJoin(q, plan);
      EXPECT_EQ(exec.result_rows, executor_->NaiveJoinCount(q));
    } else {
      const SelectQuery q = sampler_->SampleSelect(cls);
      const SelectPlan plan = ChooseSelectPlan(*db_, q, rules_);
      const SelectExecution exec = executor_->ExecuteSelect(q, plan);
      EXPECT_EQ(exec.result_rows, executor_->NaiveSelectCount(q));
    }
  }
}

TEST_P(ExecutorPropertyTest, WorkCounterInvariants) {
  const QueryClassId cls = GetParam().cls;
  for (int i = 0; i < 10; ++i) {
    WorkCounters work;
    double result_rows = 0.0;
    double result_bytes_per_tuple = 0.0;
    if (core::IsJoinClass(cls)) {
      const JoinQuery q = sampler_->SampleJoin(cls);
      const JoinExecution exec =
          executor_->ExecuteJoin(q, ChooseJoinPlan(*db_, q, rules_));
      work = exec.work;
      result_rows = static_cast<double>(exec.result_rows);
      result_bytes_per_tuple = exec.result_tuple_bytes;
      // Qualified counts bounded by operand cardinalities.
      EXPECT_LE(exec.left_qualified, exec.left_rows);
      EXPECT_LE(exec.right_qualified, exec.right_rows);
    } else {
      const SelectQuery q = sampler_->SampleSelect(cls);
      const SelectExecution exec =
          executor_->ExecuteSelect(q, ChooseSelectPlan(*db_, q, rules_));
      work = exec.work;
      result_rows = static_cast<double>(exec.result_rows);
      result_bytes_per_tuple = exec.result_tuple_bytes;
      // Result flows through the access method.
      EXPECT_LE(exec.result_rows, exec.intermediate_rows);
      EXPECT_LE(exec.intermediate_rows, exec.operand_rows);
    }
    // Non-negative counters.
    EXPECT_GE(work.sequential_pages, 0.0);
    EXPECT_GE(work.random_pages, 0.0);
    EXPECT_GE(work.tuples_read, 0.0);
    EXPECT_GE(work.predicate_evals, 0.0);
    EXPECT_GE(work.init_ops, 1.0);
    // Result accounting is exact.
    EXPECT_DOUBLE_EQ(work.result_tuples, result_rows);
    EXPECT_DOUBLE_EQ(work.result_bytes,
                     result_rows * result_bytes_per_tuple);
    // Something was read unless the operand sides were empty.
    EXPECT_GT(work.tuples_read + work.random_pages + work.sequential_pages,
              0.0);
  }
}

// FNV-1a over the eight bytes of `v`, least significant first.
uint64_t Fold(uint64_t digest, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xffu;
    digest *= 0x100000001b3ull;
  }
  return digest;
}

uint64_t Fold(uint64_t digest, const WorkCounters& w) {
  for (double field : {w.sequential_pages, w.random_pages, w.tuples_read,
                       w.predicate_evals, w.compare_ops, w.hash_ops,
                       w.result_tuples, w.result_bytes, w.init_ops}) {
    digest = Fold(digest, std::bit_cast<uint64_t>(field));
  }
  return digest;
}

// Pins the engine's outputs bit for bit: every count and every work counter
// of 500 sampled queries, each run with the plan alpha's and beta's planners
// choose, folds into one digest. The literal was computed on the row-store
// engine, so a storage or scan change that alters any sampled observation
// fails here.
TEST(ExecutorDigestTest, SampledExecutionsMatchPinnedDigest) {
  const Database db = test::TinyDatabase(/*seed=*/17, /*num_tables=*/12,
                                         /*scale=*/0.05);
  const Executor executor(&db);
  const PlannerRules planners[] = {sim::PerformanceProfile::Alpha().planner,
                                   sim::PerformanceProfile::Beta().planner};
  uint64_t digest = 0xcbf29ce484222325ull;
  uint64_t seed = 100;
  for (QueryClassId cls :
       {QueryClassId::kUnarySeqScan, QueryClassId::kUnaryNonClusteredIndex,
        QueryClassId::kUnaryClusteredIndex, QueryClassId::kJoinNoIndex,
        QueryClassId::kJoinIndex}) {
    core::QuerySampler sampler(&db, planners[0], ++seed);
    for (int i = 0; i < 100; ++i) {
      if (core::IsJoinClass(cls)) {
        const JoinQuery q = sampler.SampleJoin(cls);
        const size_t naive = executor.NaiveJoinCount(q);
        for (const PlannerRules& rules : planners) {
          const JoinPlan plan = ChooseJoinPlan(db, q, rules);
          const JoinExecution exec = executor.ExecuteJoin(q, plan);
          ASSERT_EQ(exec.result_rows, naive) << core::Label(cls) << " #" << i;
          digest = Fold(digest, static_cast<uint64_t>(plan.method));
          digest = Fold(digest, exec.result_rows);
          digest = Fold(digest, exec.left_qualified);
          digest = Fold(digest, exec.right_qualified);
          digest = Fold(digest, exec.work);
        }
      } else {
        const SelectQuery q = sampler.SampleSelect(cls);
        const size_t naive = executor.NaiveSelectCount(q);
        for (const PlannerRules& rules : planners) {
          const SelectPlan plan = ChooseSelectPlan(db, q, rules);
          const SelectExecution exec = executor.ExecuteSelect(q, plan);
          ASSERT_EQ(exec.result_rows, naive) << core::Label(cls) << " #" << i;
          digest = Fold(digest, static_cast<uint64_t>(plan.method));
          digest = Fold(digest, exec.result_rows);
          digest = Fold(digest, exec.intermediate_rows);
          digest = Fold(digest, exec.work);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0x869d13ac55d48a85ull) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    AllClassesAndSeeds, ExecutorPropertyTest,
    ::testing::Values(Case{QueryClassId::kUnarySeqScan, 1},
                      Case{QueryClassId::kUnarySeqScan, 2},
                      Case{QueryClassId::kUnaryNonClusteredIndex, 3},
                      Case{QueryClassId::kUnaryNonClusteredIndex, 4},
                      Case{QueryClassId::kUnaryClusteredIndex, 5},
                      Case{QueryClassId::kUnaryClusteredIndex, 6},
                      Case{QueryClassId::kJoinNoIndex, 7},
                      Case{QueryClassId::kJoinNoIndex, 8},
                      Case{QueryClassId::kJoinIndex, 9},
                      Case{QueryClassId::kJoinIndex, 10}));

}  // namespace
}  // namespace mscm::engine
