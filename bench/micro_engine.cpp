// Microbenchmarks (google-benchmark) for the relational engine substrate:
// scans, index lookups, joins, and full observation draws through the MDBS
// agent.

#include <benchmark/benchmark.h>

#include "core/agent_source.h"
#include "engine/executor.h"
#include "engine/table_generator.h"
#include "mdbs/local_dbs.h"

namespace {

using namespace mscm;

engine::Database MakeDb(double scale) {
  engine::TableGeneratorConfig config;
  config.num_tables = 8;
  config.scale = scale;
  Rng rng(1);
  engine::Database db = engine::GenerateDatabase(config, rng);
  engine::AddProbingTable(db, rng);
  return db;
}

void BM_SeqScan(benchmark::State& state) {
  const engine::Database db = MakeDb(0.5);
  const engine::Executor executor(&db);
  engine::SelectQuery q;
  q.table = "R7";  // 25k tuples at scale 0.5
  q.predicate.Add({3, engine::CompareOp::kLe, 50, 0});
  const engine::SelectPlan plan{engine::AccessMethod::kSequentialScan, -1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteSelect(q, plan));
  }
}
BENCHMARK(BM_SeqScan);

void BM_ClusteredIndexScan(benchmark::State& state) {
  const engine::Database db = MakeDb(0.5);
  const engine::Executor executor(&db);
  const engine::Table* t = db.FindTable("R7");
  engine::SelectQuery q;
  q.table = "R7";
  q.predicate.Add({0, engine::CompareOp::kBetween, t->column_stats(0).min,
                   t->column_stats(0).min + (t->column_stats(0).max -
                                             t->column_stats(0).min) / 10});
  const engine::SelectPlan plan{engine::AccessMethod::kClusteredIndexScan, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteSelect(q, plan));
  }
}
BENCHMARK(BM_ClusteredIndexScan);

// A fetch through a non-clustered index: a 5% range on a2 (which carries a
// non-clustered index) plus a residual on a4, so the scan counts the
// distinct heap pages its row ids fall on before it filters them.
void BM_NonClusteredIndexScan(benchmark::State& state) {
  const engine::Database db = MakeDb(0.5);
  const engine::Executor executor(&db);
  const engine::Table* t = db.FindTable("R7");
  const engine::ColumnStats& s = t->column_stats(1);
  engine::SelectQuery q;
  q.table = "R7";
  q.predicate.Add({1, engine::CompareOp::kBetween, s.min,
                   s.min + (s.max - s.min) / 20});
  q.predicate.Add({3, engine::CompareOp::kLe, 50, 0});
  const engine::SelectPlan plan{engine::AccessMethod::kNonClusteredIndexScan,
                                0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteSelect(q, plan));
  }
}
BENCHMARK(BM_NonClusteredIndexScan);

void BM_HashJoin(benchmark::State& state) {
  const engine::Database db = MakeDb(0.3);
  const engine::Executor executor(&db);
  engine::JoinQuery q;
  q.left_table = "R5";
  q.right_table = "R7";
  q.left_column = 4;
  q.right_column = 4;
  const engine::JoinPlan plan{engine::JoinMethod::kHashJoin, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteJoin(q, plan));
  }
}
BENCHMARK(BM_HashJoin);

// The join the query sampler draws for G3 (no usable index): an equijoin
// on a5, which shares a 5,000-value domain across tables, with one range
// predicate per side keeping ~30% of each.
void BM_NoIndexJoinSampled(benchmark::State& state) {
  const engine::Database db = MakeDb(0.3);
  const engine::Executor executor(&db);
  const engine::Table* left = db.FindTable("R5");
  const engine::Table* right = db.FindTable("R7");
  const engine::ColumnStats& ls = left->column_stats(3);
  const engine::ColumnStats& rs = right->column_stats(5);
  engine::JoinQuery q;
  q.left_table = "R5";
  q.right_table = "R7";
  q.left_column = 4;
  q.right_column = 4;
  q.left_predicate.Add({3, engine::CompareOp::kBetween, ls.min,
                        ls.min + (ls.max - ls.min) * 3 / 10});
  q.right_predicate.Add({5, engine::CompareOp::kBetween, rs.min,
                         rs.min + (rs.max - rs.min) * 3 / 10});
  const engine::JoinPlan plan{engine::JoinMethod::kHashJoin, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.ExecuteJoin(q, plan));
  }
}
BENCHMARK(BM_NoIndexJoinSampled);

void BM_ProbingQuery(benchmark::State& state) {
  mdbs::LocalDbsConfig config;
  config.tables.num_tables = 2;
  config.tables.scale = 0.1;
  config.seed = 2;
  mdbs::LocalDbs site(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(site.RunProbingQuery());
  }
}
BENCHMARK(BM_ProbingQuery);

void BM_ObservationDraw(benchmark::State& state) {
  mdbs::LocalDbsConfig config;
  config.tables.num_tables = 6;
  config.tables.scale = 0.1;
  config.seed = 3;
  mdbs::LocalDbs site(config);
  core::AgentObservationSource source(&site,
                                      core::QueryClassId::kUnarySeqScan, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.Draw());
  }
}
BENCHMARK(BM_ObservationDraw);

}  // namespace

BENCHMARK_MAIN();
