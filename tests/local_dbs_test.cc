#include "mdbs/local_dbs.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace mscm::mdbs {
namespace {

LocalDbsConfig SmallConfig(uint64_t seed = 1) {
  LocalDbsConfig config;
  config.site_name = "test-site";
  config.tables.num_tables = 4;
  config.tables.scale = 0.03;
  config.seed = seed;
  return config;
}

TEST(LocalDbsTest, RunSelectReturnsPositiveCost) {
  LocalDbs site(SmallConfig());
  engine::SelectQuery q;
  q.table = "R2";
  q.predicate.Add({3, engine::CompareOp::kGe, 0, 0});
  const auto out = site.RunSelect(q);
  EXPECT_GT(out.elapsed_seconds, 0.0);
  EXPECT_GT(out.execution.result_rows, 0u);
}

TEST(LocalDbsTest, ProbingQueryCheap) {
  LocalDbs site(SmallConfig());
  site.SetLoadProcesses(0.0);
  const double cost = site.RunProbingQuery();
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1.0);  // idle probe well under a second
}

TEST(LocalDbsTest, ProbingCostTracksContention) {
  LocalDbs site(SmallConfig());
  std::vector<double> processes;
  std::vector<double> probes;
  for (double p = 0.0; p <= 120.0; p += 10.0) {
    site.SetLoadProcesses(p);
    processes.push_back(p);
    probes.push_back(site.RunProbingQuery());
  }
  // Strong positive association between load and probing cost. (Pearson
  // understates it because the swap-thrash knee makes the relationship
  // convex rather than linear.)
  EXPECT_GT(stats::PearsonCorrelation(processes, probes), 0.75);
}

TEST(LocalDbsTest, QueryCostGrowsWithContention) {
  LocalDbs site(SmallConfig());
  engine::SelectQuery q;
  q.table = "R4";
  q.predicate.Add({3, engine::CompareOp::kGe, 0, 0});
  site.SetLoadProcesses(0.0);
  const double idle = site.RunSelect(q).elapsed_seconds;
  site.SetLoadProcesses(120.0);
  const double busy = site.RunSelect(q).elapsed_seconds;
  EXPECT_GT(busy, idle * 3.0);  // the Figure 1 phenomenon
}

TEST(LocalDbsTest, RunningQueriesAdvancesSimulatedTime) {
  LocalDbs site(SmallConfig());
  const double t0 = site.simulated_time_seconds();
  site.RunProbingQuery();
  EXPECT_GT(site.simulated_time_seconds(), t0);
}

TEST(LocalDbsTest, ResampleLoadChangesContention) {
  LocalDbsConfig config = SmallConfig();
  config.load.regime = sim::LoadRegime::kUniform;
  config.load.max_processes = 120.0;
  LocalDbs site(config);
  std::vector<double> levels;
  for (int i = 0; i < 50; ++i) {
    site.ResampleLoad();
    levels.push_back(site.current_processes());
  }
  EXPECT_GT(stats::StdDev(levels), 10.0);
}

TEST(LocalDbsTest, MonitorSnapshotReflectsLoad) {
  LocalDbs site(SmallConfig());
  site.SetLoadProcesses(5.0);
  const auto idle = site.MonitorSnapshot();
  site.SetLoadProcesses(110.0);
  const auto busy = site.MonitorSnapshot();
  EXPECT_GT(busy.pct_disk_util, idle.pct_disk_util);
}

TEST(LocalDbsTest, PlanVisibilityMatchesEngineRules) {
  LocalDbs site(SmallConfig());
  engine::SelectQuery q;
  q.table = "R1";
  q.predicate.Add({0, engine::CompareOp::kBetween, 0, 10});
  EXPECT_EQ(site.PlanSelect(q).method,
            engine::AccessMethod::kClusteredIndexScan);
}

TEST(LocalDbsTest, RepeatedExecutionIsNoisy) {
  LocalDbs site(SmallConfig());
  site.SetLoadProcesses(20.0);
  engine::SelectQuery q;
  q.table = "R2";
  q.predicate.Add({3, engine::CompareOp::kGe, 0, 0});
  const double a = site.RunSelect(q).elapsed_seconds;
  site.SetLoadProcesses(20.0);
  const double b = site.RunSelect(q).elapsed_seconds;
  EXPECT_NE(a, b);
}

TEST(LocalDbsTest, DeterministicAcrossInstancesWithSameSeed) {
  LocalDbs a(SmallConfig(9));
  LocalDbs b(SmallConfig(9));
  engine::SelectQuery q;
  q.table = "R3";
  q.predicate.Add({3, engine::CompareOp::kGe, 0, 0});
  EXPECT_DOUBLE_EQ(a.RunSelect(q).elapsed_seconds,
                   b.RunSelect(q).elapsed_seconds);
}

// RunProbingQuery prices work computed once per site, which must give every
// probe the cost that executing both probing queries for it gives. These
// are the bit patterns of a seeded 0.1-scale site's first 64 probing costs,
// with selects, joins and load resamples between them, computed that way;
// they also pin the random stream the probes share with those queries.
TEST(LocalDbsTest, ProbingCostsArePinnedBitForBit) {
  static constexpr uint64_t kCostBits[64] = {
      0x40167e22cac4a381ull, 0x4015e4e1b1c3253full, 0x40153aab109efb68ull,
      0x4012d2d31a4deff0ull, 0x4012c63828d0acf2ull, 0x4014c0f3aa2d9b0dull,
      0x40134ee17fb081d1ull, 0x4013a309b50d477cull, 0x4015aec5e55fccddull,
      0x4017241655411d3cull, 0x401490e4bd0bc629ull, 0x40131f6371e7e40aull,
      0x401466abeaab798dull, 0x40163af951b1be5dull, 0x4017899fb83485d5ull,
      0x4015478cbca86ef9ull, 0x400f2c4e3af042cbull, 0x400e57f809eaaf24ull,
      0x400ca900c93204daull, 0x400d3aff525c0b49ull, 0x400d28aacbd86757ull,
      0x400bfdbd96bed58cull, 0x400e2f5940a16244ull, 0x400b92eae75c808full,
      0x40104e4e8be0af7eull, 0x400d69845fb789c0ull, 0x40107af40cf24195ull,
      0x4010305ec3768c88ull, 0x40117a0bd5f0d2bcull, 0x400e3a209b842021ull,
      0x401128a13c6c12b7ull, 0x40128e9b72b6301full, 0x3fd7e493ecca543bull,
      0x3fd589da5fae2175ull, 0x3fd71f2918c8a39cull, 0x3fd5a2d97e8a791eull,
      0x3fd54818842cf354ull, 0x3fd453f473930621ull, 0x3fd90463cad191c2ull,
      0x3fd5a95c46cdad81ull, 0x3fd50c9ba33788b3ull, 0x3fd4d9f78257b10bull,
      0x3fd62a77cbb41485ull, 0x3fd53598aa7b813dull, 0x3fd6afc556f899f1ull,
      0x3fd59a4fc1350c5dull, 0x3fd5312f0e2e337dull, 0x3fd3d47952542013ull,
      0x400463222bbbfb58ull, 0x4003f68eb7691020ull, 0x40042882224f7ffcull,
      0x40020c4419e90cd8ull, 0x400050f816ffa272ull, 0x400313e856177f8aull,
      0x4001c6a1e36e106bull, 0x40031d7b5209b3d8ull, 0x4002b068c728a027ull,
      0x40046504fd17ecc7ull, 0x40029ba695e15ac7ull, 0x40018141db95370dull,
      0x400149955f401fb3ull, 0x40020450d0715e75ull, 0x4001c8d0959f3f29ull,
      0x4001d78089e596e0ull};
  LocalDbsConfig config;
  config.site_name = "pinned";
  config.tables.num_tables = 6;
  config.tables.scale = 0.1;
  config.seed = 29;
  LocalDbs site(config);
  engine::SelectQuery select;
  select.table = "R3";
  select.predicate.Add({3, engine::CompareOp::kLe, 40, 0});
  engine::JoinQuery join;
  join.left_table = "R2";
  join.right_table = "R5";
  join.left_column = 4;
  join.right_column = 4;
  join.left_predicate.Add({3, engine::CompareOp::kLe, 30, 0});
  for (size_t i = 0; i < 64; ++i) {
    if (i % 16 == 0) site.ResampleLoad();
    if (i % 3 == 1) site.RunSelect(select);
    if (i % 3 == 2) site.RunJoin(join);
    EXPECT_EQ(std::bit_cast<uint64_t>(site.RunProbingQuery()), kCostBits[i])
        << "probe " << i;
  }
}

}  // namespace
}  // namespace mscm::mdbs
