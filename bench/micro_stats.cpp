// Microbenchmarks (google-benchmark) for the statistical machinery: OLS
// fits at the sizes the pipeline uses, qualitative design-matrix builds,
// whole cost-model fits, agglomerative clustering, and distribution
// evaluations.

#include <benchmark/benchmark.h>

#include "cluster/hierarchical.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/qualitative.h"
#include "stats/distributions.h"
#include "stats/ols.h"

namespace {

using namespace mscm;

stats::Matrix RandomDesign(size_t n, size_t p, Rng& rng) {
  stats::Matrix x(n, p);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    for (size_t j = 1; j < p; ++j) x(i, j) = rng.Uniform(0, 100);
  }
  return x;
}

void BM_OlsFit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t p = static_cast<size_t>(state.range(1));
  Rng rng(1);
  const stats::Matrix x = RandomDesign(n, p, rng);
  std::vector<double> y(n);
  for (auto& v : y) v = rng.Uniform(0, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::FitOls(x, y));
  }
}
BENCHMARK(BM_OlsFit)->Args({370, 6})->Args({370, 24})->Args({700, 36});

void BM_Vif(benchmark::State& state) {
  Rng rng(2);
  const stats::Matrix x = RandomDesign(300, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::VarianceInflationFactor(x, 3));
  }
}
BENCHMARK(BM_Vif);

void BM_Cluster1D(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> xs(n);
  for (auto& v : xs) v = rng.Uniform(0, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::AgglomerativeCluster1D(xs, 5));
  }
}
BENCHMARK(BM_Cluster1D)->Arg(300)->Arg(1000);

void BM_BuildDesignMatrix(benchmark::State& state) {
  Rng rng(4);
  core::ObservationSet obs(500);
  for (auto& o : obs) {
    o.probing_cost = rng.NextDouble();
    o.features = {rng.Uniform(0, 100), rng.Uniform(0, 100),
                  rng.Uniform(0, 100)};
    o.cost = rng.Uniform(0, 10);
  }
  const core::ContentionStates states =
      core::ContentionStates::UniformPartition(0.0, 1.0, 4);
  const core::DesignLayout layout =
      core::DesignLayout::Make(3, core::QualitativeForm::kGeneral, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BuildDesignMatrix(obs, {0, 1, 2}, states, layout));
  }
}
BENCHMARK(BM_BuildDesignMatrix);

// The fit `derive` runs on every trial of variable selection and state
// determination: n = 430 observations, 4 selected variables. The general
// form fits one block per state; the parallel form shares its slope
// columns, so it is solved as one dense block.
void BM_FitCostModel(benchmark::State& state) {
  const int num_states = static_cast<int>(state.range(0));
  const auto form = static_cast<core::QualitativeForm>(state.range(1));
  Rng rng(5);
  core::ObservationSet obs(430);
  for (auto& o : obs) {
    o.probing_cost = rng.NextDouble();
    o.features = {rng.Uniform(0, 100), rng.Uniform(0, 100),
                  rng.Uniform(0, 100), rng.Uniform(0, 100)};
    o.cost = rng.Uniform(0, 10);
  }
  const core::ContentionStates states =
      core::ContentionStates::UniformPartition(0.0, 1.0, num_states);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FitCostModel(
        core::QueryClassId::kUnarySeqScan, obs, {0, 1, 2, 3}, states, form));
  }
}
BENCHMARK(BM_FitCostModel)
    ->ArgNames({"states", "form"})
    ->Args({1, static_cast<int>(core::QualitativeForm::kGeneral)})
    ->Args({6, static_cast<int>(core::QualitativeForm::kGeneral)})
    ->Args({8, static_cast<int>(core::QualitativeForm::kGeneral)})
    ->Args({6, static_cast<int>(core::QualitativeForm::kParallel)});

void BM_FSurvival(benchmark::State& state) {
  double f = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::FSurvival(f, 12, 340));
    f += 0.1;
    if (f > 50) f = 0.1;
  }
}
BENCHMARK(BM_FSurvival);

}  // namespace

BENCHMARK_MAIN();
