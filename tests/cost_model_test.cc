#include "core/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include <gtest/gtest.h>

#include "stats/ols.h"
#include "tests/test_util.h"

namespace mscm::core {
namespace {

TEST(CostModelTest, RecoversPiecewiseCoefficientsExactly) {
  // Two states with very different intercepts and slopes, no noise.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 10.0};
  truth.slopes = {{0.5, 2.0}, {3.0, -1.0}};
  Rng rng(1);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1}, states,
                   QualitativeForm::kGeneral);
  EXPECT_NEAR(model.CoefficientFor(-1, 0), 1.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(-1, 1), 10.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(0, 0), 0.5, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(1, 0), 2.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(0, 1), 3.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(1, 1), -1.0, 1e-8);
  EXPECT_NEAR(model.r_squared(), 1.0, 1e-10);
}

TEST(CostModelTest, EstimateUsesProbingCostToPickState) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {0.0, 100.0};
  truth.slopes = {{1.0}, {1.0}};
  Rng rng(2);
  const ObservationSet obs = test::SyntheticObservations(truth, 120, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kGeneral);
  const std::vector<double> features = {5.0};
  EXPECT_NEAR(model.Estimate(features, 0.1), 5.0, 0.1);
  EXPECT_NEAR(model.Estimate(features, 0.9), 105.0, 0.1);
}

TEST(CostModelTest, EstimateFastMatchesEstimateEverywhere) {
  // The fused hot-path estimator must agree with the reference path across
  // states, forms, and feature values — including the negative clamp.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {-2.0, 10.0, 40.0};
  truth.slopes = {{0.5, 2.0}, {3.0, -1.0}, {7.0, 0.25}};
  Rng rng(11);
  const ObservationSet obs = test::SyntheticObservations(truth, 300, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 3);
  for (const QualitativeForm form :
       {QualitativeForm::kGeneral, QualitativeForm::kParallel}) {
    const CostModel model = FitCostModel(QueryClassId::kUnarySeqScan, obs,
                                         {0, 1}, states, form);
    for (double probe : {0.05, 0.4, 0.95}) {
      for (double f0 : {0.0, 1.0, 123.456}) {
        for (double f1 : {-4.0, 0.5, 88.0}) {
          const std::vector<double> features = {f0, f1};
          EXPECT_DOUBLE_EQ(model.EstimateFast(features, probe),
                           model.Estimate(features, probe));
        }
      }
    }
  }
}

TEST(CostModelTest, EstimateClampsNegativePredictions) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {-50.0};
  truth.slopes = {{1.0}};
  Rng rng(3);
  const ObservationSet obs = test::SyntheticObservations(truth, 60, rng);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  EXPECT_DOUBLE_EQ(model.Estimate({0.0}, 0.5), 0.0);
}

TEST(CostModelTest, SingleStateEqualsPlainRegression) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {2.0};
  truth.slopes = {{1.5, 0.5}};
  truth.noise_stddev = 0.1;
  Rng rng(4);
  const ObservationSet obs = test::SyntheticObservations(truth, 150, rng);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  EXPECT_NEAR(model.CoefficientFor(-1, 0), 2.0, 0.15);
  EXPECT_NEAR(model.CoefficientFor(0, 0), 1.5, 0.05);
  EXPECT_NEAR(model.CoefficientFor(1, 0), 0.5, 0.05);
}

TEST(CostModelTest, MultiStateBeatsSingleStateOnPiecewiseData) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 5.0, 20.0};
  truth.slopes = {{0.2}, {1.0}, {4.0}};
  truth.noise_stddev = 0.3;
  Rng rng(5);
  const ObservationSet obs = test::SyntheticObservations(truth, 400, rng);
  const CostModel single =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  const CostModel multi = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 3),
      QualitativeForm::kGeneral);
  EXPECT_GT(multi.r_squared(), single.r_squared() + 0.05);
  EXPECT_LT(multi.standard_error(), single.standard_error());
}

TEST(CostModelTest, GeneralFormBeatsParallelWhenSlopesChange) {
  // Slopes differ across states; intercept identical — parallel cannot fit.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 1.0};
  truth.slopes = {{0.5}, {5.0}};
  truth.noise_stddev = 0.1;
  Rng rng(6);
  const ObservationSet obs = test::SyntheticObservations(truth, 300, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel parallel =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kParallel);
  const CostModel general =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kGeneral);
  EXPECT_GT(general.r_squared(), parallel.r_squared() + 0.01);
}

TEST(CostModelTest, FTestSignificantOnRealRelationship) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 3.0};
  truth.slopes = {{2.0}, {4.0}};
  truth.noise_stddev = 0.5;
  Rng rng(7);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  EXPECT_LT(model.f_pvalue(), 0.01);  // significance level in the paper
}

TEST(CostModelTest, ToStringShowsPerStateEquations) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 2.0};
  truth.slopes = {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}};
  Rng rng(8);
  const ObservationSet obs = test::SyntheticObservations(truth, 150, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0, 1, 2},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  const std::string s =
      model.ToString(VariableSet::ForClass(QueryClassId::kUnarySeqScan));
  EXPECT_NE(s.find("state 0"), std::string::npos);
  EXPECT_NE(s.find("state 1"), std::string::npos);
  EXPECT_NE(s.find("N_t"), std::string::npos);
  EXPECT_NE(s.find("R^2"), std::string::npos);
}

CostModel TwoStateModel(Rng& rng) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 4.0};
  truth.slopes = {{0.5, 0.2}, {1.5, 0.6}};
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  return FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1},
                      ContentionStates::UniformPartition(0.0, 1.0, 2),
                      QualitativeForm::kGeneral);
}

TEST(CostModelTest, ApplyFeedbackBumpsGenerationAndMovesOnlyThatState) {
  Rng rng(21);
  const CostModel base = TwoStateModel(rng);
  EXPECT_EQ(base.generation(), 0u);

  const std::vector<double> features = {3.0, 4.0};
  const auto adapted = base.ApplyFeedback(/*state=*/1, features,
                                          /*actual=*/100.0);
  ASSERT_TRUE(adapted.has_value());
  EXPECT_EQ(adapted->generation(), 1u);
  EXPECT_EQ(adapted->adaptation().states.count(1), 1u);
  EXPECT_EQ(adapted->adaptation().states.count(0), 0u);

  // The untouched state's compiled row is bit-identical: cached estimates
  // for other states survive an adaptation swap value-correct.
  const double* row0_before = base.compiled().row(0);
  const double* row0_after = adapted->compiled().row(0);
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(row0_before[j], row0_after[j]);

  // The fed state's equation moved toward the reported actual.
  const double before = base.EstimateFast(features, 0.9);
  const double after = adapted->EstimateFast(features, 0.9);
  EXPECT_GT(after, before);
}

TEST(CostModelTest, AdaptedEstimateMatchesEstimateFastBitExact) {
  Rng rng(22);
  CostModel model = TwoStateModel(rng);
  stats::RlsConfig config;
  config.forgetting = 0.98;
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> features = {rng.Uniform(1, 10),
                                          rng.Uniform(1, 10)};
    const int state = i % 2;
    const double actual = 2.0 + 3.0 * features[0] + 0.5 * features[1];
    auto next = model.ApplyFeedback(state, features, actual, config);
    ASSERT_TRUE(next.has_value());
    model = std::move(*next);
  }
  EXPECT_EQ(model.generation(), 40u);
  // Reference and compiled paths stay bit-identical on adapted states.
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> features = {rng.Uniform(0, 12),
                                          rng.Uniform(0, 12)};
    const double probe = rng.NextDouble();
    EXPECT_EQ(model.Estimate(features, probe),
              model.EstimateFast(features, probe));
  }
}

// The ISSUE's parity pin: at λ = 1 under a diffuse prior, a state's
// RLS-adapted row must match a batch OLS refit over the same feedback
// window (different floating-point orderings, so a tight numeric
// differential rather than bit equality).
TEST(CostModelTest, ApplyFeedbackLambda1MatchesBatchRefitOnWindow) {
  Rng rng(23);
  CostModel model = TwoStateModel(rng);
  stats::RlsConfig config;
  config.forgetting = 1.0;
  config.initial_variance = 1e10;

  std::vector<std::vector<double>> window_rows;
  std::vector<double> window_actuals;
  for (int i = 0; i < 150; ++i) {
    const std::vector<double> features = {rng.Uniform(1, 10),
                                          rng.Uniform(1, 10)};
    const double actual =
        7.0 + 2.5 * features[0] - 0.75 * features[1] + rng.Gaussian(0.0, 0.1);
    auto next = model.ApplyFeedback(/*state=*/0, features, actual, config);
    ASSERT_TRUE(next.has_value());
    model = std::move(*next);
    window_rows.push_back({1.0, features[0], features[1]});
    window_actuals.push_back(actual);
  }

  const stats::OlsResult batch =
      stats::FitOls(stats::Matrix::FromRows(window_rows), window_actuals);
  const double* adapted_row = model.compiled().row(0);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(adapted_row[j], batch.coefficients[j], 1e-5)
        << "coefficient " << j;
  }
}

TEST(CostModelTest, ApplyFeedbackRejectsBadObservations) {
  Rng rng(24);
  const CostModel model = TwoStateModel(rng);
  EXPECT_FALSE(
      model.ApplyFeedback(0, {1.0, 2.0}, std::nan("")).has_value());
  EXPECT_FALSE(model
                   .ApplyFeedback(
                       0, {std::numeric_limits<double>::infinity(), 2.0}, 5.0)
                   .has_value());
}

// --- The general form is fitted one contention state at a time. Its
// reference is the dense fit of the same design: one QR over all S(k+1)
// columns.

stats::OlsResult DenseGeneralFit(const ObservationSet& obs,
                                 const std::vector<int>& selected,
                                 const ContentionStates& states) {
  const DesignLayout layout =
      DesignLayout::Make(static_cast<int>(selected.size()),
                         QualitativeForm::kGeneral, states.num_states());
  return stats::FitOls(BuildDesignMatrix(obs, selected, states, layout),
                       ResponseVector(obs));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << what << "[" << i << "]";
  }
}

// Every field of the two fits, bit for bit.
void ExpectSameFit(const stats::OlsResult& block,
                   const stats::OlsResult& dense) {
  EXPECT_EQ(block.rank_deficient, dense.rank_deficient);
  EXPECT_EQ(block.n, dense.n);
  EXPECT_EQ(block.p, dense.p);
  ExpectBitIdentical(block.coefficients, dense.coefficients, "coefficient");
  ExpectBitIdentical(block.standard_errors, dense.standard_errors, "se");
  ExpectBitIdentical(block.t_statistics, dense.t_statistics, "t");
  ExpectBitIdentical(block.fitted, dense.fitted, "fitted");
  ExpectBitIdentical(block.residuals, dense.residuals, "residual");
  ExpectBitIdentical(block.xtx_inverse.data(), dense.xtx_inverse.data(),
                     "xtx_inverse");
  ExpectBitIdentical({block.sse, block.sst, block.r_squared,
                      block.adjusted_r_squared, block.standard_error,
                      block.f_statistic, block.f_pvalue},
                     {dense.sse, dense.sst, dense.r_squared,
                      dense.adjusted_r_squared, dense.standard_error,
                      dense.f_statistic, dense.f_pvalue},
                     "summary");
}

// (X'X)^{-1} of a general-form fit has exact zeros between states.
void ExpectZeroAcrossStates(const stats::OlsResult& fit,
                            const DesignLayout& layout) {
  const std::vector<DesignTerm>& terms = layout.terms();
  for (size_t a = 0; a < terms.size(); ++a) {
    for (size_t b = 0; b < terms.size(); ++b) {
      if (terms[a].state == terms[b].state) continue;
      EXPECT_EQ(Bits(fit.xtx_inverse(a, b)), Bits(0.0))
          << "(" << a << ", " << b << ")";
    }
  }
}

double RelativeError(double got, double want) {
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

// Noisy per-state linear data: intercepts in [1, 50), slopes in [0.5, 5).
ObservationSet RandomStateData(int num_states, int num_features, size_t n,
                               Rng& rng) {
  test::SyntheticGroundTruth truth;
  for (int s = 0; s < num_states; ++s) {
    truth.intercepts.push_back(rng.Uniform(1.0, 50.0));
    std::vector<double> slopes;
    for (int j = 0; j < num_features; ++j) {
      slopes.push_back(rng.Uniform(0.5, 5.0));
    }
    truth.slopes.push_back(std::move(slopes));
  }
  truth.noise_stddev = 1.0;
  return test::SyntheticObservations(truth, n, rng);
}

TEST(GeneralFormBlockFitTest, MatchesDenseFit) {
  Rng rng(31);
  for (int num_states : {1, 2, 5, 8}) {
    for (int k : {1, 3, 5}) {
      SCOPED_TRACE(testing::Message() << "S=" << num_states << " k=" << k);
      const ObservationSet obs = RandomStateData(num_states, k, 400, rng);
      std::vector<int> selected(static_cast<size_t>(k));
      std::iota(selected.begin(), selected.end(), 0);
      const ContentionStates states =
          ContentionStates::UniformPartition(0.0, 1.0, num_states);
      const CostModel model =
          FitCostModel(QueryClassId::kUnarySeqScan, obs, selected, states,
                       QualitativeForm::kGeneral);
      const stats::OlsResult& block = model.fit();
      const stats::OlsResult dense = DenseGeneralFit(obs, selected, states);
      ASSERT_FALSE(dense.rank_deficient);
      if (num_states == 1) {
        ExpectSameFit(block, dense);
        continue;
      }
      EXPECT_FALSE(block.rank_deficient);
      ASSERT_EQ(block.coefficients.size(), dense.coefficients.size());
      for (size_t j = 0; j < dense.coefficients.size(); ++j) {
        EXPECT_LE(RelativeError(block.coefficients[j], dense.coefficients[j]),
                  1e-9)
            << "coefficient " << j;
        for (size_t i = 0; i < dense.coefficients.size(); ++i) {
          const double scale = std::max(dense.xtx_inverse(i, i),
                                        dense.xtx_inverse(j, j));
          EXPECT_NEAR(block.xtx_inverse(i, j), dense.xtx_inverse(i, j),
                      1e-9 * scale);
        }
      }
      EXPECT_LE(RelativeError(block.standard_error, dense.standard_error),
                1e-12);
      EXPECT_LE(RelativeError(block.r_squared, dense.r_squared), 1e-12);
      EXPECT_LE(RelativeError(block.f_statistic, dense.f_statistic), 1e-12);
      ExpectZeroAcrossStates(block, model.layout());
      // Residuals come back in observation order.
      ASSERT_EQ(block.residuals.size(), obs.size());
      for (size_t i = 0; i < obs.size(); ++i) {
        EXPECT_EQ(block.residuals[i], obs[i].cost - block.fitted[i]);
        EXPECT_NEAR(block.residuals[i], dense.residuals[i], 1e-9);
      }
    }
  }
}

TEST(GeneralFormBlockFitTest, RankDeficientFitsMatchDenseRidgeBitForBit) {
  Rng rng(32);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 3);
  const std::vector<int> selected = {0, 1};
  const ObservationSet base = RandomStateData(3, 2, 150, rng);
  auto state_of = [&](const Observation& o) {
    return states.StateOf(o.probing_cost);
  };

  // State 0's two features are one column twice.
  ObservationSet duplicated = base;
  for (Observation& o : duplicated) {
    if (state_of(o) == 0) o.features[1] = o.features[0];
  }
  // State 2 keeps two rows for its three columns.
  ObservationSet short_state;
  int kept = 0;
  for (const Observation& o : base) {
    if (state_of(o) != 2 || kept++ < 2) short_state.push_back(o);
  }
  // State 1 has no rows at all.
  ObservationSet empty_state;
  for (const Observation& o : base) {
    if (state_of(o) != 1) empty_state.push_back(o);
  }

  const std::pair<const char*, const ObservationSet*> cases[] = {
      {"duplicated feature", &duplicated},
      {"short state", &short_state},
      {"empty state", &empty_state}};
  for (const auto& [name, obs] : cases) {
    SCOPED_TRACE(name);
    const CostModel model =
        FitCostModel(QueryClassId::kUnarySeqScan, *obs, selected, states,
                     QualitativeForm::kGeneral);
    const stats::OlsResult dense = DenseGeneralFit(*obs, selected, states);
    EXPECT_TRUE(dense.rank_deficient);
    ExpectSameFit(model.fit(), dense);
    ExpectZeroAcrossStates(model.fit(), model.layout());
  }
}

}  // namespace
}  // namespace mscm::core
