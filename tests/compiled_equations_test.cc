// Differential tests for the compiled serving representation: for models
// over all four qualitative forms, CompiledEquations::Evaluate must agree
// *bit for bit* with the derivation-side reference (CostModel::Estimate,
// which rebuilds a design row per call), the retired per-term walk
// (CostModel::EstimateTermWalk), and the delegating hot path
// (CostModel::EstimateFast) — including the negative-clamp-to-zero edge and
// probing costs exactly on state boundaries. Also pins the compile-time
// remap contract: a short feature vector dies with a clear diagnostic
// before the dot product runs, not mid-loop.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_equations.h"
#include "core/cost_model.h"
#include "stats/distributions.h"
#include "tests/test_util.h"

namespace mscm::core {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Asserts the four evaluators agree bit for bit at one point.
void ExpectAllAgree(const CostModel& model, const std::vector<double>& features,
                    double probe) {
  const double reference = model.Estimate(features, probe);
  EXPECT_EQ(Bits(model.EstimateTermWalk(features, probe)), Bits(reference))
      << "term walk diverged at probe " << probe;
  EXPECT_EQ(Bits(model.EstimateFast(features, probe)), Bits(reference))
      << "EstimateFast diverged at probe " << probe;
  EXPECT_EQ(Bits(model.compiled().Evaluate(features, probe)), Bits(reference))
      << "compiled table diverged at probe " << probe;
  EXPECT_EQ(model.compiled().StateOf(probe), model.states().StateOf(probe))
      << "state lookup diverged at probe " << probe;
}

TEST(CompiledEquationsTest, DifferentialAgreementAcrossAllForms) {
  Rng rng(2024);
  const QualitativeForm forms[] = {
      QualitativeForm::kCoincident, QualitativeForm::kParallel,
      QualitativeForm::kConcurrent, QualitativeForm::kGeneral};
  for (const QualitativeForm form : forms) {
    for (int trial = 0; trial < 8; ++trial) {
      // Randomized ground truth: 1–4 states, 1–3 selected variables,
      // coefficients spanning signs and magnitudes.
      const int num_states = 1 + static_cast<int>(rng.Uniform(0.0, 3.999));
      const size_t num_vars = 1 + static_cast<size_t>(rng.Uniform(0.0, 2.999));
      test::SyntheticGroundTruth truth;
      for (int s = 0; s < num_states; ++s) {
        truth.intercepts.push_back(rng.Uniform(-20.0, 40.0));
        std::vector<double> slopes;
        for (size_t v = 0; v < num_vars; ++v) {
          slopes.push_back(rng.Uniform(-5.0, 8.0));
        }
        truth.slopes.push_back(std::move(slopes));
      }
      truth.noise_stddev = 0.2;
      const ObservationSet obs = test::SyntheticObservations(truth, 250, rng);
      std::vector<int> selected;
      for (size_t v = 0; v < num_vars; ++v) {
        selected.push_back(static_cast<int>(v));
      }
      const ContentionStates states =
          num_states == 1
              ? ContentionStates::Single()
              : ContentionStates::UniformPartition(0.0, 1.0, num_states);
      const CostModel model = FitCostModel(QueryClassId::kUnarySeqScan, obs,
                                           selected, states, form);

      for (int probe_trial = 0; probe_trial < 12; ++probe_trial) {
        const double probe = rng.Uniform(-0.5, 1.5);
        std::vector<double> features(num_vars);
        for (size_t v = 0; v < num_vars; ++v) {
          features[v] = rng.Uniform(-10.0, 200.0);
        }
        ExpectAllAgree(model, features, probe);
      }
    }
  }
}

// The grouped batch kernel (GatherSelected + EvaluateRowsInState, the
// state-major contiguous loop EstimateBatch streams over) must be bit-exact
// with the retired per-term walk — same additions in the same order, same
// negative clamp — for every qualitative form, on blocks mixing items
// across states and including clamp-to-zero rows.
TEST(CompiledEquationsTest, GroupedRowsMatchTermWalkBitForBitAcrossForms) {
  Rng rng(31337);
  const QualitativeForm forms[] = {
      QualitativeForm::kCoincident, QualitativeForm::kParallel,
      QualitativeForm::kConcurrent, QualitativeForm::kGeneral};
  for (const QualitativeForm form : forms) {
    const int num_states = 3;
    const size_t num_vars = 1 + static_cast<size_t>(rng.Uniform(0.0, 2.999));
    test::SyntheticGroundTruth truth;
    for (int s = 0; s < num_states; ++s) {
      // Strongly negative intercepts in state 0 so some rows clamp to zero.
      truth.intercepts.push_back(s == 0 ? -200.0 : rng.Uniform(-20.0, 40.0));
      std::vector<double> slopes;
      for (size_t v = 0; v < num_vars; ++v) {
        slopes.push_back(rng.Uniform(-5.0, 8.0));
      }
      truth.slopes.push_back(std::move(slopes));
    }
    const ObservationSet obs = test::SyntheticObservations(truth, 240, rng);
    std::vector<int> selected;
    for (size_t v = 0; v < num_vars; ++v) {
      selected.push_back(static_cast<int>(v));
    }
    const CostModel model = FitCostModel(
        QueryClassId::kUnarySeqScan, obs, selected,
        ContentionStates::UniformPartition(0.0, 1.0, num_states), form);
    const CompiledEquations& compiled = model.compiled();
    const size_t k = compiled.num_selected();

    // A batch of 96 items with probes spanning every state; group exactly
    // the way the batch path does, then evaluate each group's packed rows.
    constexpr size_t kBatch = 96;
    std::vector<std::vector<double>> features(kBatch);
    std::vector<double> probes(kBatch);
    std::vector<std::vector<size_t>> groups(
        static_cast<size_t>(compiled.num_states()));
    for (size_t i = 0; i < kBatch; ++i) {
      features[i].resize(num_vars);
      for (size_t v = 0; v < num_vars; ++v) {
        features[i][v] = rng.Uniform(-10.0, 200.0);
      }
      probes[i] = rng.Uniform(-0.5, 1.5);
      groups[static_cast<size_t>(compiled.StateOf(probes[i]))].push_back(i);
    }
    for (int state = 0; state < compiled.num_states(); ++state) {
      const std::vector<size_t>& group = groups[static_cast<size_t>(state)];
      if (group.empty()) continue;
      std::vector<double> packed(group.size() * k);
      for (size_t j = 0; j < group.size(); ++j) {
        compiled.GatherSelected(features[group[j]].data(), &packed[j * k]);
      }
      std::vector<double> out(group.size());
      compiled.EvaluateRowsInState(state, packed.data(), group.size(),
                                   out.data());
      for (size_t j = 0; j < group.size(); ++j) {
        const size_t i = group[j];
        EXPECT_EQ(Bits(out[j]),
                  Bits(model.EstimateTermWalk(features[i], probes[i])))
            << "form " << static_cast<int>(form) << " state " << state
            << " item " << i;
        EXPECT_EQ(Bits(out[j]),
                  Bits(compiled.EvaluateInState(features[i].data(), state)))
            << "scalar/grouped divergence at item " << i;
      }
    }
  }
}

TEST(CompiledEquationsTest, AgreesExactlyOnStateBoundaries) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 10.0, 100.0};
  truth.slopes = {{0.5}, {3.0}, {-1.0}};
  Rng rng(7);
  const ObservationSet obs = test::SyntheticObservations(truth, 240, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 3);
  const CostModel model = FitCostModel(QueryClassId::kUnarySeqScan, obs, {0},
                                       states, QualitativeForm::kGeneral);
  // A probing cost exactly equal to a boundary belongs to the state below
  // it ((lo, hi] partitioning); a hair above flips to the next state. All
  // evaluators must agree at, just below, and just above each boundary —
  // and far outside the training range (ends open to ±infinity).
  for (const double boundary : model.states().boundaries()) {
    for (const double probe :
         {boundary, std::nextafter(boundary, -1e300),
          std::nextafter(boundary, 1e300)}) {
      ExpectAllAgree(model, {12.5}, probe);
    }
  }
  ExpectAllAgree(model, {12.5}, -1e9);
  ExpectAllAgree(model, {12.5}, 1e9);
  ExpectAllAgree(model, {12.5}, std::numeric_limits<double>::infinity());
}

TEST(CompiledEquationsTest, NegativePredictionsClampToZeroEverywhere) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {-50.0, -20.0};
  truth.slopes = {{1.0}, {2.0}};
  Rng rng(3);
  const ObservationSet obs = test::SyntheticObservations(truth, 120, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  for (const double probe : {0.25, 0.75}) {
    EXPECT_EQ(Bits(model.compiled().Evaluate({0.0}, probe)), Bits(0.0));
    ExpectAllAgree(model, {0.0}, probe);
  }
}

TEST(CompiledEquationsTest, CompiledTableMatchesAdjustedCoefficients) {
  // The table rows are exactly the per-state adjusted coefficients the
  // derivation artifact exposes via CoefficientFor.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {2.0, 8.0};
  truth.slopes = {{1.5, -0.5}, {4.0, 2.0}};
  Rng rng(5);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0, 1},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  const CompiledEquations& compiled = model.compiled();
  ASSERT_EQ(compiled.num_states(), 2);
  ASSERT_EQ(compiled.num_selected(), 2u);
  for (int s = 0; s < 2; ++s) {
    const double* row = compiled.row(s);
    EXPECT_EQ(Bits(row[0]), Bits(model.CoefficientFor(-1, s)));
    EXPECT_EQ(Bits(row[1]), Bits(model.CoefficientFor(0, s)));
    EXPECT_EQ(Bits(row[2]), Bits(model.CoefficientFor(1, s)));
  }
}

TEST(CompiledEquationsTest, SharedCoefficientsResolvedIntoEveryState) {
  // Parallel form: slopes shared across states; the compiled table must
  // replicate the shared slope into each state's row.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 50.0};
  truth.slopes = {{2.0}, {2.0}};
  Rng rng(6);
  const ObservationSet obs = test::SyntheticObservations(truth, 160, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kParallel);
  const CompiledEquations& compiled = model.compiled();
  EXPECT_EQ(Bits(compiled.row(0)[1]), Bits(compiled.row(1)[1]));
  EXPECT_NE(Bits(compiled.row(0)[0]), Bits(compiled.row(1)[0]));
}

TEST(CompiledEquationsTest, MemoizedT95MatchesTheDirectQuantile) {
  std::vector<uint64_t> direct;
  for (size_t dof = 1; dof <= 2000; ++dof) {
    direct.push_back(
        Bits(stats::StudentTUpperQuantile(0.025, static_cast<double>(dof))));
    // The first call fills this thread's memo; the second reads it back.
    ASSERT_EQ(Bits(CompiledEquations::T95(dof)), direct.back()) << dof;
    ASSERT_EQ(Bits(CompiledEquations::T95(dof)), direct.back()) << dof;
  }
  // A fresh thread starts from an empty memo and agrees.
  size_t mismatches = 0;
  std::thread([&] {
    for (size_t dof = 1; dof <= direct.size(); ++dof) {
      if (Bits(CompiledEquations::T95(dof)) != direct[dof - 1]) ++mismatches;
    }
  }).join();
  EXPECT_EQ(mismatches, 0u);
}

TEST(CompiledEquationsDeathTest, ShortFeatureVectorRejectedUpFront) {
  // The width check runs once per request, before the dot product — a short
  // vector must die with the remap diagnostic, never fault mid-loop.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0};
  truth.slopes = {{1.0, 2.0, 3.0}};
  Rng rng(9);
  const ObservationSet obs = test::SyntheticObservations(truth, 100, rng);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1, 2},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  ASSERT_EQ(model.compiled().min_features(), 3u);
  const std::vector<double> short_features = {1.0, 2.0};
  EXPECT_DEATH(model.compiled().Evaluate(short_features, 0.5),
               "selected-variable remap");
  EXPECT_DEATH(model.EstimateFast(short_features, 0.5),
               "selected-variable remap");
}

}  // namespace
}  // namespace mscm::core
