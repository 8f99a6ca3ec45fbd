// The serving form of a derived cost model: the paper's per-state linear
// equations (Table 4) compiled into one flat, state-major coefficient table.
//
// Derivation works on the DesignLayout term list — one column per
// (variable, state) cell, shared columns for coincident/parallel/concurrent
// forms — because that is what OLS fits and what the merging test of
// Algorithm 3.1 inspects. Serving needs none of that structure: "for the
// current time" (§3.1) the optimizer resolves one contention state from the
// probing cost and evaluates one linear equation. CompiledEquations is that
// equation set, materialized once at publication time:
//
//   table_[s * stride .. (s+1) * stride) = (intercept_s, slope_s[0..k-1])
//
// with stride = num_selected + 1, plus the state partition boundaries for
// state lookup and the selected→feature index remap. Whatever qualitative
// form derived the model, compilation resolves shared coefficients into
// every state's row, so evaluation never branches on form or per-term state
// tags: one state lookup, one width check, then a raw dot product over
// num_selected + 1 doubles.
//
// Evaluation is bit-for-bit identical to CostModel::Estimate (the
// derivation-side reference that rebuilds a design row per call): within a
// state, active design columns appear in intercept-then-variables order,
// and skipping a column whose row entry is zero cannot change an IEEE sum.
// tests/compiled_equations_test.cc holds the differential property test.
//
// Instances are immutable after Compile() and safe to share across threads.

#ifndef MSCM_CORE_COMPILED_EQUATIONS_H_
#define MSCM_CORE_COMPILED_EQUATIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/cost_distribution.h"
#include "core/qualitative.h"
#include "core/states.h"
#include "stats/ols.h"

namespace mscm::core {

class CompiledEquations {
 public:
  // Compiles the fitted artifact (selection + partition + layout +
  // coefficients) into the serving table. Validates the whole remap once —
  // every selected feature index, every (variable, state) coefficient
  // column — so per-estimate evaluation carries no per-term checks.
  static CompiledEquations Compile(const std::vector<int>& selected,
                                   const ContentionStates& states,
                                   const DesignLayout& layout,
                                   const std::vector<double>& coefficients);

  // As above, and additionally compiles the fit's prediction-interval
  // structure when it is available ((X'X)^{-1} present, positive residual
  // degrees of freedom): per state, the (1 + num_selected)^2 submatrix of
  // (X'X)^{-1} over the state's active design columns, plus the SEE and the
  // Student-t quantile for 95% intervals — everything
  // IntervalHalfWidthInState needs without touching the DesignLayout per
  // call. A fit without the structure compiles fine; has_intervals() is then
  // false and distributions carry only between-state spread.
  static CompiledEquations Compile(const std::vector<int>& selected,
                                   const ContentionStates& states,
                                   const DesignLayout& layout,
                                   const stats::OlsResult& fit);

  // A copy of `base` with the given per-state coefficient rows replaced and
  // `generation` stamped — the adaptation swap path. Each replacement row
  // has stride (= num_selected + 1) doubles in (intercept, slopes) order;
  // states not in `rows` keep the base rows bit for bit, so estimates priced
  // in untouched states are bit-identical across the swap. The
  // interval structure is kept as-is: RLS adaptation moves the point
  // equations, while prediction intervals continue to describe the last
  // full (slow-path) fit.
  static CompiledEquations WithAdaptedRows(
      const CompiledEquations& base,
      const std::map<int, std::vector<double>>& rows, uint64_t generation);

  // Which model produced an estimate: 0 for a freshly derived model, +1 per
  // adaptation swap. Stamped through EstimateResponse so feedback pairs are
  // credited to the generation that actually served them.
  uint64_t generation() const { return generation_; }

  int num_states() const {
    return static_cast<int>(boundaries_.size()) + 1;
  }
  size_t num_selected() const { return selected_.size(); }

  // Minimum feature-vector width an estimate request must supply
  // (max selected feature index + 1).
  size_t min_features() const { return min_features_; }

  // Contention state of a probing cost — identical partition semantics to
  // ContentionStates::StateOf (ends open to ±infinity).
  int StateOf(double probing_cost) const {
    int state = 0;
    const int n = static_cast<int>(boundaries_.size());
    while (state < n && boundaries_[state] < probing_cost) ++state;
    return state;
  }

  // Validates the feature-vector width once per request; aborts with a
  // clear diagnostic on a short vector instead of faulting mid-loop.
  void CheckFeatureWidth(const std::vector<double>& features) const {
    MSCM_CHECK_MSG(features.size() >= min_features_,
                   "feature vector shorter than the compiled model's "
                   "selected-variable remap");
  }

  // Full serving evaluation: width check, state lookup, dot product,
  // negative clamp. Matches CostModel::Estimate bit for bit.
  double Evaluate(const std::vector<double>& features,
                  double probing_cost) const {
    CheckFeatureWidth(features);
    return EvaluateInState(features.data(), StateOf(probing_cost));
  }

  // The inner hot loop, for callers that resolved the state and validated
  // the width already (batched serving does both once per block):
  //   y = row[0] + sum_j row[j + 1] * features[selected[j]].
  double EvaluateInState(const double* features, int state) const {
    MSCM_DCHECK(state >= 0 && state < num_states());
    const double* row = &table_[static_cast<size_t>(state) * stride_];
    double y = row[0];
    for (size_t j = 0; j < selected_.size(); ++j) {
      y += row[j + 1] * features[static_cast<size_t>(selected_[j])];
    }
    // Exactly std::max(0.0, y), matching the reference path's clamp
    // (including for NaN) without pulling <algorithm> into the hot header.
    return 0.0 < y ? y : 0.0;
  }

  // Packs one request's selected features into `dst[0..num_selected)` in
  // slope order — the gather that turns arbitrary feature vectors into the
  // contiguous rows EvaluateRowsInState streams over. `features` must have
  // passed CheckFeatureWidth.
  void GatherSelected(const double* features, double* dst) const {
    for (size_t j = 0; j < selected_.size(); ++j) {
      dst[j] = features[static_cast<size_t>(selected_[j])];
    }
  }

  // Grouped serving evaluation: `packed` holds n gathered rows (see
  // GatherSelected), row-major n x num_selected, all resolved to the same
  // contention state; writes n estimates to `out`. The coefficient row is
  // pinned once and every load is unit-stride, so the compiler can keep
  // slopes in registers and vectorize — this is the batch hot loop when
  // EstimateBatch groups items by state. Accumulation order and the
  // negative clamp are exactly EvaluateInState's (same additions, same
  // order, no FMA contraction the scalar path wouldn't do), so results are
  // bit-for-bit identical to evaluating each row alone.
  void EvaluateRowsInState(int state, const double* packed, size_t n,
                           double* out) const {
    MSCM_DCHECK(state >= 0 && state < num_states());
    const double* row = &table_[static_cast<size_t>(state) * stride_];
    const size_t k = selected_.size();
    for (size_t i = 0; i < n; ++i) {
      const double* f = packed + i * k;
      double y = row[0];
      for (size_t j = 0; j < k; ++j) {
        y += row[j + 1] * f[j];
      }
      out[i] = 0.0 < y ? y : 0.0;
    }
  }

  // The state's row: (intercept, slope[0..num_selected-1]), contiguous.
  const double* row(int state) const {
    MSCM_DCHECK(state >= 0 && state < num_states());
    return &table_[static_cast<size_t>(state) * stride_];
  }

  // Whether the prediction-interval structure was compiled in (see the
  // OlsResult Compile overload).
  bool has_intervals() const { return has_intervals_; }

  // The Student t upper 0.025 quantile at `dof` degrees of freedom,
  // bit-identical to stats::StudentTUpperQuantile(0.025, dof) and memoized
  // per thread: every trial fit of variable selection and state
  // determination compiles its interval table, and the trial fits of one
  // derivation share a handful of dof values.
  static double T95(size_t dof);

  // Half-width of the 95% prediction interval for a *new* observation
  // evaluated in `state`: t * s * sqrt(1 + z' M_s z) with z = (1, gathered)
  // and M_s the state's compiled (X'X)^{-1} submatrix. `gathered` holds the
  // selected feature values in slope order (see GatherSelected). Matches
  // CostModel::EstimateWithInterval's half-width (alpha = 0.05) to floating-
  // point reassociation. Returns 0 when has_intervals() is false.
  double IntervalHalfWidthInState(const double* gathered, int state) const;

  // The served cost distribution for one request (see cost_distribution.h):
  // resolves the probing cost to a state, blends in the adjacent state when
  // the cost sits within band_fraction * |boundary| of a partition boundary
  // (soft membership, weight ramping linearly from 0.5 at the boundary to 0
  // at the band edge), and combines the member states' means and prediction
  // half-widths into mixture moments:
  //   mean = sum_i w_i m_i
  //   half = sqrt(sum_i w_i (h_i^2 + (m_i - mean)^2))
  //   [low, high] = [max(0, mean - half), mean + half]
  // Continuous in the probing cost everywhere (at the band edge the
  // neighbor's weight reaches 0), and away from any band it degenerates to
  // the hard-state evaluation: mean == Evaluate(features, probing_cost).
  // band_fraction <= 0 disables blending. stale/degraded are left for the
  // caller to stamp from the probe reading.
  CostDistribution EvaluateDistribution(const std::vector<double>& features,
                                        double probing_cost,
                                        double band_fraction) const;

  // Feature indices of the selected variables, in slope order.
  const std::vector<int>& selected() const { return selected_; }

  // Internal partition boundaries, ascending (size num_states() - 1).
  const std::vector<double>& boundaries() const { return boundaries_; }

  // Renders the table per state (debugging aid; Table-4 style rendering
  // with variable names lives on CostModel::ToString).
  std::string ToString() const;

 private:
  CompiledEquations(std::vector<double> table, std::vector<double> boundaries,
                    std::vector<int> selected, size_t min_features)
      : stride_(selected.size() + 1),
        min_features_(min_features),
        table_(std::move(table)),
        boundaries_(std::move(boundaries)),
        selected_(std::move(selected)) {}

  size_t stride_;
  size_t min_features_;
  std::vector<double> table_;       // state-major, num_states x stride_
  std::vector<double> boundaries_;  // state partition, ascending
  std::vector<int> selected_;       // slope j reads features[selected_[j]]
  uint64_t generation_ = 0;         // adaptation generation (0 = base fit)

  // Prediction-interval structure (empty / zero unless the OlsResult
  // Compile overload found covariance + degrees of freedom): per state, the
  // stride_ x stride_ submatrix of (X'X)^{-1} over the state's active
  // columns, state-major like table_.
  bool has_intervals_ = false;
  double sigma_ = 0.0;  // SEE of the fit
  double t95_ = 0.0;    // Student-t upper 0.025 quantile at the fit's dof
  std::vector<double> interval_table_;
};

}  // namespace mscm::core

#endif  // MSCM_CORE_COMPILED_EQUATIONS_H_
