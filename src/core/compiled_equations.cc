#include "core/compiled_equations.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/str_util.h"
#include "stats/distributions.h"

namespace mscm::core {

CompiledEquations CompiledEquations::Compile(
    const std::vector<int>& selected, const ContentionStates& states,
    const DesignLayout& layout, const std::vector<double>& coefficients) {
  MSCM_CHECK_MSG(layout.num_selected() ==
                     static_cast<int>(selected.size()),
                 "layout/selection width mismatch");
  MSCM_CHECK_MSG(layout.num_states() == states.num_states(),
                 "layout/partition state-count mismatch");
  MSCM_CHECK_MSG(coefficients.size() == layout.num_columns(),
                 "coefficient vector does not match the design layout");

  // Validate the feature-index remap once, here, instead of per estimate:
  // slope j of every state reads features[selected[j]].
  size_t min_features = 0;
  for (int idx : selected) {
    MSCM_CHECK_MSG(idx >= 0, "negative selected feature index");
    min_features = std::max(min_features, static_cast<size_t>(idx) + 1);
  }

  const int num_states = states.num_states();
  const size_t stride = selected.size() + 1;
  std::vector<double> table(static_cast<size_t>(num_states) * stride, 0.0);
  for (int s = 0; s < num_states; ++s) {
    double* row = &table[static_cast<size_t>(s) * stride];
    for (int v = -1; v < static_cast<int>(selected.size()); ++v) {
      const int col = layout.ColumnOf(v, s);
      MSCM_CHECK_MSG(col >= 0, "design layout missing a (variable, state) "
                               "coefficient column");
      row[static_cast<size_t>(v + 1)] =
          coefficients[static_cast<size_t>(col)];
    }
  }
  return CompiledEquations(std::move(table), states.boundaries(), selected,
                           min_features);
}

CompiledEquations CompiledEquations::Compile(const std::vector<int>& selected,
                                             const ContentionStates& states,
                                             const DesignLayout& layout,
                                             const stats::OlsResult& fit) {
  CompiledEquations out = Compile(selected, states, layout, fit.coefficients);
  const double dof =
      static_cast<double>(fit.n) - static_cast<double>(fit.p);
  // No covariance (a record persisted before xtx_inverse was serialized) or
  // no residual degrees of freedom: serve point equations only, exactly the
  // cases where EstimateWithInterval answers nullopt.
  if (fit.xtx_inverse.empty() || dof <= 0.0 ||
      !std::isfinite(fit.standard_error) || fit.standard_error < 0.0) {
    return out;
  }
  MSCM_CHECK_MSG(fit.xtx_inverse.rows() == layout.num_columns() &&
                     fit.xtx_inverse.cols() == layout.num_columns(),
                 "(X'X)^{-1} does not match the design layout");

  const int num_states = states.num_states();
  const size_t stride = out.stride_;
  out.interval_table_.assign(
      static_cast<size_t>(num_states) * stride * stride, 0.0);
  std::vector<int> cols(stride, -1);
  for (int s = 0; s < num_states; ++s) {
    for (int v = -1; v < static_cast<int>(selected.size()); ++v) {
      cols[static_cast<size_t>(v + 1)] = layout.ColumnOf(v, s);
      MSCM_CHECK(cols[static_cast<size_t>(v + 1)] >= 0);
    }
    double* m = &out.interval_table_[static_cast<size_t>(s) * stride * stride];
    for (size_t a = 0; a < stride; ++a) {
      for (size_t b = 0; b < stride; ++b) {
        m[a * stride + b] =
            fit.xtx_inverse(static_cast<size_t>(cols[a]),
                            static_cast<size_t>(cols[b]));
      }
    }
  }
  out.sigma_ = fit.standard_error;
  out.t95_ = T95(fit.n - fit.p);
  out.has_intervals_ = true;
  return out;
}

double CompiledEquations::T95(size_t dof) {
  thread_local std::unordered_map<size_t, double> memo;
  const auto [it, inserted] = memo.try_emplace(dof, 0.0);
  if (inserted) {
    it->second = stats::StudentTUpperQuantile(0.025, static_cast<double>(dof));
  }
  return it->second;
}

CompiledEquations CompiledEquations::WithAdaptedRows(
    const CompiledEquations& base, const std::map<int, std::vector<double>>& rows,
    uint64_t generation) {
  CompiledEquations out = base;
  for (const auto& [state, row] : rows) {
    MSCM_CHECK_MSG(state >= 0 && state < base.num_states(),
                   "adapted row for a state outside the partition");
    MSCM_CHECK_MSG(row.size() == base.stride_,
                   "adapted row width does not match the compiled stride");
    std::copy(row.begin(), row.end(),
              out.table_.begin() + static_cast<size_t>(state) * base.stride_);
  }
  out.generation_ = generation;
  return out;
}

double CompiledEquations::IntervalHalfWidthInState(const double* gathered,
                                                   int state) const {
  if (!has_intervals_) return 0.0;
  MSCM_DCHECK(state >= 0 && state < num_states());
  const double* m =
      &interval_table_[static_cast<size_t>(state) * stride_ * stride_];
  // quad = z' M_s z with z = (1, gathered[0..k-1]).
  double quad = 0.0;
  for (size_t a = 0; a < stride_; ++a) {
    const double za = a == 0 ? 1.0 : gathered[a - 1];
    double acc = 0.0;
    for (size_t b = 0; b < stride_; ++b) {
      acc += m[a * stride_ + b] * (b == 0 ? 1.0 : gathered[b - 1]);
    }
    quad += za * acc;
  }
  return t95_ * sigma_ * std::sqrt(std::max(0.0, 1.0 + quad));
}

CostDistribution CompiledEquations::EvaluateDistribution(
    const std::vector<double>& features, double probing_cost,
    double band_fraction) const {
  CheckFeatureWidth(features);
  std::vector<double> gathered(selected_.size());
  GatherSelected(features.data(), gathered.data());

  const int state = StateOf(probing_cost);
  // Soft membership: find the nearest internal boundary of `state` and, if
  // the probing cost sits inside its band, blend the state across it.
  int neighbor = -1;
  double weight_neighbor = 0.0;
  if (!boundaries_.empty() && band_fraction > 0.0 &&
      std::isfinite(probing_cost)) {
    double boundary = 0.0;
    double distance = std::numeric_limits<double>::infinity();
    if (state > 0) {
      boundary = boundaries_[static_cast<size_t>(state) - 1];
      distance = std::abs(probing_cost - boundary);
      neighbor = state - 1;
    }
    if (state < static_cast<int>(boundaries_.size())) {
      const double above = boundaries_[static_cast<size_t>(state)];
      if (std::abs(above - probing_cost) < distance) {
        boundary = above;
        distance = std::abs(above - probing_cost);
        neighbor = state + 1;
      }
    }
    // The band scales with the boundary's magnitude, so "near" means the
    // same relative probe jitter at every contention level.
    const double band = band_fraction * std::abs(boundary);
    if (neighbor >= 0 && distance < band) {
      weight_neighbor = 0.5 * (1.0 - distance / band);
    } else {
      neighbor = -1;
    }
  }

  CostDistribution out;
  out.has_interval = has_intervals_;
  double means[2] = {0.0, 0.0};
  double halves[2] = {0.0, 0.0};
  double weights[2] = {1.0 - weight_neighbor, weight_neighbor};
  const int members[2] = {state, neighbor};
  const int n = neighbor >= 0 ? 2 : 1;
  for (int i = 0; i < n; ++i) {
    EvaluateRowsInState(members[i], gathered.data(), 1, &means[i]);
    halves[i] = IntervalHalfWidthInState(gathered.data(), members[i]);
    out.mean += weights[i] * means[i];
  }
  double spread = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = means[i] - out.mean;
    spread += weights[i] * (halves[i] * halves[i] + d * d);
  }
  const double half = std::sqrt(spread);
  out.low = std::max(0.0, out.mean - half);
  out.high = out.mean + half;
  return out;
}

std::string CompiledEquations::ToString() const {
  std::string out = Format("compiled equations: %d state(s), %zu slope(s)\n",
                           num_states(), num_selected());
  for (int s = 0; s < num_states(); ++s) {
    const double* r = row(s);
    std::vector<std::string> terms;
    terms.push_back(CompactDouble(r[0]));
    for (size_t j = 0; j < selected_.size(); ++j) {
      terms.push_back(Format("%s*x[%d]", CompactDouble(r[j + 1]).c_str(),
                             selected_[j]));
    }
    out += Format("  state %d: cost = %s\n", s, Join(terms, " + ").c_str());
  }
  return out;
}

}  // namespace mscm::core
