#include "stats/ols.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "stats/distributions.h"

namespace mscm::stats {

double OlsResult::Predict(const std::vector<double>& design_row) const {
  MSCM_CHECK(design_row.size() == coefficients.size());
  double acc = 0.0;
  for (size_t i = 0; i < design_row.size(); ++i) {
    acc += coefficients[i] * design_row[i];
  }
  return acc;
}

double OlsResult::PredictionStandardError(
    const std::vector<double>& design_row) const {
  if (xtx_inverse.empty()) return 0.0;
  MSCM_CHECK(design_row.size() == xtx_inverse.rows());
  const std::vector<double> vx = xtx_inverse * design_row;
  double quad = 0.0;
  for (size_t i = 0; i < design_row.size(); ++i) quad += design_row[i] * vx[i];
  return standard_error * std::sqrt(std::max(0.0, 1.0 + quad));
}

OlsResult FitOls(const Matrix& x, const std::vector<double>& y) {
  LeastSquaresResult ls = SolveLeastSquares(x, y);
  std::vector<double> fitted = x * ls.coefficients;
  return SummarizeFit(std::move(ls), y, std::move(fitted));
}

OlsResult SummarizeFit(LeastSquaresResult ls, const std::vector<double>& y,
                       std::vector<double> fitted) {
  const size_t n = y.size();
  const size_t p = ls.coefficients.size();
  MSCM_CHECK(fitted.size() == n);
  MSCM_CHECK_MSG(n >= p && p >= 1, "need at least as many rows as columns");

  OlsResult out;
  out.n = n;
  out.p = p;
  out.rank_deficient = ls.rank_deficient;
  out.coefficients = std::move(ls.coefficients);
  out.xtx_inverse = std::move(ls.xtx_inverse);
  out.fitted = std::move(fitted);

  out.residuals.resize(n);
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(n);

  out.sse = 0.0;
  out.sst = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out.residuals[i] = y[i] - out.fitted[i];
    out.sse += out.residuals[i] * out.residuals[i];
    out.sst += (y[i] - mean_y) * (y[i] - mean_y);
  }

  out.r_squared = (out.sst > 1e-300) ? 1.0 - out.sse / out.sst : 1.0;
  // Clamp for numerically-perfect fits.
  if (out.r_squared < 0.0) out.r_squared = 0.0;
  if (out.r_squared > 1.0) out.r_squared = 1.0;

  const double dof_resid = static_cast<double>(n) - static_cast<double>(p);
  if (dof_resid > 0.0) {
    out.standard_error = std::sqrt(out.sse / dof_resid);
    if (p >= 2 && out.sst > 1e-300) {
      out.adjusted_r_squared =
          1.0 - (1.0 - out.r_squared) *
                    (static_cast<double>(n - 1) / dof_resid);
      const double ssr = out.sst - out.sse;
      const double dof_model = static_cast<double>(p - 1);
      const double msr = ssr / dof_model;
      const double mse = out.sse / dof_resid;
      if (mse > 1e-300) {
        out.f_statistic = msr / mse;
        out.f_pvalue = FSurvival(out.f_statistic, dof_model, dof_resid);
      } else {
        out.f_statistic = 1e12;  // perfect fit
        out.f_pvalue = 0.0;
      }
    }
  }

  // Coefficient standard errors and t statistics: se_j = s * sqrt(diag_j).
  out.standard_errors.resize(p, 0.0);
  out.t_statistics.resize(p, 0.0);
  for (size_t j = 0; j < p; ++j) {
    const double diag = ls.xtx_inverse_diagonal[j];
    if (diag > 0.0 && out.standard_error > 0.0) {
      out.standard_errors[j] = out.standard_error * std::sqrt(diag);
      out.t_statistics[j] = out.coefficients[j] / out.standard_errors[j];
    }
  }
  return out;
}

double VarianceInflationFactor(const Matrix& x, size_t col) {
  MSCM_CHECK(col < x.cols());
  MSCM_CHECK_MSG(x.cols() >= 2, "VIF needs at least two design columns");
  const std::vector<double> target = x.Column(col);
  const Matrix rest = x.WithoutColumn(col);
  if (rest.rows() < rest.cols()) return 1e12;
  OlsResult aux = FitOls(rest, target);
  const double r2 = aux.r_squared;
  if (r2 >= 1.0 - 1e-12) return 1e12;
  return 1.0 / (1.0 - r2);
}

}  // namespace mscm::stats
