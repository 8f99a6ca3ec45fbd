// Ordinary least squares with the validation statistics the paper relies on:
// coefficient of total determination (R^2), standard error of estimation
// (SEE, paper Eq. 3), the overall F test, per-coefficient t statistics, and
// variance inflation factors for multicollinearity screening (§4.3).

#ifndef MSCM_STATS_OLS_H_
#define MSCM_STATS_OLS_H_

#include <cstddef>
#include <vector>

#include "stats/linalg.h"
#include "stats/matrix.h"

namespace mscm::stats {

struct OlsResult {
  // One coefficient per design-matrix column.
  std::vector<double> coefficients;
  std::vector<double> standard_errors;
  std::vector<double> t_statistics;

  std::vector<double> fitted;
  std::vector<double> residuals;

  size_t n = 0;  // observations
  size_t p = 0;  // design columns (including any intercept-style columns)

  double sse = 0.0;  // residual sum of squares
  double sst = 0.0;  // total sum of squares about the mean of y

  // Coefficient of total determination.
  double r_squared = 0.0;
  double adjusted_r_squared = 0.0;

  // Standard error of estimation: sqrt(SSE / (n - p)). With a single
  // intercept column among the p, this equals the paper's
  // sqrt(SSE / (n - m - 1)) for m explanatory variables.
  double standard_error = 0.0;

  // Overall regression F statistic with (p - 1, n - p) degrees of freedom
  // and its p-value. Zero/one when not computable (p < 2 or n <= p).
  double f_statistic = 0.0;
  double f_pvalue = 1.0;

  bool rank_deficient = false;

  // (X^T X)^{-1} from the fit; empty when the result was reconstructed from
  // a persisted record (intervals are then unavailable).
  Matrix xtx_inverse;

  // Prediction for a new design row (same column layout as the fit).
  double Predict(const std::vector<double>& design_row) const;

  // Standard error of a *new observation's* prediction at this design row:
  // s * sqrt(1 + x' (X'X)^{-1} x). Returns 0 when xtx_inverse is absent.
  double PredictionStandardError(const std::vector<double>& design_row) const;
};

// Fits y ≈ X beta. Requires X.rows() == y.size() and X.rows() >= X.cols().
OlsResult FitOls(const Matrix& x, const std::vector<double>& y);

// The statistics of a solved fit: residuals, SSE, SST, R^2, adjusted R^2,
// SEE, F and its p-value, standard errors and t statistics. `fitted` is
// X beta for `ls`'s coefficients, in the order of `y`. FitOls ends here, and
// so does a fit solved block by block (SolveLeastSquares over blocks).
OlsResult SummarizeFit(LeastSquaresResult ls, const std::vector<double>& y,
                       std::vector<double> fitted);

// Variance inflation factor of design column `col`: 1 / (1 - R_j^2) where
// R_j^2 comes from regressing column j on all the other columns. Returns a
// large sentinel (1e12) when the column is an exact linear combination of
// the others.
double VarianceInflationFactor(const Matrix& x, size_t col);

}  // namespace mscm::stats

#endif  // MSCM_STATS_OLS_H_
