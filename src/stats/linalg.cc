#include "stats/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mscm::stats {
namespace {

// Householder QR in-place on a copy of X augmented with y.
// After factorization, the upper triangle of `a` is R and `rhs` holds Q^T y.
// |R(k,k)| is column k's norm at step k, which the rank check reads.
struct QrState {
  Matrix r;               // upper-triangular factor (cols x cols)
  std::vector<double> qty;  // first cols entries of Q^T y
};

QrState HouseholderQr(const Matrix& x, const std::vector<double>& y) {
  const size_t m = x.rows();
  const size_t n = x.cols();
  MSCM_CHECK(m >= n && n >= 1);
  MSCM_CHECK(y.size() == m);

  // Work on dense copies.
  Matrix a = x;
  std::vector<double> rhs = y;

  for (size_t k = 0; k < n; ++k) {
    // Compute the norm of column k below (and including) row k.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;  // zero column; R(k,k) stays 0 for the rank check

    // Householder vector v = x_k + sign(x_kk) * ||x_k|| e_k.
    const double alpha = (a(k, k) >= 0.0) ? -norm : norm;
    std::vector<double> v(m - k);
    v[0] = a(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) v[i - k] = a(i, k);
    double vnorm2 = 0.0;
    for (double vi : v) vnorm2 += vi * vi;
    a(k, k) = alpha;
    for (size_t i = k + 1; i < m; ++i) a(i, k) = 0.0;
    if (vnorm2 <= 1e-300) continue;

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs.
    for (size_t j = k + 1; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i - k] * a(i, j);
      const double scale = 2.0 * dot / vnorm2;
      for (size_t i = k; i < m; ++i) a(i, j) -= scale * v[i - k];
    }
    double dot = 0.0;
    for (size_t i = k; i < m; ++i) dot += v[i - k] * rhs[i];
    const double scale = 2.0 * dot / vnorm2;
    for (size_t i = k; i < m; ++i) rhs[i] -= scale * v[i - k];
  }

  QrState out;
  out.r = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) out.r(i, j) = a(i, j);
  }
  out.qty.assign(rhs.begin(), rhs.begin() + static_cast<long>(n));
  return out;
}

// Writes a block's coefficients and (X_b^T X_b)^{-1} into the global slots
// its columns name.
void Scatter(const LeastSquaresBlock& block, const std::vector<double>& beta,
             const Matrix& inverse, LeastSquaresResult* out) {
  const std::vector<size_t>& cols = block.columns;
  for (size_t i = 0; i < cols.size(); ++i) {
    out->coefficients[cols[i]] = beta[i];
    for (size_t j = 0; j < cols.size(); ++j) {
      out->xtx_inverse(cols[i], cols[j]) = inverse(i, j);
    }
  }
}

// Ridge-regularized normal equations, so callers always get usable
// coefficients (the paper's procedures screen such models out via VIF and
// merging, but the solver must not crash mid-search). The ridge constant
// comes from the trace of the whole X^T X, summed in global column order.
void SolveRidge(const std::vector<LeastSquaresBlock>& blocks, size_t p,
                LeastSquaresResult* out) {
  std::vector<Matrix> xtx(blocks.size());
  std::vector<std::vector<double>> xty(blocks.size());
  std::vector<double> diagonal(p, 0.0);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const Matrix xt = blocks[b].x.Transpose();
    xtx[b] = xt * blocks[b].x;
    xty[b] = xt * blocks[b].y;
    for (size_t j = 0; j < blocks[b].columns.size(); ++j) {
      diagonal[blocks[b].columns[j]] = xtx[b](j, j);
    }
  }
  double trace = 0.0;
  for (size_t i = 0; i < p; ++i) trace += diagonal[i];
  const double ridge = 1e-8 * std::max(1.0, trace / static_cast<double>(p));
  for (size_t b = 0; b < blocks.size(); ++b) {
    Matrix& a = xtx[b];
    for (size_t j = 0; j < a.rows(); ++j) a(j, j) += ridge;
    auto beta = CholeskySolve(a, xty[b]);
    MSCM_CHECK(beta.has_value());
    auto inv = SpdInverse(a);
    MSCM_CHECK(inv.has_value());
    Scatter(blocks[b], *beta, *inv, out);
  }
}

}  // namespace

std::optional<std::vector<double>> CholeskySolve(const Matrix& a,
                                                 const std::vector<double>& b) {
  const size_t n = a.rows();
  MSCM_CHECK(a.cols() == n && b.size() == n);
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) return std::nullopt;
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward solve L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * z[k];
    z[i] = sum / l(i, i);
  }
  // Back solve L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

std::optional<Matrix> SpdInverse(const Matrix& a) {
  const size_t n = a.rows();
  MSCM_CHECK(a.cols() == n);
  Matrix inv(n, n);
  for (size_t c = 0; c < n; ++c) {
    std::vector<double> e(n, 0.0);
    e[c] = 1.0;
    auto col = CholeskySolve(a, e);
    if (!col.has_value()) return std::nullopt;
    for (size_t r = 0; r < n; ++r) inv(r, c) = (*col)[r];
  }
  return inv;
}

LeastSquaresResult SolveLeastSquares(
    const std::vector<LeastSquaresBlock>& blocks, size_t p) {
  size_t rows = 0;
  size_t covered = 0;
  bool short_block = false;
  std::vector<char> seen(p, 0);
  for (const LeastSquaresBlock& block : blocks) {
    MSCM_CHECK(block.x.cols() == block.columns.size() &&
               block.y.size() == block.x.rows());
    for (size_t c : block.columns) {
      MSCM_CHECK_MSG(c < p && seen[c] == 0,
                     "blocks must partition the design columns");
      seen[c] = 1;
    }
    covered += block.columns.size();
    rows += block.x.rows();
    short_block = short_block || block.x.rows() < block.x.cols();
  }
  MSCM_CHECK_MSG(covered == p, "blocks must partition the design columns");
  MSCM_CHECK_MSG(rows >= p && p >= 1, "need at least as many rows as columns");

  LeastSquaresResult out;
  out.coefficients.assign(p, 0.0);
  out.xtx_inverse = Matrix(p, p);

  // A block with fewer rows than columns has no QR and no unique solution.
  std::vector<QrState> qrs;
  out.rank_deficient = short_block;
  if (!short_block) {
    qrs.reserve(blocks.size());
    double max_diag = 0.0;
    for (const LeastSquaresBlock& block : blocks) {
      qrs.push_back(HouseholderQr(block.x, block.y));
      const Matrix& r = qrs.back().r;
      for (size_t k = 0; k < r.rows(); ++k) {
        max_diag = std::max(max_diag, std::fabs(r(k, k)));
      }
    }
    // Rank check: any diagonal of R tiny relative to the largest column norm.
    for (const QrState& qr : qrs) {
      for (size_t k = 0; k < qr.r.rows(); ++k) {
        if (std::fabs(qr.r(k, k)) < 1e-10 * std::max(1.0, max_diag)) {
          out.rank_deficient = true;
        }
      }
    }
  }

  if (out.rank_deficient) {
    SolveRidge(blocks, p, &out);
  } else {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const QrState& qr = qrs[b];
      const size_t n = qr.r.rows();
      // Back-substitute R beta = Q^T y.
      std::vector<double> beta(n, 0.0);
      for (size_t ii = n; ii-- > 0;) {
        double sum = qr.qty[ii];
        for (size_t k = ii + 1; k < n; ++k) sum -= qr.r(ii, k) * beta[k];
        beta[ii] = sum / qr.r(ii, ii);
      }
      // (X^T X)^{-1} = R^{-1} R^{-T}, with R^{-1} solved column by column
      // (n is small).
      Matrix rinv(n, n);
      for (size_t c = 0; c < n; ++c) {
        std::vector<double> e(n, 0.0);
        e[c] = 1.0;
        std::vector<double> z(n, 0.0);
        for (size_t ii = n; ii-- > 0;) {
          double sum = e[ii];
          for (size_t k = ii + 1; k < n; ++k) sum -= qr.r(ii, k) * z[k];
          z[ii] = sum / qr.r(ii, ii);
        }
        for (size_t r = 0; r < n; ++r) rinv(r, c) = z[r];
      }
      Scatter(blocks[b], beta, rinv * rinv.Transpose(), &out);
    }
  }

  out.xtx_inverse_diagonal.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    out.xtx_inverse_diagonal[i] = out.xtx_inverse(i, i);
  }
  return out;
}

LeastSquaresResult SolveLeastSquares(const Matrix& x,
                                     const std::vector<double>& y) {
  std::vector<LeastSquaresBlock> one(1);
  one[0].x = x;
  one[0].y = y;
  one[0].columns.resize(x.cols());
  std::iota(one[0].columns.begin(), one[0].columns.end(), size_t{0});
  return SolveLeastSquares(one, x.cols());
}

}  // namespace mscm::stats
