// Linear solvers for the regression machinery.
//
// Least squares is solved through a Householder QR factorization with column
// checks for rank deficiency; symmetric positive-definite systems (normal
// equations, VIF computations) can also be solved by Cholesky. QR is the
// default path in OLS because indicator-variable design matrices are often
// poorly conditioned for the normal-equation route.

#ifndef MSCM_STATS_LINALG_H_
#define MSCM_STATS_LINALG_H_

#include <optional>
#include <vector>

#include "stats/matrix.h"

namespace mscm::stats {

// Solves A x = b for symmetric positive definite A via Cholesky.
// Returns nullopt if A is not positive definite (within tolerance).
std::optional<std::vector<double>> CholeskySolve(const Matrix& a,
                                                 const std::vector<double>& b);

// Inverse of a symmetric positive definite matrix, or nullopt.
std::optional<Matrix> SpdInverse(const Matrix& a);

struct LeastSquaresResult {
  std::vector<double> coefficients;
  // (X^T X)^{-1}: coefficient covariance structure — diagonal gives
  // coefficient standard errors, the full matrix gives prediction intervals.
  Matrix xtx_inverse;
  // Diagonal of xtx_inverse (kept for convenience).
  std::vector<double> xtx_inverse_diagonal;
  // True if the design matrix was (numerically) rank deficient. Coefficients
  // are still produced with tiny ridge regularization in that case.
  bool rank_deficient = false;
};

// One diagonal block of a block-diagonal design: rows of X that are zero
// outside the block's columns. `x` holds those rows restricted to the
// block's columns, `y` their responses, and `columns[j]` the global index of
// x's column j. With the rows in their order in the full design and the
// columns in increasing global order, the ridge step below reproduces the
// dense ridge bit for bit: X^T X is block diagonal, so every term the dense
// sums add outside a block is an exact zero.
struct LeastSquaresBlock {
  Matrix x;
  std::vector<double> y;
  std::vector<size_t> columns;
};

// Minimizes ||X beta - y||_2 for the block-diagonal X whose blocks are
// `blocks`; each of the columns 0..p-1 belongs to exactly one block. Each
// block is its own Householder QR, and (X^T X)^{-1} is block diagonal with
// exact zeros off the blocks. If any block is rank deficient (judged against
// the largest R diagonal over all blocks, as one dense QR would) or has
// fewer rows than columns, every block takes the ridge step, with one ridge
// constant from the whole X^T X. Requires p >= 1 and at least p rows in all.
LeastSquaresResult SolveLeastSquares(
    const std::vector<LeastSquaresBlock>& blocks, size_t p);

// The one-block call: X with columns 0..X.cols()-1.
// Requires X.rows() >= X.cols() >= 1 and y.size() == X.rows().
LeastSquaresResult SolveLeastSquares(const Matrix& x,
                                     const std::vector<double>& y);

}  // namespace mscm::stats

#endif  // MSCM_STATS_LINALG_H_
