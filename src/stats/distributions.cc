#include "stats/distributions.h"

#include <cmath>

#include "common/check.h"
#include "stats/special_functions.h"

namespace mscm::stats {

double FCdf(double f, double d1, double d2) {
  MSCM_CHECK(d1 > 0.0 && d2 > 0.0);
  if (f <= 0.0) return 0.0;
  const double x = d1 * f / (d1 * f + d2);
  return RegularizedIncompleteBeta(d1 / 2.0, d2 / 2.0, x);
}

double FSurvival(double f, double d1, double d2) {
  if (f <= 0.0) return 1.0;
  const double x = d2 / (d2 + d1 * f);
  return RegularizedIncompleteBeta(d2 / 2.0, d1 / 2.0, x);
}

double StudentTCdf(double t, double df) {
  MSCM_CHECK(df > 0.0);
  const double x = df / (df + t * t);
  const double half_tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - half_tail : half_tail;
}

double StudentTTwoSidedPValue(double t, double df) {
  const double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

double StudentTUpperQuantile(double alpha, double df) {
  MSCM_CHECK(alpha > 0.0 && alpha < 1.0);
  double lo = 0.0;
  double hi = 1.0;
  while (1.0 - StudentTCdf(hi, df) > alpha) {
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    // lo and hi are adjacent doubles (or equal): no later step can move mid.
    if (mid == lo || mid == hi) return mid;
    if (1.0 - StudentTCdf(mid, df) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double FUpperQuantile(double alpha, double d1, double d2) {
  MSCM_CHECK(alpha > 0.0 && alpha < 1.0);
  double lo = 0.0;
  double hi = 1.0;
  // Expand until the survival drops below alpha.
  while (FSurvival(hi, d1, d2) > alpha) {
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) return mid;
    if (FSurvival(mid, d1, d2) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace mscm::stats
