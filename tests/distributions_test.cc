#include "stats/distributions.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace mscm::stats {
namespace {

// The quantiles' bisection as a fixed 200 steps, the reference the
// converged early exit must reproduce bit for bit.
double ReferenceTUpperQuantile(double alpha, double df) {
  double lo = 0.0;
  double hi = 1.0;
  while (1.0 - StudentTCdf(hi, df) > alpha) {
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (1.0 - StudentTCdf(mid, df) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double ReferenceFUpperQuantile(double alpha, double d1, double d2) {
  double lo = 0.0;
  double hi = 1.0;
  while (FSurvival(hi, d1, d2) > alpha) {
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (FSurvival(mid, d1, d2) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(FDistributionTest, CdfAtZeroIsZero) {
  EXPECT_DOUBLE_EQ(FCdf(0.0, 3, 10), 0.0);
  EXPECT_DOUBLE_EQ(FSurvival(0.0, 3, 10), 1.0);
}

TEST(FDistributionTest, CdfPlusSurvivalIsOne) {
  for (double f : {0.5, 1.0, 2.5, 10.0}) {
    EXPECT_NEAR(FCdf(f, 4, 20) + FSurvival(f, 4, 20), 1.0, 1e-12);
  }
}

TEST(FDistributionTest, KnownCriticalValues) {
  // F(0.95; 1, 10) critical value is 4.9646 (standard tables).
  EXPECT_NEAR(FSurvival(4.9646, 1, 10), 0.05, 2e-4);
  // F(0.95; 5, 20) critical value is 2.7109.
  EXPECT_NEAR(FSurvival(2.7109, 5, 20), 0.05, 2e-4);
  // F(0.99; 3, 30) critical value is 4.5097.
  EXPECT_NEAR(FSurvival(4.5097, 3, 30), 0.01, 2e-4);
}

TEST(FDistributionTest, MedianOfF11) {
  // For d1 = d2, the F distribution has median 1.
  EXPECT_NEAR(FCdf(1.0, 7, 7), 0.5, 1e-10);
}

TEST(FDistributionTest, CdfMonotone) {
  double prev = 0.0;
  for (double f = 0.1; f < 20.0; f *= 1.7) {
    const double v = FCdf(f, 3, 15);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StudentTTest, SymmetryAndCenter) {
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  EXPECT_NEAR(StudentTCdf(1.3, 8) + StudentTCdf(-1.3, 8), 1.0, 1e-12);
}

TEST(StudentTTest, KnownCriticalValues) {
  // t(0.975; 10) = 2.2281.
  EXPECT_NEAR(StudentTCdf(2.2281, 10), 0.975, 2e-4);
  // t(0.95; 30) = 1.6973.
  EXPECT_NEAR(StudentTCdf(1.6973, 30), 0.95, 2e-4);
}

TEST(StudentTTest, TwoSidedPValue) {
  EXPECT_NEAR(StudentTTwoSidedPValue(2.2281, 10), 0.05, 4e-4);
  EXPECT_NEAR(StudentTTwoSidedPValue(0.0, 10), 1.0, 1e-12);
  // Sign does not matter.
  EXPECT_NEAR(StudentTTwoSidedPValue(-2.2281, 10),
              StudentTTwoSidedPValue(2.2281, 10), 1e-12);
}

TEST(StudentTTest, SquaredTIsF) {
  // If T ~ t(df), then T^2 ~ F(1, df): two-sided t p-value equals the F
  // survival of t^2.
  const double t = 1.8;
  const double df = 12;
  EXPECT_NEAR(StudentTTwoSidedPValue(t, df), FSurvival(t * t, 1, df), 1e-10);
}

TEST(FUpperQuantileTest, InvertsSurvival) {
  for (double alpha : {0.1, 0.05, 0.01}) {
    const double q = FUpperQuantile(alpha, 4, 18);
    EXPECT_NEAR(FSurvival(q, 4, 18), alpha, 1e-6);
  }
}

TEST(FUpperQuantileTest, MatchesTable) {
  EXPECT_NEAR(FUpperQuantile(0.05, 1, 10), 4.9646, 1e-3);
}

TEST(StudentTTest, UpperQuantileMatchesFullBisectionBitForBit) {
  // Every dof 1-60, then a geometric sweep (fractional dofs included) to
  // 2000, across the alphas intervals and tests use.
  std::vector<double> dofs;
  for (int d = 1; d <= 60; ++d) dofs.push_back(d);
  for (double d = 64.0; d < 2000.0; d *= 1.1) dofs.push_back(d);
  dofs.push_back(2000.0);
  for (double df : dofs) {
    for (double alpha : {0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.4}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(StudentTUpperQuantile(alpha, df)),
                std::bit_cast<uint64_t>(ReferenceTUpperQuantile(alpha, df)))
          << "alpha " << alpha << " dof " << df;
    }
  }
}

TEST(FUpperQuantileTest, MatchesFullBisectionBitForBit) {
  const double pairs[][2] = {{1, 10}, {3, 30}, {4, 18}, {5, 20}, {12, 340},
                             {40, 400}, {2, 2000}};
  for (const auto& d : pairs) {
    for (double alpha : {0.005, 0.01, 0.05, 0.1, 0.25}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(FUpperQuantile(alpha, d[0], d[1])),
                std::bit_cast<uint64_t>(
                    ReferenceFUpperQuantile(alpha, d[0], d[1])))
          << "alpha " << alpha << " d1 " << d[0] << " d2 " << d[1];
    }
  }
}

}  // namespace
}  // namespace mscm::stats
