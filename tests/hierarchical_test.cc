#include "cluster/hierarchical.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mscm::cluster {
namespace {

// The quadratic reference: scan every adjacent pair for the smallest gap
// (the leftmost on ties), merge it and erase the right cluster.
std::vector<Cluster> ReferenceSingletons(const std::vector<double>& xs) {
  std::vector<size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<Cluster> clusters;
  for (size_t idx : order) {
    clusters.push_back(Cluster{xs[idx], xs[idx], xs[idx], 1, {idx}});
  }
  return clusters;
}

void ReferenceMerge(std::vector<Cluster>& clusters, size_t i) {
  Cluster& dst = clusters[i];
  const Cluster& src = clusters[i + 1];
  const double total = static_cast<double>(dst.count + src.count);
  dst.centroid = (dst.centroid * static_cast<double>(dst.count) +
                  src.centroid * static_cast<double>(src.count)) /
                 total;
  dst.min = std::min(dst.min, src.min);
  dst.max = std::max(dst.max, src.max);
  dst.count += src.count;
  dst.members.insert(dst.members.end(), src.members.begin(),
                     src.members.end());
  clusters.erase(clusters.begin() + static_cast<long>(i) + 1);
}

size_t ReferenceClosestPair(const std::vector<Cluster>& clusters,
                            double* distance) {
  size_t best = std::numeric_limits<size_t>::max();
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < clusters.size(); ++i) {
    const double d = clusters[i + 1].centroid - clusters[i].centroid;
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  *distance = best_dist;
  return best;
}

std::vector<Cluster> ReferenceCluster1D(const std::vector<double>& xs,
                                        size_t k) {
  std::vector<Cluster> clusters = ReferenceSingletons(xs);
  double dist = 0.0;
  while (clusters.size() > k) {
    ReferenceMerge(clusters, ReferenceClosestPair(clusters, &dist));
  }
  return clusters;
}

std::vector<Cluster> ReferenceByDistance(const std::vector<double>& xs,
                                         double max_merge_distance) {
  std::vector<Cluster> clusters = ReferenceSingletons(xs);
  while (clusters.size() > 1) {
    double dist = 0.0;
    const size_t i = ReferenceClosestPair(clusters, &dist);
    if (dist > max_merge_distance) break;
    ReferenceMerge(clusters, i);
  }
  return clusters;
}

void ExpectBitIdentical(const std::vector<Cluster>& got,
                        const std::vector<Cluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[c].centroid),
              std::bit_cast<uint64_t>(want[c].centroid));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[c].min),
              std::bit_cast<uint64_t>(want[c].min));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[c].max),
              std::bit_cast<uint64_t>(want[c].max));
    EXPECT_EQ(got[c].count, want[c].count);
    EXPECT_EQ(got[c].members, want[c].members);
  }
}

// Random inputs of four shapes: continuous values; a few dyadic values, so
// duplicates and exactly equal gaps abound; an arithmetic progression,
// where every initial gap ties; and a gaussian mixture like the probing
// costs ICMA clusters.
std::vector<double> RandomInput(Rng& rng, int shape, size_t n) {
  std::vector<double> xs(n);
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:
        xs[i] = rng.Uniform(0.0, 100.0);
        break;
      case 1:
        xs[i] = 0.25 * static_cast<double>(rng.UniformInt(0, 12));
        break;
      case 2:
        xs[i] = 0.5 * static_cast<double>(i);
        break;
      default:
        xs[i] = rng.Gaussian(20.0 * static_cast<double>(rng.UniformInt(0, 3)),
                             2.0);
        break;
    }
  }
  if (shape == 2) rng.Shuffle(xs);
  return xs;
}

TEST(HierarchicalTest, HeapMergeMatchesPairScanBitForBit) {
  Rng rng(29);
  for (int trial = 0; trial < 400; ++trial) {
    const int shape = trial % 4;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 120));
    const std::vector<double> xs = RandomInput(rng, shape, n);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " shape " << shape
                                    << " n " << n);
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, n / 2, n,
                     n + 1}) {
      if (k == 0) continue;
      SCOPED_TRACE(testing::Message() << "k " << k);
      ExpectBitIdentical(AgglomerativeCluster1D(xs, k),
                         ReferenceCluster1D(xs, k));
    }
    for (double d : {0.0, 0.25, 0.5, 1.0, 3.0, 1e9}) {
      SCOPED_TRACE(testing::Message() << "distance " << d);
      ExpectBitIdentical(AgglomerativeClusterByDistance(xs, d),
                         ReferenceByDistance(xs, d));
    }
  }
}

TEST(HierarchicalTest, SingletonInput) {
  const auto clusters = AgglomerativeCluster1D({3.5}, 1);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_DOUBLE_EQ(clusters[0].centroid, 3.5);
  EXPECT_EQ(clusters[0].count, 1u);
}

TEST(HierarchicalTest, KLargerThanInputGivesSingletons) {
  const auto clusters = AgglomerativeCluster1D({1.0, 2.0}, 5);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(HierarchicalTest, TwoObviousClusters) {
  const auto clusters =
      AgglomerativeCluster1D({1.0, 1.1, 0.9, 10.0, 10.2, 9.8}, 2);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_NEAR(clusters[0].centroid, 1.0, 0.1);
  EXPECT_NEAR(clusters[1].centroid, 10.0, 0.1);
  EXPECT_EQ(clusters[0].count, 3u);
  EXPECT_EQ(clusters[1].count, 3u);
}

TEST(HierarchicalTest, ClustersSortedByCentroid) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.Uniform(0, 100));
  const auto clusters = AgglomerativeCluster1D(xs, 7);
  for (size_t i = 0; i + 1 < clusters.size(); ++i) {
    EXPECT_LE(clusters[i].centroid, clusters[i + 1].centroid);
    // Ranges must not overlap in 1-D centroid-linkage agglomeration.
    EXPECT_LE(clusters[i].max, clusters[i + 1].min);
  }
}

TEST(HierarchicalTest, MembersPartitionInput) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 57; ++i) xs.push_back(rng.Uniform(0, 10));
  const auto clusters = AgglomerativeCluster1D(xs, 4);
  std::vector<bool> seen(xs.size(), false);
  size_t total = 0;
  for (const auto& c : clusters) {
    total += c.members.size();
    EXPECT_EQ(c.members.size(), c.count);
    for (size_t idx : c.members) {
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
      EXPECT_GE(xs[idx], c.min);
      EXPECT_LE(xs[idx], c.max);
    }
  }
  EXPECT_EQ(total, xs.size());
}

TEST(HierarchicalTest, CentroidIsMemberMean) {
  const std::vector<double> xs = {1, 2, 3, 100, 101};
  const auto clusters = AgglomerativeCluster1D(xs, 2);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_NEAR(clusters[0].centroid, 2.0, 1e-12);
  EXPECT_NEAR(clusters[1].centroid, 100.5, 1e-12);
}

TEST(HierarchicalTest, ThreeGaussianClustersRecovered) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(10, 1));
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(50, 1.5));
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(90, 1));
  const auto clusters = AgglomerativeCluster1D(xs, 3);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_NEAR(clusters[0].centroid, 10, 1.0);
  EXPECT_NEAR(clusters[1].centroid, 50, 1.0);
  EXPECT_NEAR(clusters[2].centroid, 90, 1.0);
}

TEST(HierarchicalTest, ByDistanceStopsAtGap) {
  // Gaps of 1 within groups, gap of 50 between: threshold 5 keeps 2 groups.
  const auto clusters = AgglomerativeClusterByDistance(
      {0, 1, 2, 52, 53, 54}, 5.0);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(HierarchicalTest, ByDistanceZeroThresholdKeepsDistinctValues) {
  const auto clusters = AgglomerativeClusterByDistance({1, 2, 3}, 0.0);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(HierarchicalTest, ByDistanceHugeThresholdMergesAll) {
  const auto clusters = AgglomerativeClusterByDistance({1, 2, 3, 50}, 1e9);
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(HierarchicalTest, DuplicateValues) {
  const auto clusters = AgglomerativeCluster1D({5, 5, 5, 5}, 2);
  // Duplicates merge freely; asking for 2 clusters of identical points still
  // returns 2 clusters with centroid 5.
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_DOUBLE_EQ(clusters[0].centroid, 5.0);
  EXPECT_DOUBLE_EQ(clusters[1].centroid, 5.0);
}

}  // namespace
}  // namespace mscm::cluster
