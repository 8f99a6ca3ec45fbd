// Agglomerative hierarchical clustering with centroid linkage, as used by
// the ICMA contention-state determination algorithm (paper §3.3): each data
// object starts in its own cluster and the two clusters whose centroids are
// closest are merged repeatedly until the desired number of clusters remains.
//
// The data here is one-dimensional (sampled probing-query costs). With
// centroid linkage in 1-D, the closest pair of centroids is always adjacent
// in sorted order, so the implementation keeps clusters sorted and only
// examines adjacent pairs, whose gaps it keeps in a min-heap — O(n log n)
// overall and exactly equivalent to the general algorithm. Equal gaps merge
// the leftmost pair first.

#ifndef MSCM_CLUSTER_HIERARCHICAL_H_
#define MSCM_CLUSTER_HIERARCHICAL_H_

#include <cstddef>
#include <vector>

namespace mscm::cluster {

struct Cluster {
  double centroid = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t count = 0;
  // Indices into the original input vector.
  std::vector<size_t> members;
};

// Clusters `xs` into exactly `k` clusters (or xs.size() clusters when k
// exceeds the input size). Returned clusters are sorted by centroid.
std::vector<Cluster> AgglomerativeCluster1D(const std::vector<double>& xs,
                                            size_t k);

// Runs the agglomeration until the smallest gap between adjacent cluster
// centroids would exceed `max_merge_distance`, i.e. keeps merging while the
// closest pair is within the threshold. Useful for picking a natural number
// of clusters.
std::vector<Cluster> AgglomerativeClusterByDistance(
    const std::vector<double>& xs, double max_merge_distance);

}  // namespace mscm::cluster

#endif  // MSCM_CLUSTER_HIERARCHICAL_H_
