#include "cluster/hierarchical.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

#include "common/check.h"

namespace mscm::cluster {
namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

void MergeInto(Cluster& dst, const Cluster& src) {
  const double total = static_cast<double>(dst.count + src.count);
  dst.centroid = (dst.centroid * static_cast<double>(dst.count) +
                  src.centroid * static_cast<double>(src.count)) /
                 total;
  dst.min = std::min(dst.min, src.min);
  dst.max = std::max(dst.max, src.max);
  dst.count += src.count;
}

// The centroid gap of the adjacent pair headed by slot `left`, as it was
// when stamp[left] read `stamp`.
struct Gap {
  double gap;
  size_t left;
  uint64_t stamp;

  // Heap order: the smallest gap first, the leftmost pair among equal gaps.
  bool operator>(const Gap& o) const {
    return gap != o.gap ? gap > o.gap : left > o.left;
  }
};

// Merges the closest adjacent pair of clusters while more than `k` remain
// and its centroid gap is at most `max_gap`. Slot i, a position in sorted
// order, heads the live cluster covering positions [i, next[i]); a merge
// folds the right cluster into the left one, so each cluster's members are
// its positions' input indices in sorted order. A min-heap holds one entry
// per adjacent pair, keyed (gap, left slot), so equal gaps merge leftmost
// first, as a scan of every pair would. A merge bumps the stamp of the slot
// it absorbs and of the two slots whose right gap it changes; popped entries
// with an older stamp are skipped. O(n log n) for n points.
std::vector<Cluster> Agglomerate(const std::vector<double>& xs, size_t k,
                                 double max_gap) {
  const size_t n = xs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<Cluster> slots(n);
  std::vector<size_t> next(n);
  std::vector<size_t> prev(n);
  std::vector<uint64_t> stamp(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[order[i]];
    slots[i].centroid = x;
    slots[i].min = x;
    slots[i].max = x;
    slots[i].count = 1;
    next[i] = i + 1 < n ? i + 1 : kNone;
    prev[i] = i > 0 ? i - 1 : kNone;
  }
  const auto gap_after = [&](size_t left) {
    return Gap{slots[next[left]].centroid - slots[left].centroid, left,
               stamp[left]};
  };
  std::vector<Gap> gaps;
  gaps.reserve(n);
  for (size_t i = 0; i + 1 < n; ++i) gaps.push_back(gap_after(i));
  std::priority_queue<Gap, std::vector<Gap>, std::greater<>> heap(
      std::greater<>{}, std::move(gaps));

  for (size_t live = n; live > k; --live) {
    while (heap.top().stamp != stamp[heap.top().left]) heap.pop();
    if (heap.top().gap > max_gap) break;
    const size_t a = heap.top().left;
    heap.pop();
    const size_t b = next[a];
    MergeInto(slots[a], slots[b]);
    ++stamp[b];
    next[a] = next[b];
    ++stamp[a];
    if (next[a] != kNone) {
      prev[next[a]] = a;
      heap.push(gap_after(a));
    }
    if (prev[a] != kNone) {
      ++stamp[prev[a]];
      heap.push(gap_after(prev[a]));
    }
  }

  std::vector<Cluster> clusters;
  for (size_t i = n == 0 ? kNone : 0; i != kNone; i = next[i]) {
    const size_t end = next[i] == kNone ? n : next[i];
    slots[i].members.assign(order.begin() + static_cast<long>(i),
                            order.begin() + static_cast<long>(end));
    clusters.push_back(std::move(slots[i]));
  }
  return clusters;
}

}  // namespace

std::vector<Cluster> AgglomerativeCluster1D(const std::vector<double>& xs,
                                            size_t k) {
  MSCM_CHECK(k >= 1);
  return Agglomerate(xs, k, std::numeric_limits<double>::infinity());
}

std::vector<Cluster> AgglomerativeClusterByDistance(
    const std::vector<double>& xs, double max_merge_distance) {
  MSCM_CHECK(max_merge_distance >= 0.0);
  return Agglomerate(xs, 1, max_merge_distance);
}

}  // namespace mscm::cluster
