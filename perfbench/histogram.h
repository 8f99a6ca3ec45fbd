// Fixed-size latency histogram for the load generator: log-linear buckets
// (512 per power of two, so a bucket is at most 0.2% wide) over 1 ns to
// ~18 minutes. Memory does not grow with the number of samples, so the
// benchmark's own footprint stays flat however fast the system answers.
// (runtime::LatencyHistogram's power-of-two buckets are too coarse to
// compare runs: its percentiles move in steps of 1.4x.)

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  Histogram();

  void Record(int64_t ns);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double mean_ns() const;
  // Percentile p in [0, 1], interpolated by rank inside its bucket; 0 when
  // empty.
  double PercentileNs(double p) const;

 private:
  static constexpr int kSubBits = 9;  // 512 sub-buckets per octave
  static constexpr int kMaxExponent = 40;

  static size_t BucketOf(uint64_t ns);
  static void BucketRange(size_t bucket, double* lo, double* width);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
