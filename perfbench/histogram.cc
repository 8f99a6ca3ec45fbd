#include "histogram.h"

#include <bit>

namespace perfbench {

namespace {
constexpr uint64_t kSub = uint64_t{1} << 9;
}  // namespace

Histogram::Histogram()
    : buckets_(kSub + (kMaxExponent - kSubBits + 1) * kSub, 0) {}

size_t Histogram::BucketOf(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  int exponent = std::bit_width(ns) - 1;  // >= kSubBits
  if (exponent > kMaxExponent) {
    exponent = kMaxExponent;
    ns = (uint64_t{2} << kMaxExponent) - 1;
  }
  const int shift = exponent - kSubBits;
  const uint64_t sub = (ns >> shift) - kSub;
  return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub + sub);
}

void Histogram::BucketRange(size_t bucket, double* lo, double* width) {
  if (bucket < kSub) {
    *lo = static_cast<double>(bucket);
    *width = 1.0;
    return;
  }
  const uint64_t shift = (bucket - kSub) / kSub;
  const uint64_t sub = (bucket - kSub) % kSub;
  *lo = static_cast<double>((kSub + sub) << shift);
  *width = static_cast<double>(uint64_t{1} << shift);
}

void Histogram::Record(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
  ++buckets_[BucketOf(v)];
  ++count_;
  sum_ns_ += static_cast<double>(v);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Histogram::mean_ns() const {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
}

double Histogram::PercentileNs(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // 0-based fractional rank, as in linear-interpolated sample quantiles.
  const double rank = p * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const uint64_t n = buckets_[b];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      double lo = 0.0;
      double width = 0.0;
      BucketRange(b, &lo, &width);
      // Spread the bucket's samples evenly across its width.
      const double within = (rank - static_cast<double>(below) + 0.5) /
                            static_cast<double>(n);
      return lo + width * within;
    }
    below += n;
  }
  double lo = 0.0;
  double width = 0.0;
  BucketRange(buckets_.size() - 1, &lo, &width);
  return lo + width;
}

}  // namespace perfbench
