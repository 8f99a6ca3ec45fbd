#include "runtime/runtime_stats.h"

#include <cmath>

#include "common/str_util.h"

namespace mscm::runtime {

namespace {

// Index of the power-of-two bucket holding `ns`.
int BucketOf(int64_t ns) {
  if (ns <= 1) return 0;
  const int bit = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
  return bit >= LatencyHistogram::kNumBuckets
             ? LatencyHistogram::kNumBuckets - 1
             : bit;
}

double BucketMidSeconds(int bucket) {
  // Geometric midpoint of [2^b, 2^(b+1)) ns.
  return std::ldexp(1.0, bucket) * std::sqrt(2.0) * 1e-9;
}

}  // namespace

LatencyHistogram::~LatencyHistogram() {
  for (auto& slot : stripes_) {
    delete slot.load(std::memory_order_acquire);
  }
}

void LatencyHistogram::Record(std::chrono::nanoseconds latency) {
  RecordN(latency, 1);
}

void LatencyHistogram::RecordN(std::chrono::nanoseconds latency, uint64_t n) {
  if (n == 0) return;
  const int bucket = BucketOf(latency.count());
  const uint64_t dt =
      n * static_cast<uint64_t>(std::max<int64_t>(0, latency.count()));
  const int slot = ThreadRegistry::CurrentSlot();
  if (slot < 0) {
    RmwProbe::Count(2);
    overflow_.buckets[bucket].fetch_add(n, std::memory_order_relaxed);
    overflow_.total_ns.fetch_add(dt, std::memory_order_relaxed);
    return;
  }
  Stripe* stripe = stripes_[slot].load(std::memory_order_acquire);
  if (stripe == nullptr) {
    stripe = new Stripe();
    stripes_[slot].store(stripe, std::memory_order_release);
  }
  StoreAdd(stripe->buckets[bucket], n);
  StoreAdd(stripe->total_ns, dt);
}

uint64_t LatencyHistogram::Aggregate(uint64_t buckets[kNumBuckets],
                                     uint64_t* total_ns) const {
  for (int b = 0; b < kNumBuckets; ++b) buckets[b] = 0;
  uint64_t total = 0;
  auto fold = [&](const Stripe& stripe) {
    for (int b = 0; b < kNumBuckets; ++b) {
      buckets[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
    total += stripe.total_ns.load(std::memory_order_relaxed);
  };
  for (const auto& slot : stripes_) {
    if (const Stripe* stripe = slot.load(std::memory_order_acquire)) {
      fold(*stripe);
    }
  }
  fold(overflow_);
  if (total_ns != nullptr) *total_ns = total;
  uint64_t count = 0;
  for (int b = 0; b < kNumBuckets; ++b) count += buckets[b];
  return count;
}

double LatencyHistogram::RankSeconds(const uint64_t buckets[kNumBuckets],
                                     uint64_t count, double p) {
  if (count == 0) return 0.0;
  int highest = 0;
  for (int b = kNumBuckets - 1; b >= 0; --b) {
    if (buckets[b] > 0) {
      highest = b;
      break;
    }
  }
  // p >= 1.0 means "the largest sample we saw": pin it to the highest
  // non-empty bucket rather than trusting rank arithmetic at the edge.
  if (p >= 1.0) return BucketMidSeconds(highest);
  const double clamped = p < 0.0 ? 0.0 : p;
  // Rank against the count summed from these same buckets, so the walk
  // always terminates inside them (no separately-loaded count to tear).
  const uint64_t rank =
      static_cast<uint64_t>(clamped * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketMidSeconds(b);
  }
  return BucketMidSeconds(highest);
}

double LatencyHistogram::PercentileSeconds(double p) const {
  uint64_t buckets[kNumBuckets];
  const uint64_t count = Aggregate(buckets, nullptr);
  return RankSeconds(buckets, count, p);
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  // One aggregation pass feeds every derived statistic, so count, mean and
  // percentiles in a snapshot are mutually consistent.
  uint64_t buckets[kNumBuckets];
  uint64_t total_ns = 0;
  const uint64_t count = Aggregate(buckets, &total_ns);
  Snapshot snap;
  snap.count = count;
  if (count == 0) return snap;
  snap.mean_seconds =
      1e-9 * static_cast<double>(total_ns) / static_cast<double>(count);
  snap.p50_seconds = RankSeconds(buckets, count, 0.50);
  snap.p90_seconds = RankSeconds(buckets, count, 0.90);
  snap.p99_seconds = RankSeconds(buckets, count, 0.99);
  for (int b = kNumBuckets - 1; b >= 0; --b) {
    if (buckets[b] > 0) {
      snap.max_bucket_seconds = std::ldexp(1.0, b + 1) * 1e-9;
      break;
    }
  }
  return snap;
}

void LatencyHistogram::Reset() {
  auto zero = [](Stripe& stripe) {
    for (auto& b : stripe.buckets) b.store(0, std::memory_order_relaxed);
    stripe.total_ns.store(0, std::memory_order_relaxed);
  };
  for (auto& slot : stripes_) {
    if (Stripe* stripe = slot.load(std::memory_order_acquire)) zero(*stripe);
  }
  zero(overflow_);
}

std::string LatencyHistogram::Snapshot::ToString() const {
  return Format("n=%llu mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus",
                static_cast<unsigned long long>(count), mean_seconds * 1e6,
                p50_seconds * 1e6, p90_seconds * 1e6, p99_seconds * 1e6);
}

void RuntimeStatsSnapshot::AddRows(const RuntimeCounters::Tally& rows) {
  const auto fields = StatsCounterFields();
  for (size_t i = 0; i < fields.size(); ++i) {
    this->*fields[i].field += rows.values[i];
  }
  requests += rows[RuntimeCounter::estimate_cache_hits];
}

std::string RuntimeStatsSnapshot::ToString() const {
  std::string out;
  for (const auto& row : StatsCounterFields()) {
    out += Format("%s=%llu ", row.name,
                  static_cast<unsigned long long>(this->*row.field));
  }
  for (const auto& gauge : StatsGaugeFields()) {
    out += Format("%s=%lld ", gauge.name,
                  static_cast<long long>(this->*gauge.field));
  }
  out.back() = '\n';
  out += "estimate latency: " + estimate_latency.ToString() + "\n";
  out += "probe latency:    " + probe_latency.ToString();
  return out;
}

std::span<const StatsCounterField> StatsCounterFields() {
  using S = RuntimeStatsSnapshot;
  static constexpr StatsCounterField kRows[] = {
      MSCM_RUNTIME_COUNTERS(MSCM_COUNTER_ROW)};
  return kRows;
}

std::span<const StatsGaugeField> StatsGaugeFields() {
  using S = RuntimeStatsSnapshot;
  static constexpr StatsGaugeField kFields[] = {
      {"probe_interval_ns", &S::probe_interval_ns},
  };
  return kFields;
}

std::span<const StatsHistogramField> StatsHistogramFields() {
  using S = RuntimeStatsSnapshot;
  static constexpr StatsHistogramField kFields[] = {
      {"estimate_latency", &S::estimate_latency},
      {"probe_latency", &S::probe_latency},
  };
  return kFields;
}

}  // namespace mscm::runtime
