#include "runtime/runtime_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "runtime/thread_registry.h"

namespace mscm::runtime {
namespace {

using std::chrono::microseconds;
using std::chrono::nanoseconds;

TEST(LatencyHistogramTest, EmptyHistogramReportsZeroes) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.5), 0.0);
  const LatencyHistogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99_seconds, 0.0);
}

TEST(LatencyHistogramTest, FullMassInOneBucketPinsEveryPercentile) {
  LatencyHistogram h;
  // All samples land in the [1024, 2048) ns bucket.
  for (int i = 0; i < 100; ++i) h.Record(nanoseconds(1500));
  const double p50 = h.PercentileSeconds(0.5);
  const double p100 = h.PercentileSeconds(1.0);
  EXPECT_GT(p50, 0.0);
  // p=1.0 must resolve to the same (only) occupied bucket, not run off the
  // end of the cumulative scan.
  EXPECT_DOUBLE_EQ(p100, p50);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(0.0), p50);
  // The bucket midpoint lies inside the bucket's range.
  EXPECT_GE(p50, 1024e-9);
  EXPECT_LT(p50, 2048e-9);
}

TEST(LatencyHistogramTest, RecordNWithHugeCountStaysConsistent) {
  LatencyHistogram h;
  const uint64_t n = 1000000000ull;  // 1e9 samples in one call
  h.RecordN(microseconds(2), n);
  const LatencyHistogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, n);
  EXPECT_NEAR(snap.mean_seconds, 2e-6, 1e-12);
  // Every percentile sits in the single occupied bucket.
  EXPECT_GE(snap.p50_seconds, 1024e-9);
  EXPECT_LT(snap.p50_seconds, 4096e-9);
  EXPECT_DOUBLE_EQ(snap.p99_seconds, snap.p50_seconds);
}

TEST(LatencyHistogramTest, MajorityMassDrivesTheMedian) {
  // Weighted samples carry their full mass into the quantiles: a batch pass
  // records its amortized per-item latency with RecordN(latency, items), so
  // 99% fast mass + 1% slow mass must put p50 in the fast bucket and p99 at
  // the fast/slow boundary, never the reverse.
  LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.RecordN(nanoseconds(100), 64);
  h.RecordN(microseconds(10), 64);
  h.RecordN(microseconds(10), 64);
  const LatencyHistogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 100u * 64u);
  EXPECT_LT(snap.p50_seconds, 256e-9);   // fast bucket
  EXPECT_LT(snap.p90_seconds, 256e-9);   // still fast at p90
  EXPECT_GE(snap.p99_seconds, 1e-6);     // the slow 2% surfaces only at p99
  EXPECT_LT(snap.mean_seconds, 400e-9);  // mean ~ 298ns: hit mass dominates
}

TEST(LatencyHistogramTest, RecordNZeroIsANoOp) {
  LatencyHistogram h;
  h.RecordN(microseconds(5), 0);
  EXPECT_EQ(h.Snap().count, 0u);
}

TEST(LatencyHistogramTest, SnapAfterResetIsEmpty) {
  LatencyHistogram h;
  h.Record(microseconds(10));
  h.RecordN(microseconds(3), 42);
  ASSERT_EQ(h.Snap().count, 43u);
  h.Reset();
  const LatencyHistogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.p50_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_bucket_seconds, 0.0);
  // The histogram remains usable after a reset.
  h.Record(microseconds(10));
  EXPECT_EQ(h.Snap().count, 1u);
}

TEST(RuntimeCountersTest, AddRowsKeepsEachRowInItsOwnField) {
  RuntimeCounters counters;
  RuntimeCounters::Shard& shard = counters.Local();
  for (size_t i = 0; i < kNumRuntimeCounters; ++i) {
    shard.Add(static_cast<RuntimeCounter>(i), i + 1);
  }

  RuntimeStatsSnapshot out;
  out.AddRows(counters.Sum());
  // Every request is counted once, under `requests`: no row folds into
  // another.
  const auto fields = StatsCounterFields();
  ASSERT_EQ(fields.size(), kNumRuntimeCounters);
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(out.*fields[i].field, i + 1) << fields[i].name;
  }
}

TEST(LatencyHistogramTest, PercentileOnePinsToHighestOccupiedBucket) {
  LatencyHistogram h;
  // Two occupied buckets far apart: 99 fast samples, 1 slow one.
  h.RecordN(nanoseconds(1500), 99);
  h.Record(microseconds(900));
  const double p50 = h.PercentileSeconds(0.5);
  const double p100 = h.PercentileSeconds(1.0);
  EXPECT_GE(p50, 1024e-9);
  EXPECT_LT(p50, 2048e-9);
  // p = 1.0 must land in the slow sample's bucket — never past the end of
  // the cumulative scan, never the fast bucket.
  EXPECT_GE(p100, 524288e-9);
  const LatencyHistogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_LE(p100, snap.max_bucket_seconds);
}

// Concurrent recorders against a concurrent snapshotter: every intermediate
// snapshot must be internally consistent (the count is derived from the
// same summed bucket pass that ranks percentiles, so percentiles can never
// run off the end), and the final count must conserve every sample across
// recorder-thread churn.
TEST(LatencyHistogramTest, ConcurrentRecordersSnapshotConsistently) {
  LatencyHistogram h;
  constexpr int kWaves = 4;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread snapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const LatencyHistogram::Snapshot snap = h.Snap();
      if (snap.count > 0) {
        EXPECT_GT(snap.p50_seconds, 0.0);
        EXPECT_LE(snap.p50_seconds, snap.max_bucket_seconds);
        EXPECT_LE(snap.p99_seconds, snap.max_bucket_seconds);
      }
      std::this_thread::yield();
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> recorders;
    for (int t = 0; t < kThreads; ++t) {
      recorders.emplace_back([&h, t] {
        for (int i = 0; i < kPerThread; ++i) {
          h.Record(nanoseconds(500 + 997 * ((i + t) % 64)));
        }
      });
    }
    for (auto& r : recorders) r.join();
  }
  stop.store(true);
  snapper.join();
  // Thread churn (kWaves generations of recorders) loses nothing: exited
  // threads' stripes stay behind for the slots' next owners.
  EXPECT_EQ(h.Snap().count,
            static_cast<uint64_t>(kWaves) * kThreads * kPerThread);
}

TEST(RuntimeCountersTest, AggregationConservesAcrossThreadChurn) {
  RuntimeCounters counters;
  constexpr int kWaves = 5;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 4000;
  std::atomic<bool> stop{false};
  // Aggregate concurrently with the churn: intermediate sums are monotone
  // garbage-free reads, never a crash or a torn shard.
  std::thread aggregator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      RuntimeStatsSnapshot snap;
      snap.AddRows(counters.Sum());
      std::this_thread::yield();
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> bumpers;
    for (int t = 0; t < kThreads; ++t) {
      bumpers.emplace_back([&counters] {
        RuntimeCounters::Shard& shard = counters.Local();
        for (uint64_t i = 0; i < kPerThread; ++i) {
          shard.Add(RuntimeCounter::requests);
          if (i % 2 == 0) shard.Add(RuntimeCounter::probe_cache_hits);
        }
      });
    }
    for (auto& b : bumpers) b.join();
  }
  stop.store(true);
  aggregator.join();
  RuntimeStatsSnapshot out;
  out.AddRows(counters.Sum());
  // Five generations of threads reused the same registry slots; cumulative
  // shards must conserve every increment.
  EXPECT_EQ(out.requests, kWaves * kThreads * kPerThread);
  EXPECT_EQ(out.probe_cache_hits, kWaves * kThreads * kPerThread / 2);
}

TEST(ThreadRegistryTest, LiveThreadsHoldDistinctSlots) {
  constexpr int kThreads = 24;
  std::vector<int> slots(kThreads, -2);
  std::atomic<int> arrived{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      slots[static_cast<size_t>(t)] = ThreadRegistry::CurrentSlot();
      arrived.fetch_add(1);
      // Stay alive until everyone has a slot: uniqueness is only promised
      // among concurrently live threads.
      while (!release.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    });
  }
  while (arrived.load() < kThreads) std::this_thread::yield();
  std::set<int> distinct(slots.begin(), slots.end());
  release.store(true);
  for (auto& t : threads) t.join();
  // Far below kMaxSlots, so every thread got a real slot, and no two live
  // threads shared one.
  for (int slot : slots) EXPECT_GE(slot, 0);
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(distinct.count(ThreadRegistry::CurrentSlot()), 0u);
}

TEST(RuntimeStatsSnapshotTest, ToStringMentionsCacheAndCadence) {
  RuntimeStatsSnapshot snap;
  snap.estimate_cache_hits = 7;
  snap.estimate_cache_misses = 2;
  snap.estimate_cache_invalidations = 1;
  snap.probe_interval_ns = 2000000;
  const std::string s = snap.ToString();
  EXPECT_NE(s.find("estimate_cache"), std::string::npos);
  EXPECT_NE(s.find("estimate_cache_hits=7"), std::string::npos);
  EXPECT_NE(s.find("probe_interval"), std::string::npos);
}

}  // namespace
}  // namespace mscm::runtime
