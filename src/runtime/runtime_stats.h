// Runtime observability for the online estimation service: counter tables
// and latency histograms, both kept on per-thread shards (one per
// ThreadRegistry slot, so a recording thread touches only cache lines it
// owns — zero shared atomic RMWs) and summed lazily at snapshot time. A
// counter table declares each counter once, as one row of its owner's row
// list (MSCM_RUNTIME_COUNTERS below; the server's MSCM_NET_COUNTERS in
// net/server.h). Everything here is safe to update from many threads and to
// snapshot concurrently; snapshots are monotone but not atomic across
// counters.

#ifndef MSCM_RUNTIME_RUNTIME_STATS_H_
#define MSCM_RUNTIME_RUNTIME_STATS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "runtime/rmw_probe.h"
#include "runtime/thread_registry.h"

namespace mscm::runtime {

// Single-writer increment: the owning thread is the only writer, so a plain
// load+store is race-free and costs no atomic RMW instruction; the atomic
// type keeps concurrent aggregator loads well-defined.
inline void StoreAdd(std::atomic<uint64_t>& field, uint64_t n) {
  field.store(field.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

// Histogram over latencies with power-of-two nanosecond buckets: bucket i
// holds samples in [2^i, 2^(i+1)) ns, bucket 0 also absorbs sub-ns samples.
// 40 buckets cover up to ~18 minutes.
//
// Recording writes the calling thread's own lazily-allocated stripe with
// plain load+store increments (single-writer per slot; a thread that
// outlives its slot hands the cumulative stripe to the slot's next owner,
// so totals are conserved across thread churn). Snapshots sum the stripes;
// the sample count is derived from the summed buckets in the same pass, so
// a reader can never observe sum(buckets) != count — the torn-read skew the
// old separately-loaded count_ allowed.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 40;

  struct Snapshot {
    uint64_t count = 0;
    double mean_seconds = 0.0;
    double p50_seconds = 0.0;
    double p90_seconds = 0.0;
    double p99_seconds = 0.0;
    double max_bucket_seconds = 0.0;  // upper edge of highest non-empty bucket

    std::string ToString() const;
  };

  LatencyHistogram() = default;
  ~LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(std::chrono::nanoseconds latency);

  // Records `n` samples of the same latency with one pass over the buckets
  // (batch paths record the amortized per-item latency this way).
  void RecordN(std::chrono::nanoseconds latency, uint64_t n);

  // Percentile via cumulative bucket counts; returns the geometric midpoint
  // of the bucket containing the requested rank (0 when empty). p >= 1.0 is
  // pinned to the highest non-empty bucket.
  double PercentileSeconds(double p) const;

  Snapshot Snap() const;

  // Zeroes every stripe. Not linearizable against concurrent recorders;
  // call only while recording is quiescent (tests, bench warmup).
  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> total_ns{0};
  };

  // Sums every stripe into `buckets` / `total_ns`, returns the sample count
  // (= sum of buckets, by construction).
  uint64_t Aggregate(uint64_t buckets[kNumBuckets], uint64_t* total_ns) const;

  static double RankSeconds(const uint64_t buckets[kNumBuckets],
                            uint64_t count, double p);

  // Owner-created (release store), readers acquire; never freed before the
  // histogram itself.
  std::atomic<Stripe*> stripes_[ThreadRegistry::kMaxSlots] = {};
  // Shared fallback for threads beyond kMaxSlots (real RMWs, RmwProbe-counted).
  Stripe overflow_;
};

// ---- Counter tables ---------------------------------------------------------
//
// Each owner declares its counters once, as rows of an X-macro:
// ROW(name, kind). `name` is at once the snapshot field, the wire key and
// the printed name; `kind` says whether the row only ever grows (kCounter)
// or reads a level that may fall (kGauge). The row list is expanded into
// the snapshot's fields, the row enum that indexes per-thread shards, and
// the table serializers and printers loop over. Adding a counter is one row
// plus its increment.

enum class StatKind : uint8_t { kCounter, kGauge };

template <typename Snapshot>
struct CounterRow {
  const char* name;
  StatKind kind;
  uint64_t Snapshot::*field;
};

// Row-list expanders. MSCM_COUNTER_ROW must be expanded where `S` names the
// owner's snapshot type.
#define MSCM_COUNTER_FIELD(name, kind) uint64_t name = 0;
#define MSCM_COUNTER_ENUM(name, kind) name,
#define MSCM_COUNTER_ONE(name, kind) +1
#define MSCM_COUNTER_ROW(name, kind) \
  {#name, ::mscm::runtime::StatKind::kind, &S::name},

// One owner's counter rows, one shard per live thread (ThreadRegistry
// slot), so a counting thread only ever writes cache lines it owns. Shard
// values are std::atomic so Sum() may load them concurrently, but the owning
// thread bumps them with a plain load+store, not an atomic RMW (single
// writer). Threads beyond the registry capacity share one overflow shard
// whose Add() degrades to fetch_add (counted by RmwProbe).
//
// Shards are cumulative and survive their owner: a thread that exits leaves
// its totals in place for the slot's next owner to keep extending, so Sum()
// conserves every increment across thread churn.
template <typename Row, size_t N>
class ShardedCounters {
 public:
  // Row values off the shards: a Sum() of every shard, or rows an owner
  // keeps by hand (a site tracker's rows, the totals of retired trackers).
  struct Tally {
    uint64_t& operator[](Row row) { return values[static_cast<size_t>(row)]; }
    uint64_t operator[](Row row) const {
      return values[static_cast<size_t>(row)];
    }
    Tally& operator+=(const Tally& other) {
      for (size_t i = 0; i < N; ++i) values[i] += other.values[i];
      return *this;
    }

    uint64_t values[N] = {};
  };

  struct alignas(64) Shard {
    // Increment for the shard's owner: plain load+store on a per-thread
    // shard, fetch_add on the shared overflow shard.
    void Add(Row row, uint64_t n = 1) {
      std::atomic<uint64_t>& value = values[static_cast<size_t>(row)];
      if (shared_writers) {
        RmwProbe::Count();
        value.fetch_add(n, std::memory_order_relaxed);
      } else {
        StoreAdd(value, n);
      }
    }

    std::atomic<uint64_t> values[N] = {};
    bool shared_writers = false;  // true only for the overflow shard
  };

  ShardedCounters() { overflow_.shared_writers = true; }
  ~ShardedCounters() {
    for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
  }

  ShardedCounters(const ShardedCounters&) = delete;
  ShardedCounters& operator=(const ShardedCounters&) = delete;

  // The calling thread's shard: its registry slot's shard (single writer),
  // or the shared overflow shard when the registry is exhausted.
  Shard& Local() {
    const int slot = ThreadRegistry::CurrentSlot();
    if (slot < 0) return overflow_;
    Shard* shard = slots_[slot].load(std::memory_order_acquire);
    if (shard == nullptr) {
      shard = new Shard();
      slots_[slot].store(shard, std::memory_order_release);
    }
    return *shard;
  }

  // Every row summed over all shards: monotone, not atomic across rows.
  Tally Sum() const {
    Tally sum;
    auto fold = [&sum](const Shard& shard) {
      for (size_t i = 0; i < N; ++i) {
        sum.values[i] += shard.values[i].load(std::memory_order_relaxed);
      }
    };
    for (const auto& slot : slots_) {
      if (const Shard* shard = slot.load(std::memory_order_acquire)) {
        fold(*shard);
      }
    }
    fold(overflow_);
    return sum;
  }

 private:
  std::atomic<Shard*> slots_[ThreadRegistry::kMaxSlots] = {};
  Shard overflow_;
};

// The runtime's counter rows, in wire order (net/stats_codec). The names
// are a wire contract: append-only, never rename, reorder or repurpose one
// (see DESIGN.md §8). Probe and breaker rows are counted by the site
// trackers and read at snapshot time; a retired (or replaced) tracker's
// rows are folded into the service totals, so they stay monotone across
// site churn.
#define MSCM_RUNTIME_COUNTERS(ROW)                                            \
  ROW(requests, kCounter)            /* estimates served, single + batch */   \
  ROW(batches, kCounter)             /* EstimateBatch calls */                \
  ROW(probe_cache_hits, kCounter)    /* priced from a fresh site probe */     \
  ROW(probe_cache_stale, kCounter)   /* ... from a probe past its TTL */      \
  ROW(probe_cache_misses, kCounter)  /* no site probe available at all */     \
  ROW(no_model, kCounter)            /* (site, class) had no model */         \
  ROW(probes, kCounter)              /* probe attempts, failures included */  \
  ROW(probe_failures, kCounter)      /* errored probes (kept last state) */   \
  ROW(probe_discards, kCounter)      /* outrun by a newer probe */            \
  ROW(probe_timeouts, kCounter)      /* abandoned past their deadline */      \
  ROW(probes_suppressed, kCounter)   /* rejected by an open breaker */        \
  ROW(breaker_opens, kCounter)       /* breaker transitions into open */      \
  ROW(degraded_sites, kGauge)        /* sites whose breaker is not closed */  \
  ROW(degraded_served, kCounter)     /* priced from a degraded site */        \
  ROW(invalid_requests, kCounter)    /* unpriceable: non-finite, too short */ \
  ROW(catalog_swaps, kCounter)       /* snapshot publications */              \
  ROW(stale_model_served, kCounter)  /* priced from a drift-flagged model */  \
  ROW(stale_models, kGauge)          /* (site, class) keys flagged stale */   \
  /* The three estimate_cache rows are retired; always 0; the key is a */     \
  /* wire contract. */                                                        \
  ROW(estimate_cache_hits, kCounter)                                          \
  ROW(estimate_cache_misses, kCounter)                                        \
  ROW(estimate_cache_invalidations, kCounter)                                 \
  ROW(placements, kCounter)          /* ChoosePlacement decisions */          \
  /* A distribution-aware policy picked another site than the point */        \
  /* argmin would have: the visible payoff of serving distributions. */       \
  ROW(placement_expected_cost_wins, kCounter)                                 \
  ROW(near_boundary_sites, kGauge)   /* probes inside a boundary band */      \
  /* Streaming-RLS row swaps published (full re-derivations count */          \
  /* under catalog_swaps). */                                                 \
  ROW(adaptations_applied, kCounter)                                          \
  ROW(sites_retired, kCounter)       /* sites retired via UnregisterSite */

enum class RuntimeCounter : uint8_t {
  MSCM_RUNTIME_COUNTERS(MSCM_COUNTER_ENUM)
};
inline constexpr size_t kNumRuntimeCounters =
    0 MSCM_RUNTIME_COUNTERS(MSCM_COUNTER_ONE);
using RuntimeCounters = ShardedCounters<RuntimeCounter, kNumRuntimeCounters>;

// One snapshot of every service counter, plus the latency histograms.
struct RuntimeStatsSnapshot {
  MSCM_RUNTIME_COUNTERS(MSCM_COUNTER_FIELD)
  int64_t probe_interval_ns = 0;  // gauge: slowest current per-site cadence

  LatencyHistogram::Snapshot estimate_latency;
  LatencyHistogram::Snapshot probe_latency;

  // Adds each row of `rows` into its field.
  void AddRows(const RuntimeCounters::Tally& rows);

  std::string ToString() const;
};

// The snapshot's scalar fields by wire name, so serializers (net/
// stats_codec), printers and dashboards address every value without
// falling out of sync with the struct. StatsCounterFields() is the
// MSCM_RUNTIME_COUNTERS table, indexed like RuntimeCounter.
using StatsCounterField = CounterRow<RuntimeStatsSnapshot>;
struct StatsGaugeField {
  const char* name;
  int64_t RuntimeStatsSnapshot::*field;
};
struct StatsHistogramField {
  const char* name;  // key prefix ("estimate_latency", ...)
  LatencyHistogram::Snapshot RuntimeStatsSnapshot::*field;
};

std::span<const StatsCounterField> StatsCounterFields();
std::span<const StatsGaugeField> StatsGaugeFields();
std::span<const StatsHistogramField> StatsHistogramFields();

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_RUNTIME_STATS_H_
