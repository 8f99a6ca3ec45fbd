// Background contention tracking for one local site (paper §3.1/§3.3 made
// continuous): a prober periodically runs the site's probing query — or an
// Eq. 2 monitor-statistics estimate of it — maps the observed cost to a
// contention state through a model's state partition, and publishes the
// reading (probing_cost, state, sequence, time taken). Estimation requests
// read the published reading instead of paying a probing query per
// estimate, and the read is lock-free: the reading is published through
// EpochPublished (runtime/epoch.h), so Current() is an epoch pin, a pointer
// load and a clock read — zero shared atomic RMWs.
//
// Freshness contract: a reading older than the TTL is still served (last
// known state beats no state — the environment usually drifts, it does not
// teleport) but is flagged `stale` so the caller can widen its error bars or
// trigger a synchronous probe. Staleness is computed at read time from the
// injected clock. Probe failures — a non-finite or negative
// cost, a thrown exception, or a probe abandoned past its deadline — keep
// the previous reading and bump a failure counter; with a retry backoff
// configured, the background loop retries failed probes well before the
// reading crosses its TTL. A per-site circuit breaker (optional) suppresses
// probing entirely after a run of consecutive failures and re-admits a trial
// probe after a cooling-off period; while it is not closed the tracker's
// readings are flagged `degraded`.

#ifndef MSCM_RUNTIME_CONTENTION_TRACKER_H_
#define MSCM_RUNTIME_CONTENTION_TRACKER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/circuit_breaker.h"
#include "runtime/clock.h"
#include "runtime/epoch.h"
#include "runtime/runtime_stats.h"

namespace mscm::runtime {

struct ContentionTrackerConfig {
  std::string site = "site";
  // Readings older than this are served with stale=true.
  std::chrono::nanoseconds ttl = std::chrono::seconds(5);
  // Background probe period; zero disables the thread (manual ProbeOnce()).
  // With adaptive cadence enabled this is the *starting* period.
  std::chrono::nanoseconds probe_interval{0};
  // Adaptive cadence (enabled when both bounds are positive): after each
  // background probe the interval halves toward min_probe_interval if the
  // (state, stale, degraded) reading differs from the one before the probe
  // and grows by a quarter toward max_probe_interval if it does not — fast
  // detection when the environment is flapping, few wasted probes when it is
  // quiet (the paper's dynamic-environment premise, §3.1). When disabled
  // (either bound zero) the cadence is the fixed probe_interval.
  std::chrono::nanoseconds min_probe_interval{0};
  std::chrono::nanoseconds max_probe_interval{0};
  // Probe deadline: a probe still running after this long is abandoned — the
  // prober stops waiting, counts a failure (and a timeout), and moves on; the
  // abandoned probe's sequence ticket is burned, so its eventual result can
  // never publish over a newer reading. Zero disables the deadline (probes
  // run inline on the prober thread and a hang blocks it). The wait is a real
  // condition-variable wait, so the deadline is measured in wall time, not on
  // the injected clock.
  std::chrono::nanoseconds probe_timeout{0};
  // After a failed probe the background loop retries after
  // `failure_retry * 2^(consecutive_failures - 1)` (capped at the current
  // probe interval) instead of sleeping the whole interval — a transiently
  // failing site usually gets several retries before the published reading
  // crosses its TTL and the stale flag flips. Zero disables (failures wait
  // the full interval).
  std::chrono::nanoseconds failure_retry{0};
  // Circuit breaker over consecutive probe failures (failure_threshold 0
  // disables). While not closed, probes are suppressed — except the
  // half-open trial — and readings are flagged `degraded`. Timed on `clock`.
  CircuitBreakerConfig breaker;
  Clock* clock = Clock::System();
};

// A site's published contention reading, as Current() reads it.
struct ProbeReading {
  bool has_value = false;   // false until the first successful probe
  double probing_cost = 0.0;
  int state = -1;           // -1 when no state mapper is installed
  bool stale = false;       // age > TTL at read time
  // The site's probe circuit breaker is open or half-open: probes are
  // failing and this is the last known state, not a recent measurement.
  bool degraded = false;
  std::chrono::nanoseconds age{0};
  // Probe-start order of the published reading. A probe only publishes if
  // its sequence is newer than the published one, so a slow probe that
  // started before the current reading was taken can never clobber it.
  uint64_t sequence = 0;
};

class ContentionTracker {
 public:
  // Measures the site's current probing cost in seconds. Any non-finite or
  // negative return means the probe failed, and a thrown exception is caught
  // and counted as a failure too. Called from the tracker thread (or from
  // ProbeOnce's caller; with a probe_timeout configured, from a short-lived
  // probe thread); must be safe to call concurrently with whatever else
  // touches the site — wrap sites in mdbs::MdbsAgent for that.
  using ProbeFn = std::function<double()>;

  ContentionTracker(ContentionTrackerConfig config, ProbeFn probe,
                    LatencyHistogram* probe_latency = nullptr);
  ~ContentionTracker();

  ContentionTracker(const ContentionTracker&) = delete;
  ContentionTracker& operator=(const ContentionTracker&) = delete;

  // Starts / stops the background prober (no-ops when probe_interval is 0
  // or the thread is already in the requested state). The thread probes
  // once immediately, then every probe_interval. Start and Stop may race
  // freely from any threads: each Start stamps a new generation, and a loop
  // exits as soon as its generation is superseded, so a Start landing in the
  // middle of a Stop can neither resurrect the old loop nor deadlock the
  // join (it spawns a fresh loop that the stopper does not wait for).
  void Start();
  void Stop();

  // One synchronous probe; returns false on probe failure (a non-finite or
  // negative cost, a thrown exception, a deadline overrun, or suppression by
  // an open circuit breaker).
  bool ProbeOnce();

  // The published reading, with its age and staleness evaluated against the
  // injected clock now. Lock-free: it pins the epoch (nesting under a
  // caller's EpochGuard) and copies the reading — zero shared atomic RMWs.
  // Every reading is whole: its state is the mapper that published it
  // applied to its cost.
  ProbeReading Current() const;

  // Installs the probing-cost → state mapping (normally a model's
  // ContentionStates::StateOf) and republishes the current reading remapped.
  void SetStateMapper(std::function<int(double)> mapper);

  // Installs the state partition's internal boundaries (ascending) so
  // BoundaryDistance can report how close the published probing cost sits to
  // a state edge. Normally set alongside SetStateMapper from the same model.
  void SetStateBoundaries(std::vector<double> boundaries);

  // Distance from the published probing cost to the nearest partition
  // boundary. Returns false when there is no reading or no boundaries are
  // installed; otherwise writes the absolute distance and the boundary it is
  // measured against. Drives the near_boundary_sites gauge: a site whose
  // probe hovers inside the soft-membership band is one whose point
  // estimates are least trustworthy.
  bool BoundaryDistance(double* distance, double* boundary) const;

  // The cadence the background loop is currently probing at (the
  // probe_interval_ns gauge). Equals config probe_interval until the
  // adaptive loop first adjusts it.
  std::chrono::nanoseconds current_probe_interval() const {
    return std::chrono::nanoseconds(
        current_interval_ns_.load(std::memory_order_relaxed));
  }

  // The adaptive-cadence step, exposed for direct testing: halve when a
  // probe changed the reading, grow by a quarter when stable, clamped to
  // [min, max].
  static std::chrono::nanoseconds AdaptInterval(
      std::chrono::nanoseconds current, bool changed,
      std::chrono::nanoseconds min_interval,
      std::chrono::nanoseconds max_interval);

  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  // Successful probes whose reading was discarded because a newer probe
  // published first (out-of-order completion).
  uint64_t discarded() const {
    return discarded_.load(std::memory_order_relaxed);
  }
  // Probes abandoned past the probe_timeout deadline (a subset of failures).
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  // Probe attempts suppressed by an open circuit breaker (not failures: the
  // probe never ran).
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  // Failed probes since the last success (what the retry backoff and the
  // breaker key off).
  int consecutive_failures() const {
    return breaker_.consecutive_failures();
  }

  // The probe circuit breaker (always present; disabled unless the config
  // sets a failure threshold). Lock-free state reads.
  const CircuitBreaker& breaker() const { return breaker_; }
  bool degraded() const { return breaker_.degraded(); }

  const std::string& site() const { return config_.site; }

 private:
  // Loops until `generation` is superseded by a newer Start/Stop.
  void RunLoop(uint64_t generation);

  // Runs the probe with deadline and exception armor; true iff the probe
  // returned (an unvalidated) *cost in time.
  bool RunProbe(double* cost);

  // What Current() reads: the reading as its probe (or remap) published it.
  struct Published {
    double probing_cost = 0.0;
    int state = -1;
    uint64_t sequence = 0;
    Clock::TimePoint taken{};
  };

  const ContentionTrackerConfig config_;
  const ProbeFn probe_;
  LatencyHistogram* const probe_latency_;  // may be null

  // Serializes the writers of published_ (ProbeOnce's sequence check and
  // SetStateMapper's remap) and guards mapper_ and boundaries_. Readers never
  // take it.
  mutable std::mutex mutex_;
  std::function<int(double)> mapper_;
  std::vector<double> boundaries_;  // state partition, ascending
  EpochPublished<Published> published_;  // null until the first success
  std::atomic<int64_t> current_interval_ns_;

  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> suppressed_{0};
  CircuitBreaker breaker_;
  // Probe-start tickets; compared against the published sequence.
  std::atomic<uint64_t> next_sequence_{0};

  std::mutex thread_mutex_;  // guards thread_ / stop_ / generation_
  std::condition_variable stop_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;  // bumped by every Start and Stop
  std::thread thread_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_CONTENTION_TRACKER_H_
