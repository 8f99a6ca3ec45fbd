// Drift-triggered model refresh for the online estimation service.
//
// The paper's maintenance discussion (§2) requires re-invoking the sampling
// method "periodically or whenever a significant change for the factors
// occurs". PR 1's runtime could only serve whatever was registered at
// startup; this daemon closes the loop. Serving threads feed it the
// observed cost of queries the optimizer priced anyway
// (`ReportObserved`), and per (site, class) key it tracks two signals:
//
//  * an EWMA of the relative estimation error |est - obs| / obs — the
//    occasionally-changing-factor signal (the model is simply wrong now);
//  * the distribution of recent contention states against a baseline taken
//    just after the model was published — the contention-drift signal (the
//    environment left the region the partition was derived for, even if
//    the estimates still look fine where they are being asked).
//
// When either trips, the key walks a small state machine:
//
//    fresh ──trip──▶ drifting ──task starts──▶ refreshing
//      ▲                                        │      │
//      └──────── success (atomic swap) ─────────┘      failure
//                                                      ▼
//              retry after backoff  ◀──────────── backed-off
//
// A refresh re-samples through the key's ObservationSource and re-derives
// via core::RederiveModel on the daemon's worker pool, warm-starting from
// the feedback observations already collected. On success the new model is
// published through the service's snapshot catalog (one atomic swap; the
// tracker's state mapper is rewired in the same control-plane critical
// section). On failure the old model keeps serving — flagged `stale_model`
// in responses and Stats() — and retries back off exponentially: attempt n
// waits initial_backoff * multiplier^(n-1), capped at max_backoff, with the
// exponent frozen after max_attempts (bounded retry: a permanently failing
// source throttles to one attempt per max_backoff, it never spins).
// At most one refresh per key is ever in flight (per-key guard).
//
// Failure armor: an observation source that *throws* (instead of returning
// too few samples) is caught and routed into the same backed-off path — an
// exception can never escape a worker-pool task. And while a site's probe
// circuit breaker is not closed, refreshes for the site are suspended:
// sampling queries would fail the same way the probes are failing, and the
// signals keep accumulating so the key re-trips once the site recovers.

#ifndef MSCM_RUNTIME_MODEL_REFRESH_H_
#define MSCM_RUNTIME_MODEL_REFRESH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/maintenance.h"
#include "core/observation.h"
#include "core/observation_source.h"
#include "core/query_class.h"
#include "runtime/atomic_shared_ptr.h"
#include "runtime/clock.h"
#include "runtime/estimation_service.h"
#include "runtime/thread_pool.h"

namespace mscm::runtime {

struct ModelRefreshConfig {
  // EWMA smoothing for the relative estimation error.
  double ewma_alpha = 0.2;
  // Refresh when the error EWMA exceeds this (0.75 = estimates off by 75%).
  double error_threshold = 0.75;
  // Refresh when the L1 distance between the recent and baseline state
  // distributions exceeds this (0 = identical, 1 = disjoint).
  double drift_threshold = 0.6;
  // Reports before either signal is judged (and the size of the baseline
  // state histogram captured after each publication).
  size_t min_reports = 32;
  // Rolling window of recent states for the drift histogram.
  size_t drift_window = 64;
  // Feedback observations kept per key for warm-starting a re-derivation.
  size_t max_recent_observations = 256;
  // Retry policy for failed re-derivations.
  int max_attempts = 3;
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(100);
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(10);
  // Quiet period after a successful refresh before the key can trip again.
  std::chrono::nanoseconds refresh_cooldown = std::chrono::seconds(1);
  // Threads of the daemon's re-derivation pool: 0 runs each refresh inline
  // on the thread that scheduled it (ReportObserved or RequestRefresh),
  // < 0 = one per hardware thread.
  int worker_threads = 0;
  // How to re-derive (sampling + pipeline options, warm-start caps).
  core::RederiveOptions rederive;
  Clock* clock = Clock::System();
};

// The refresh lifecycle of one (site, class) key.
enum class RefreshState {
  kFresh,       // serving a model no signal has challenged
  kDrifting,    // a signal tripped; refresh queued but not yet running
  kRefreshing,  // re-derivation in flight on the worker pool
  kBackedOff,   // last re-derivation failed; waiting out the backoff
};

const char* ToString(RefreshState s);

// Monotonic counters over the daemon's lifetime.
struct ModelRefreshStats {
  uint64_t reports = 0;              // ReportObserved calls accepted
  uint64_t ignored_reports = 0;      // unwatched key / unpriceable feedback
  uint64_t error_trips = 0;          // EWMA threshold crossings that scheduled
  uint64_t drift_trips = 0;          // distribution-drift crossings that scheduled
  uint64_t refreshes_scheduled = 0;  // tasks handed to the pool
  uint64_t refreshes_succeeded = 0;  // models re-derived and swapped in
  uint64_t refresh_failures = 0;     // re-derivations that returned no model
  uint64_t refreshes_suspended = 0;  // trips/tasks held: site breaker not closed
  uint64_t refresh_exceptions = 0;   // re-derivations that threw (subset of failures)
  // Refresh tasks whose key was unwatched (site retiring) before they could
  // publish — the re-derivation result, if any, was dropped on the floor.
  uint64_t refreshes_abandoned = 0;

  std::string ToString() const;
};

// Point-in-time view of one key (introspection / tests).
struct RefreshKeyStatus {
  bool watched = false;
  RefreshState state = RefreshState::kFresh;
  double ewma_rel_error = 0.0;
  double drift_distance = 0.0;  // recent-vs-baseline L1, 0 until both exist
  size_t reports = 0;           // since last publication
  int attempts = 0;             // consecutive failed re-derivations
};

class ModelRefreshDaemon {
 public:
  // `service` must outlive the daemon. Refresh tasks run on the daemon's
  // pool of config.worker_threads; with zero workers they run inline inside
  // the ReportObserved or RequestRefresh that scheduled them (deterministic
  // — the test mode).
  explicit ModelRefreshDaemon(EstimationService* service,
                              ModelRefreshConfig config = {});
  // Blocks until every in-flight refresh task has finished, then joins the
  // pool.
  ~ModelRefreshDaemon();

  ModelRefreshDaemon(const ModelRefreshDaemon&) = delete;
  ModelRefreshDaemon& operator=(const ModelRefreshDaemon&) = delete;

  // Puts (site, class) under maintenance. `source` is not owned, must
  // outlive the daemon, and is only used by refresh tasks — at most one per
  // key at a time; give each key its own source unless the source is
  // thread-safe. Re-watching a key replaces its source and resets signals.
  void Watch(const std::string& site, core::QueryClassId class_id,
             core::ObservationSource* source);

  // Takes (site, class) out of maintenance: the key stops accepting
  // reports, an in-flight refresh for it abandons instead of publishing,
  // and the key's stale-model flag is cleared (nothing will ever refresh it
  // now). Returns immediately — it does not wait for an in-flight task;
  // the destructor still drains. Unknown keys are a no-op.
  void Unwatch(const std::string& site, core::QueryClassId class_id);

  // Unwatches every class of `site` — the refresh half of site retirement
  // (see EstimationService::UnregisterSite and DESIGN §7).
  void UnwatchSite(const std::string& site);

  // Feedback from the serving path: a query of `class_id` with `features`
  // ran at `site` and took `observed_cost` seconds. The daemon prices the
  // same request through the service to obtain the current model's estimate
  // and probe reading, updates the key's signals, and schedules a refresh
  // when a threshold trips. Cheap (one lock-free estimate + one short
  // per-key critical section) and safe from any thread.
  void ReportObserved(const std::string& site, core::QueryClassId class_id,
                      const std::vector<double>& features,
                      double observed_cost);

  // Forces the slow tier for (site, class): schedules a full re-derivation
  // immediately, bypassing the signal thresholds (the caller — typically the
  // AdaptationController when its fast RLS tier stalls or its covariance
  // blows up — has its own evidence). Respects the same safety rails as a
  // signal trip: at most one refresh in flight per key, backoff windows, and
  // degraded-site suspension. Returns true when a refresh was scheduled.
  bool RequestRefresh(const std::string& site, core::QueryClassId class_id);

  RefreshKeyStatus Status(const std::string& site,
                          core::QueryClassId class_id) const;
  ModelRefreshStats Stats() const;

 private:
  struct KeyEntry {
    std::string site;
    core::QueryClassId class_id;
    core::ObservationSource* source = nullptr;

    mutable std::mutex mutex;  // guards everything below
    RefreshState state = RefreshState::kFresh;
    bool in_flight = false;    // per-key concurrent-refresh guard
    // Set by Unwatch after the entry leaves the key map: reports are
    // ignored and an in-flight refresh must not publish (a re-derivation
    // finishing after UnregisterSite would resurrect the site's model).
    bool retired = false;
    int attempts = 0;          // consecutive failures
    Clock::TimePoint next_attempt_at{};  // no scheduling before this

    // Signals (reset on every publication).
    size_t reports = 0;
    double ewma_rel_error = 0.0;
    bool ewma_primed = false;
    std::vector<uint64_t> baseline_hist;  // first min_reports states
    uint64_t baseline_total = 0;
    std::deque<int> recent_states;        // rolling drift_window
    std::vector<uint64_t> recent_hist;
    std::deque<core::Observation> recent_obs;  // warm-start material
  };
  using KeyMap =
      std::map<std::pair<std::string, int>, std::shared_ptr<KeyEntry>>;
  using KeyMapSnapshot = std::shared_ptr<const KeyMap>;

  std::shared_ptr<KeyEntry> FindEntry(const std::string& site,
                                      core::QueryClassId class_id) const;

  // Updates signals under entry->mutex; returns true when a refresh should
  // be scheduled (and marks the entry drifting + in flight).
  bool UpdateSignalsAndMaybeTrip(KeyEntry& entry, double estimated,
                                 double observed, int state);

  // L1 distance between the normalized baseline and recent histograms.
  static double DriftDistance(const KeyEntry& entry);

  // Resets the trip signals after a publication (baseline restarts).
  static void ResetSignals(KeyEntry& entry);

  void RunRefresh(std::shared_ptr<KeyEntry> entry);

  EstimationService* const service_;
  const ModelRefreshConfig config_;

  std::mutex keys_mutex_;  // writers (Watch); readers load the snapshot
  AtomicSharedPtr<const KeyMap> keys_;

  // In-flight task accounting so the destructor can drain.
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  size_t pending_ = 0;

  std::atomic<uint64_t> reports_{0};
  std::atomic<uint64_t> ignored_reports_{0};
  std::atomic<uint64_t> error_trips_{0};
  std::atomic<uint64_t> drift_trips_{0};
  std::atomic<uint64_t> refreshes_scheduled_{0};
  std::atomic<uint64_t> refreshes_succeeded_{0};
  std::atomic<uint64_t> refresh_failures_{0};
  std::atomic<uint64_t> refreshes_suspended_{0};
  std::atomic<uint64_t> refresh_exceptions_{0};
  std::atomic<uint64_t> refreshes_abandoned_{0};

  // Declared last, so it joins before any member a refresh task touches is
  // destroyed.
  ThreadPool pool_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_MODEL_REFRESH_H_
