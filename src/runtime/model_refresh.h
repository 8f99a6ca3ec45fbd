// Model re-derivation for the online estimation service.
//
// The paper's maintenance discussion (§2) requires re-invoking the sampling
// method "periodically or whenever a significant change for the factors
// occurs". Deciding *when* is the AdaptationController's job: it watches
// the served feedback (error stall, contention-state drift, RLS blow-up)
// and escalates a key here through `RequestRefresh`. This daemon is the
// executor of that decision — it re-samples the site and re-derives the
// model — and keeps no drift signal of its own. Each key walks a small
// state machine:
//
//    fresh ──request──▶ drifting ──task starts──▶ refreshing
//      ▲                                          │      │
//      └──────── success (atomic swap) ───────────┘      failure
//                                                        ▼
//              next request after backoff ◀─────── backed-off
//
// A refresh draws a fresh sample through the key's ObservationSource and
// re-derives via core::RederiveModel on the daemon's worker pool. On
// success the new model is published through the service's snapshot
// catalog (one atomic swap; the tracker's state mapper is rewired in the
// same control-plane critical section). On failure the old model keeps
// serving — flagged `stale_model` in responses and Stats() — and requests
// back off exponentially: attempt n waits initial_backoff *
// multiplier^(n-1), capped at max_backoff, with the exponent frozen after
// max_attempts (bounded retry: a permanently failing source throttles to
// one attempt per max_backoff, it never spins). At most one refresh per key
// is ever in flight (per-key guard).
//
// Failure armor: an observation source that *throws* (instead of returning
// too few samples) is caught and routed into the same backed-off path — an
// exception can never escape a worker-pool task. And while a site's probe
// circuit breaker is not closed, refreshes for the site are suspended:
// sampling queries would fail the same way the probes are failing.

#ifndef MSCM_RUNTIME_MODEL_REFRESH_H_
#define MSCM_RUNTIME_MODEL_REFRESH_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/maintenance.h"
#include "core/observation_source.h"
#include "core/query_class.h"
#include "runtime/clock.h"
#include "runtime/estimation_service.h"
#include "runtime/thread_pool.h"

namespace mscm::runtime {

struct ModelRefreshConfig {
  // Retry policy for failed re-derivations.
  int max_attempts = 3;
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(100);
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(10);
  // Quiet period after a successful refresh before the key can be
  // refreshed again.
  std::chrono::nanoseconds refresh_cooldown = std::chrono::seconds(1);
  // Threads of the daemon's re-derivation pool: 0 runs each refresh inline
  // on the thread that called RequestRefresh, < 0 = one per hardware
  // thread.
  int worker_threads = 0;
  // How to re-derive (sampling + pipeline options).
  core::RederiveOptions rederive;
  Clock* clock = Clock::System();
};

// The refresh lifecycle of one (site, class) key.
enum class RefreshState {
  kFresh,       // serving a model no refresh request has challenged
  kDrifting,    // a refresh was requested; task queued but not yet running
  kRefreshing,  // re-derivation in flight on the worker pool
  kBackedOff,   // last re-derivation failed; waiting out the backoff
};

const char* ToString(RefreshState s);

// Monotonic counters over the daemon's lifetime.
struct ModelRefreshStats {
  uint64_t refreshes_scheduled = 0;  // tasks handed to the pool
  uint64_t refreshes_succeeded = 0;  // models re-derived and swapped in
  uint64_t refresh_failures = 0;     // re-derivations that returned no model
  uint64_t refreshes_suspended = 0;  // requests/tasks held: site breaker not closed
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
  int attempts = 0;  // consecutive failed re-derivations
};

class ModelRefreshDaemon {
 public:
  // `service` must outlive the daemon. Refresh tasks run on the daemon's
  // pool of config.worker_threads; with zero workers they run inline inside
  // the RequestRefresh that scheduled them (deterministic — the test mode).
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
  // thread-safe. Re-watching a key replaces its source and resets its
  // refresh state.
  void Watch(const std::string& site, core::QueryClassId class_id,
             core::ObservationSource* source);

  // Takes (site, class) out of maintenance: the key refuses refresh
  // requests, an in-flight refresh for it abandons instead of publishing,
  // and the key's stale-model flag is cleared (nothing will ever refresh it
  // now). Returns immediately — it does not wait for an in-flight task;
  // the destructor still drains. Unknown keys are a no-op.
  void Unwatch(const std::string& site, core::QueryClassId class_id);

  // Unwatches every class of `site` — the refresh half of site retirement
  // (see EstimationService::UnregisterSite and DESIGN §7).
  void UnwatchSite(const std::string& site);

  // Schedules a full re-derivation of (site, class). The caller — the
  // AdaptationController when its fast RLS tier stalls, sees the state
  // distribution drift or blows up — has the evidence; the daemon applies
  // the safety rails: at most one refresh in flight per key, the cooldown
  // after a success, the backoff after a failure, and degraded-site
  // suspension. Returns true when a refresh was scheduled.
  bool RequestRefresh(const std::string& site, core::QueryClassId class_id);

  RefreshKeyStatus Status(const std::string& site,
                          core::QueryClassId class_id) const;
  ModelRefreshStats Stats() const;

 private:
  struct KeyEntry {
    // Set by Watch before the entry is shared; read-only afterwards.
    std::string site;
    core::QueryClassId class_id;
    core::ObservationSource* source = nullptr;

    // Guarded by the daemon's mutex_.
    RefreshState state = RefreshState::kFresh;
    bool in_flight = false;  // per-key concurrent-refresh guard
    // Set by Unwatch as the entry leaves the key map: an in-flight refresh
    // must not publish (a re-derivation finishing after UnregisterSite
    // would resurrect the site's model).
    bool retired = false;
    int attempts = 0;                    // consecutive failures
    Clock::TimePoint next_attempt_at{};  // no scheduling before this
  };

  void RunRefresh(const std::shared_ptr<KeyEntry>& entry);
  // Marks one scheduled task finished; the destructor waits for zero.
  void FinishTask();

  EstimationService* const service_;
  const ModelRefreshConfig config_;

  // Every caller is a cold path (the controller's drain, the pool, tests),
  // so one mutex guards the key map, every entry's refresh state, the
  // in-flight task count and the counters.
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, int>, std::shared_ptr<KeyEntry>> keys_;
  size_t pending_ = 0;
  std::condition_variable drained_cv_;  // signalled when pending_ drops
  ModelRefreshStats stats_;

  // Declared last, so it joins before any member a refresh task touches is
  // destroyed.
  ThreadPool pool_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_MODEL_REFRESH_H_
