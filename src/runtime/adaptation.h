// The fast tier of the two-tier model adaptation path (DESIGN.md §7), and
// the runtime's one feedback/drift detector.
//
// The ModelRefreshDaemon closes the paper's maintenance loop the expensive
// way: on request, it re-samples the site and re-derives the whole model
// (variable selection, state partition, OLS fit). That is the right tool
// when the *structure* moved — but most drift is parametric: the
// contention states still partition the probing cost correctly, the selected
// variables are still the right ones, and only the coefficient values have
// walked. For that case this controller maintains one recursive-least-squares
// estimator per (site, class, state) over the live feedback stream and
// periodically publishes the updated coefficient rows as a row swap
// (EstimationService::ApplyAdaptedModel) — milliseconds and zero probing
// queries, versus the daemon's full re-sample.
//
// Record path contract (the PR 7 shared-nothing rule): Record() is called
// from serving threads and performs ZERO shared atomic RMWs. Each thread
// (ThreadRegistry slot) owns a bounded SPSC ring — the producer touches only
// its own head cursor (plain load + release store) and per-ring counters it
// alone writes; the drain thread is the single consumer of every ring.
// A full ring drops the report (feedback is advisory; dropping is always
// safe) and threads beyond the registry capacity fall back to a mutex-
// guarded overflow queue (real RMWs, RmwProbe-counted).
//
// Drain path: DrainOnce() — called manually (tests) or by the optional
// background thread — pops every ring, prices each report through the
// serving path (yielding the current estimate, contention state and model
// generation), folds the observation into the state's RLS estimator, and
// publishes an adapted model once a state has accumulated enough updates.
// Lineage is tracked by generation: any externally published model (a full
// re-derivation resets generation to 0) orphans the accumulators, which
// re-seed from the new model's rows.
//
// Escalation — the slow tier: when the fast tier is not working, the
// controller hands the key to the refresh daemon (RequestRefresh) instead of
// continuing to chase it; if the daemon refuses (cooldown, backoff, a
// refresh in flight, a degraded site), the key keeps its accumulators and
// asks again on a later drain. The daemon keeps no signal of its own, so
// these are the only triggers of a re-derivation:
//   * covariance blow-up: an RLS estimator latched blown_up() — the update
//     stream stopped being numerically trustworthy;
//   * error stall: the EWMA of the relative estimation error has not
//     improved for `stall_window` reports while sitting above
//     `stall_error_threshold` — coefficient updates alone cannot fix this
//     model (wrong variables or wrong partition);
//   * state-distribution drift: the recent contention-state histogram moved
//     more than `drift_threshold` (L1) from the baseline captured at seed
//     time — the environment left the region the partition was derived for.

#ifndef MSCM_RUNTIME_ADAPTATION_H_
#define MSCM_RUNTIME_ADAPTATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_class.h"
#include "runtime/estimate_types.h"
#include "runtime/model_refresh.h"
#include "runtime/thread_registry.h"
#include "stats/rls.h"

namespace mscm::runtime {

class EstimationService;

struct AdaptationConfig {
  // Per-thread feedback ring capacity (rounded up to a power of two). A full
  // ring drops new reports rather than blocking the serving thread.
  size_t buffer_capacity = 1024;
  // RLS updates a state must accumulate before its row is published. Keeps
  // a single noisy observation from reaching the serving table.
  size_t min_updates_to_publish = 8;
  // Forgetting factor / prior / numerical guards for the per-state
  // estimators (see stats/rls.h). The default forgetting of 0.995 weights
  // an observation half as much after ~138 updates.
  stats::RlsConfig rls;
  // EWMA smoothing for the relative estimation error signal.
  double ewma_alpha = 0.2;
  // Escalate when the error EWMA has not improved for `stall_window`
  // reports while above `stall_error_threshold`. An improvement is a drop
  // of at least `stall_improvement` (relative) below the best EWMA seen.
  double stall_error_threshold = 0.75;
  size_t stall_window = 64;
  double stall_improvement = 0.05;
  // Escalate when the L1 distance between the recent and baseline state
  // distributions exceeds this. The baseline is the first
  // `min_samples_for_drift` states observed after (re)seeding.
  double drift_threshold = 0.6;
  size_t drift_window = 64;
  size_t min_samples_for_drift = 32;
  // Generation-aware feedback weighting. A report is stamped with the
  // model_generation its estimate was priced under; `lag` is how many
  // generations the serving lineage has advanced since. Stragglers from
  // superseded lineages carry information about an older model's errors —
  // folding them in at full weight right after a republish biases the RLS
  // tier toward coefficients it just corrected.
  //
  // Reports with lag > generation_discard_lag are discarded outright
  // (0 = discard anything from a superseded lineage; raise it to tolerate
  // slower feedback loops). Surviving lagged reports fold in with RLS
  // weight generation_downweight^lag (1.0 = no down-weighting).
  uint64_t generation_discard_lag = 4;
  double generation_downweight = 0.5;
  // Background drain cadence; used only when `start_thread` is true.
  std::chrono::nanoseconds drain_interval = std::chrono::milliseconds(20);
  bool start_thread = false;
};

// Monotonic counters over the controller's lifetime.
struct AdaptationStats {
  uint64_t accepted = 0;          // reports buffered for the drain
  uint64_t dropped = 0;           // reports lost to a full ring
  uint64_t rejected = 0;          // reports failing validation (fail-closed)
  uint64_t drained = 0;           // reports consumed by DrainOnce
  uint64_t ignored = 0;           // drained but unpriceable (no model/probe)
  uint64_t updates_applied = 0;   // RLS updates folded into an estimator
  uint64_t updates_rejected = 0;  // RLS guard rejections (near-singular gain)
  uint64_t adaptations_published = 0;  // row swaps through ApplyAdaptedModel
  uint64_t escalations = 0;       // refreshes the daemon scheduled
  // Escalations the daemon refused (cooldown, backoff, a refresh in flight,
  // a degraded site); the key keeps its accumulators and asks again.
  uint64_t escalations_refused = 0;
  uint64_t lost_races = 0;        // publishes beaten by an external swap
  uint64_t lineage_resets = 0;    // accumulators orphaned by a new lineage
  // Generation-aware weighting (see AdaptationConfig): stragglers from
  // superseded lineages discarded outright / folded in at reduced weight.
  uint64_t stale_gen_discarded = 0;
  uint64_t stale_gen_downweighted = 0;
  // High-water generation lag observed across all keys (gauge-like but
  // monotone): how far behind the serving lineage feedback has arrived.
  uint64_t max_generation_lag = 0;

  std::string ToString() const;
};

// Point-in-time view of one (site, class) key (introspection / tests).
struct AdaptationKeyStatus {
  bool seeded = false;
  uint64_t generation = 0;       // lineage the accumulators track
  double ewma_rel_error = 0.0;
  size_t samples = 0;            // reports folded since (re)seed
  uint64_t rls_updates = 0;      // across all state estimators, this lineage
  // Generation lag of the key's most recently drained report (0 = feedback
  // is keeping up with the serving lineage).
  uint64_t generation_lag = 0;
};

class AdaptationController {
 public:
  // Hard caps that keep ring samples fixed-size (no allocation, no shared
  // RMW on the record path). Reports exceeding either are rejected.
  static constexpr size_t kMaxFeatures = 16;
  static constexpr size_t kMaxSiteLength = 47;

  // `service` must outlive the controller. `daemon` may be null (escalations
  // are then counted but go nowhere) and must otherwise outlive it too.
  AdaptationController(EstimationService* service, ModelRefreshDaemon* daemon,
                       AdaptationConfig config = {});
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  // Buffers one feedback report for the next drain. Safe from any thread;
  // zero shared atomic RMWs for threads holding a registry slot. Returns
  // false when the report was rejected (invalid) or dropped (ring full).
  bool Record(const FeedbackReport& report);

  // Drains every ring and folds the reports into the estimators, publishing
  // and escalating as warranted. Single consumer (internally serialized);
  // the test entry point when no background thread runs. Returns the number
  // of reports consumed.
  size_t DrainOnce();

  // Starts / stops the background drain thread. Start is idempotent; the
  // destructor stops. Stop drains once more so buffered reports are not
  // silently discarded.
  void Start();
  void Stop();

  // Drops every accumulator group for `site` (all query classes) — the
  // adaptation half of site retirement (see EstimationService::UnregisterSite
  // and DESIGN §7). Ring samples for the site already buffered are still
  // drained afterwards but price as kNoModel and are counted `ignored`
  // without re-creating a group. Unknown sites are a no-op.
  void DetachSite(const std::string& site);

  // Number of live accumulator groups (leak detection in tests; a detached
  // or never-seeded site must not pin one).
  size_t NumGroups() const;

  AdaptationStats Stats() const;
  AdaptationKeyStatus Status(const std::string& site,
                             core::QueryClassId class_id) const;

 private:
  // Fixed-size ring sample: everything Record captured, nothing heap-owned.
  struct Sample {
    char site[kMaxSiteLength + 1];
    uint8_t site_len = 0;
    core::QueryClassId class_id = core::QueryClassId::kUnarySeqScan;
    uint8_t num_features = 0;
    double features[kMaxFeatures];
    double actual_cost = 0.0;
    double probing_cost = -1.0;
    uint64_t model_generation = 0;
  };

  // One thread's SPSC ring. Producer: the slot's owning thread (head,
  // accepted, dropped, rejected — single-writer plain load+store).
  // Consumer: the drain (tail).
  struct alignas(64) Ring {
    explicit Ring(size_t capacity) : buffer(capacity) {}
    std::atomic<uint64_t> head{0};
    std::atomic<uint64_t> tail{0};
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> rejected{0};
    std::vector<Sample> buffer;
  };

  // Per-(site, class, state) estimator, seeded from the serving row.
  struct StateAccumulator {
    std::unique_ptr<stats::RlsEstimator> rls;
    uint64_t base_updates = 0;  // updates persisted in the seed row
    uint64_t new_updates = 0;   // updates since the last publish
  };

  // Per-(site, class) lineage: accumulators plus the escalation signals.
  struct Group {
    bool seeded = false;
    uint64_t generation = 0;
    int num_states = 0;
    std::map<int, StateAccumulator> states;
    bool blown = false;

    // Signals (reset on every reseed).
    size_t samples = 0;
    double ewma_rel_error = 0.0;
    bool ewma_primed = false;
    double best_ewma = 0.0;
    size_t since_improvement = 0;
    std::vector<uint64_t> baseline_hist;
    uint64_t baseline_total = 0;
    std::deque<int> recent_states;
    std::vector<uint64_t> recent_hist;
    // Generation lag of the most recently folded report (see
    // AdaptationConfig::generation_discard_lag).
    uint64_t last_generation_lag = 0;
  };

  static bool ValidReport(const FeedbackReport& report);
  static void FillSample(const FeedbackReport& report, Sample& sample);

  Ring* LocalRing();

  // Drain-side helpers; all run under drain_mutex_.
  void ProcessSample(const Sample& sample);
  bool ReseedGroup(Group& group, const std::string& site,
                   core::QueryClassId class_id);
  void UpdateSignals(Group& group, double estimated, double observed,
                     int state);
  bool ShouldEscalate(const Group& group) const;
  // Hands `key` to the refresh daemon; false when the daemon refuses.
  bool Escalate(const std::pair<std::string, int>& key);
  void MaybePublish(const std::pair<std::string, int>& key, Group& group);
  static double DriftDistance(const Group& group);

  EstimationService* const service_;
  ModelRefreshDaemon* const daemon_;  // may be null
  const AdaptationConfig config_;
  size_t ring_capacity_ = 0;  // power of two
  uint64_t ring_mask_ = 0;

  // Owner-created (release store), freed only by the destructor.
  std::atomic<Ring*> rings_[ThreadRegistry::kMaxSlots] = {};

  // Overflow path for threads without a registry slot (mutex + RMWs).
  mutable std::mutex overflow_mutex_;
  std::deque<Sample> overflow_;
  std::atomic<uint64_t> overflow_accepted_{0};
  std::atomic<uint64_t> overflow_dropped_{0};
  std::atomic<uint64_t> overflow_rejected_{0};

  // Serializes drains; guards groups_ and the drain-side counters.
  mutable std::mutex drain_mutex_;
  std::map<std::pair<std::string, int>, Group> groups_;

  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> ignored_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_rejected_{0};
  std::atomic<uint64_t> adaptations_published_{0};
  std::atomic<uint64_t> escalations_{0};
  std::atomic<uint64_t> escalations_refused_{0};
  std::atomic<uint64_t> lost_races_{0};
  std::atomic<uint64_t> lineage_resets_{0};
  std::atomic<uint64_t> stale_gen_discarded_{0};
  std::atomic<uint64_t> stale_gen_downweighted_{0};
  std::atomic<uint64_t> max_generation_lag_{0};

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  std::thread drain_thread_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ADAPTATION_H_
