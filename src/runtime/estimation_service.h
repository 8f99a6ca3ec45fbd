// The online cost-estimation service: the paper's derived multi-states cost
// models (§4) served as a concurrent, low-latency runtime component of a
// global query optimizer.
//
// Many client threads ask "what would a query of class C with feature
// vector x cost at site S right now?". The service answers from
//   (1) an immutable-snapshot catalog of derived cost models (readers never
//       lock; model registration copy-on-writes a new snapshot) — estimates
//       evaluate each model's compiled per-state equation table
//       (core::CompiledEquations via GlobalCatalog::FindCompiled), never
//       the derivation-side DesignLayout — and
//   (2) per-site ContentionTrackers whose background probers publish a
//       (contention state, probing cost) reading per site, so no probing
//       query runs on the estimation path.
// Responses carry the contention state used, and a `stale_probe` flag when
// the site's reading has outlived its TTL (last-known-state fallback).
//
// Every request is priced by one pass, a loop on the calling thread: under
// one epoch pin it reads one catalog snapshot and one probe reading per
// distinct site, resolves each request's model, probe and state, answers a
// short feature vector with kInvalidRequest, evaluates the rest in
// (site, class, state) groups and fills each response in one place.
// Estimate() runs it over one request; EstimateBatch() runs it over many —
// the federated-join planner prices every candidate placement of every
// component query at once — and ChoosePlacement() ranks under the same pin
// it priced with. There is no response cache: a pass reads every snapshot
// and probe lock-free, so a single estimate performs zero shared atomic
// RMWs, and an answer is always priced from what is published now. The
// service owns no threads but its per-site probers: a caller that wants
// parallel pricing calls EstimateBatch() from its own threads, as the
// server's IO loops do.

#ifndef MSCM_RUNTIME_ESTIMATION_SERVICE_H_
#define MSCM_RUNTIME_ESTIMATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/cost_distribution.h"
#include "runtime/clock.h"
#include "runtime/contention_tracker.h"
#include "runtime/epoch.h"
#include "runtime/estimate_types.h"
#include "runtime/runtime_stats.h"
#include "runtime/snapshot_catalog.h"

namespace mscm::mdbs {
class MdbsAgent;
}  // namespace mscm::mdbs

namespace mscm::runtime {

struct EstimationServiceConfig {
  // Probe readings older than this are still served, flagged stale.
  std::chrono::nanoseconds probe_ttl = std::chrono::seconds(5);
  // Background probe period per site; zero = probe only via ProbeNow().
  std::chrono::nanoseconds probe_interval{0};
  // Per-site adaptive probing cadence bounds (see ContentionTrackerConfig);
  // both positive enables adaptation, starting from probe_interval.
  std::chrono::nanoseconds min_probe_interval{0};
  std::chrono::nanoseconds max_probe_interval{0};
  // Per-site probe deadline: a probe still running after this long is
  // abandoned and counted as a failure (see ContentionTrackerConfig). Zero
  // disables.
  std::chrono::nanoseconds probe_timeout{0};
  // Retry backoff base after a failed background probe (see
  // ContentionTrackerConfig::failure_retry). Zero disables.
  std::chrono::nanoseconds probe_failure_retry{0};
  // Per-site probe circuit breaker (failure_threshold 0 disables): after a
  // run of consecutive probe failures the site enters degraded — probing is
  // suppressed, estimates serve from the last known state with
  // degraded=true, and the refresh daemon holds its re-derivations.
  CircuitBreakerConfig breaker;
  // Soft state-membership band for the near_boundary_sites gauge and the
  // default placement ranking: a site whose published probing cost sits
  // within band_fraction * |boundary| of a partition boundary is "near" it
  // (see core::CompiledEquations::EvaluateDistribution).
  double boundary_band_fraction = 0.1;
  Clock* clock = Clock::System();
};

// EstimateStatus / EstimateRequest / EstimateResponse live in
// runtime/estimate_types.h.

// A candidate placement: where could this component query run, and what
// would shipping its result home cost under current link conditions?
struct PlacementCandidate {
  EstimateRequest request;
  double shipping_seconds = 0.0;
};

// How ChoosePlacement ranks candidates (see core::PlacementRanking): the
// default is the legacy point-estimate argmin; kExpectedCost and
// kRiskAdjusted rank the served cost distributions instead, penalizing
// stale/degraded candidates by widening their intervals.
struct PlacementOptions {
  core::PlacementRanking ranking;
};

struct PlacementResult {
  int chosen = -1;  // index of cheapest candidate; -1 if none estimable
  core::PlacementPolicy policy = core::PlacementPolicy::kPointEstimate;
  std::vector<EstimateResponse> responses;
  std::vector<double> total_seconds;  // local estimate + shipping
  // Served cost distribution per candidate (stale/degraded stamped from the
  // response flags; zeroed where the candidate was not estimable).
  std::vector<core::CostDistribution> distributions;
  // Ranking score under the requested policy (infinity where not
  // estimable); `chosen` is its argmin.
  std::vector<double> scores;
};

class EstimationService {
 public:
  explicit EstimationService(EstimationServiceConfig config = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // ---- Control plane (catalog + sites) ------------------------------------

  // Registers (or replaces) the model for (site, model.class_id()) by
  // publishing a new catalog snapshot. Also refreshes the site tracker's
  // state partition and clears any stale-model flag for the key. Safe to
  // call while estimates are being served; registrations serialize on the
  // control mutex, so a registration can never slip between RegisterSite's
  // tracker publication and its state-mapper wiring.
  void RegisterModel(const std::string& site, core::CostModel model);

  // Publishes a streaming-adaptation of the already-registered model for
  // (site, model.class_id()) — the fast tier of the two-tier adaptation
  // path. Unlike RegisterModel it leaves the stale-model flag and the
  // tracker's partition alone (an adaptation swaps coefficient rows, never
  // the partition). Fails (returns false, publishes nothing) when no model
  // is registered for the key or the registered model's generation no
  // longer equals `expected_generation` — the lost-race guard against a
  // concurrent full re-derivation or another adaptation landing first.
  bool ApplyAdaptedModel(const std::string& site, core::CostModel model,
                         uint64_t expected_generation);

  // As RegisterModel, but publishes only while the site is still live —
  // it has a registered tracker or at least one registered model. Returns
  // false (publishing nothing) otherwise. Asynchronous re-deriders (the
  // ModelRefreshDaemon) use this so a re-derivation that finishes after
  // UnregisterSite cannot resurrect the retired site's catalog entry.
  bool RegisterModelIfActive(const std::string& site, core::CostModel model);

  // Registers a site with an arbitrary probe (see ContentionTracker). If
  // the service config has a probe interval, the background prober starts
  // immediately. Re-registering a site replaces its tracker. The tracker's
  // state partition is wired from the site's most recently registered model
  // (deterministic, regardless of how many classes are registered).
  void RegisterSite(const std::string& site, ContentionTracker::ProbeFn probe);

  // Convenience: register a site probed through its MDBS agent.
  void RegisterSite(mdbs::MdbsAgent* agent);

  // Retires a site: stops and unpublishes its tracker, drops every
  // (site, class) model from the catalog in one snapshot swap and clears the
  // site's stale-model flags. In-flight estimates drain safely — an epoch
  // guard pins the tracker map and catalog snapshot they read, and the
  // tracker object itself stays alive through the shared_ptrs those
  // snapshots hold. The retired tracker's probe/breaker counters are folded
  // into the service totals so Stats() stays monotone across churn.
  // Idempotent; unknown sites are a no-op. See DESIGN §7 "Site lifecycle"
  // for the full contract.
  void UnregisterSite(const std::string& site);

  // Graceful-shutdown hook: stops every site's background prober and blocks
  // until in-flight probes finish (or are abandoned at their deadline).
  // Estimates keep serving from the last published readings. Idempotent; the
  // destructor calls it. Ordered teardown of a serving stack is
  //   server drain → refresh daemon stop → StopProbing() → service dtor
  // (see net/served_runtime.h).
  void StopProbing();

  // Synchronous probe of one site; false if unknown site or probe failure.
  bool ProbeNow(const std::string& site);

  // Current published reading for a site (default ProbeReading if unknown).
  ProbeReading CurrentProbe(const std::string& site) const;

  // Whether the site's probe circuit breaker is not closed (estimates for
  // the site are served degraded). False for unknown sites. Lock-free.
  bool IsSiteDegraded(const std::string& site) const;

  // The site's breaker state (kClosed for unknown sites). Lock-free.
  CircuitBreaker::State SiteBreakerState(const std::string& site) const;

  // Marks (or unmarks) the (site, class) model as stale: responses for the
  // key carry stale_model=true until a new model is registered or the flag
  // is cleared. Set by the ModelRefreshDaemon when drift trips; registering
  // a model for the key clears it automatically.
  void SetModelStale(const std::string& site, core::QueryClassId class_id,
                     bool stale);
  bool IsModelStale(const std::string& site,
                    core::QueryClassId class_id) const;

  // ---- Data plane (estimates) ---------------------------------------------

  EstimateResponse Estimate(const EstimateRequest& request) const;

  // Prices every request on the calling thread against one catalog
  // snapshot, reading each distinct site's probe once. responses[i] answers
  // requests[i].
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests) const;
  // As above, into caller storage of the same size: responses[i] answers
  // requests[i]. A warm thread prices without a heap allocation (the
  // serving loop reuses its storage frame to frame).
  void EstimateBatch(std::span<const EstimateRequest> requests,
                     std::span<EstimateResponse> responses) const;

  // Prices all candidate placements of a component query in one batch and
  // ranks them under `options`: by default the cheapest total (local
  // estimate + result shipping), or least-expected-cost / risk-adjusted.
  // Each candidate's distribution comes from the model snapshot that priced
  // it; distributions and scores are served under every policy.
  PlacementResult ChoosePlacement(
      const std::vector<PlacementCandidate>& candidates,
      const PlacementOptions& options = {}) const;

  // ---- Introspection ------------------------------------------------------

  RuntimeStatsSnapshot Stats() const;

  // The current catalog snapshot (Find() pointers valid while it is held).
  SnapshotCatalog::Snapshot CatalogSnapshot() const {
    return catalog_.snapshot();
  }

 private:
  using TrackerMap =
      std::map<std::string, std::shared_ptr<ContentionTracker>>;
  using TrackerMapSnapshot = std::shared_ptr<const TrackerMap>;
  // (site, class id) keys currently flagged stale, published copy-on-write
  // like the tracker map so the estimate path reads it lock-free.
  using StaleKeySet = std::set<std::pair<std::string, int>>;
  using StaleKeySnapshot = std::shared_ptr<const StaleKeySet>;

  // The site's tracker, or nullptr (lock-free snapshot read).
  std::shared_ptr<ContentionTracker> FindTracker(const std::string& site) const;

  // The pricing pass (estimation_service.cc): prices requests[0, n) into
  // responses[0, n) on the calling thread from the snapshots `guard` pins,
  // and records the call's latency over the items it priced. `models`, when
  // not null, receives each item's resolved model (valid while `guard`
  // lives). A `batch` pass counts one batch.
  void Price(const EpochGuard& guard, const EstimateRequest* requests,
             size_t n, EstimateResponse* responses,
             const core::CompiledEquations** models, bool batch) const;

  // Flips the stale flag for a key; caller must hold control_mutex_.
  void SetModelStaleLocked(const std::string& site,
                           core::QueryClassId class_id, bool stale);

  // RegisterModel's body; caller must hold control_mutex_. `states` and
  // `class_id` are captured from `model` before it moves.
  void RegisterModelLocked(const std::string& site, core::CostModel model,
                           const core::ContentionStates& states,
                           core::QueryClassId class_id);

  const EstimationServiceConfig config_;
  SnapshotCatalog catalog_;

  // Serializes the control plane: model registration, site registration and
  // stale-flag flips. Estimates never take it — they read the published
  // snapshots. Holding one mutex across a whole RegisterSite/RegisterModel
  // is what closes the tracker-publication vs. mapper-wiring race.
  mutable std::mutex control_mutex_;
  // Epoch-published: the estimate hot path reads these raw under an
  // EpochGuard (zero shared RMWs); the control plane and cold callers use
  // the shared_ptr load.
  EpochPublished<TrackerMap> trackers_;
  EpochPublished<StaleKeySet> stale_keys_;
  // Last registered model class per site (control_mutex_): the partition
  // RegisterSite wires into a new tracker.
  std::map<std::string, core::QueryClassId> newest_class_;

  // Terminal rows of trackers that were replaced (RegisterSite) or retired
  // (UnregisterSite), plus the sites_retired row. Stats() adds these to the
  // live trackers' rows so probe/breaker counters never regress across site
  // churn. Guarded by retired_mutex_ (its own mutex so Stats() never
  // contends with — or deadlocks against — control-plane calls that join
  // probers while holding control_mutex_).
  //
  // Atomicity contract: a tracker's unpublication from trackers_ and the
  // fold of its rows into retired_ happen under ONE retired_mutex_ hold,
  // and Stats() reads the map and retired_ under that same mutex — so at
  // every observable instant a tracker's history is counted in exactly one
  // of the two. (Unpublish-then-fold made the tracker's whole history
  // vanish from a Stats() racing the gap; fold-then-unpublish would double
  // count it. Both read as counter regressions to a monotonicity
  // watchdog.) Rows a still-draining probe adds between the fold and
  // Stop() are folded afterwards by a second FoldTrackerLocked.
  //
  // Adds what `tracker` counted since `*folded` to retired_ and advances
  // `*folded`. Caller must hold retired_mutex_.
  void FoldTrackerLocked(const ContentionTracker& tracker,
                         RuntimeCounters::Tally* folded);

  mutable std::mutex retired_mutex_;
  RuntimeCounters::Tally retired_;

  mutable RuntimeCounters counters_;
  mutable LatencyHistogram estimate_latency_;
  mutable LatencyHistogram probe_latency_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ESTIMATION_SERVICE_H_
