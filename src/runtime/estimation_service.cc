#include "runtime/estimation_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "mdbs/agent.h"
#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

// A request must be priceable before it touches any shared structure: a
// non-finite feature would poison the estimate (and the estimate cache,
// which keys on the feature vector), a NaN probing cost would silently fall
// through the `>= 0` explicit-probe check into the cached-probe path, and a
// +inf probing cost would map to the top state and price garbage.
bool RequestIsValid(const EstimateRequest& request) {
  for (const double f : request.features) {
    if (!std::isfinite(f)) return false;
  }
  if (std::isnan(request.probing_cost)) return false;
  if (request.probing_cost >= 0.0 && !std::isfinite(request.probing_cost)) {
    return false;
  }
  return true;  // any finite negative value means "use the cached probe"
}

// Cache hits record latency on a 1-in-N sample (RecordN weights the sample
// by the period, so the histogram's count still reflects every hit). An
// unsampled hit path stays exactly as cheap as before — no clock reads —
// and a sampled one adds two clock reads plus a per-thread histogram
// stripe store: still zero shared atomic RMWs. Without this, the estimate
// latency histogram held only cold-miss samples, so a *faster* cached
// configuration reported *higher* p50/p99 than the uncached one.
//
// The sample period counts *hits*, not lookup attempts: the soak's
// conservation checker caught the attempt-counting variant weighting each
// sampled hit by the period even when most attempts in the window missed
// (and had already recorded their own latency), pushing the histogram
// count past the request count — up to ~2x on adversarial hit/miss
// interleavings. Counting hits keeps count(estimate_latency) <= requests,
// short by at most one unflushed window per thread.
constexpr uint64_t kHitLatencySamplePeriod = 64;

// Source of per-service identities for the hit sampler's thread-local
// window state (see instance_id_ in the header). Monotonic, never reused.
std::atomic<uint64_t> next_service_instance_id{1};

// The six monotone rows a site's tracker counts itself (background probes
// and ProbeNow alike): `probes` counts attempts, of which `probe_failures`
// kept the old reading.
RuntimeCounters::Tally TrackerRows(const ContentionTracker& tracker) {
  RuntimeCounters::Tally rows;
  rows[RuntimeCounter::probes] = tracker.probes() + tracker.failures();
  rows[RuntimeCounter::probe_failures] = tracker.failures();
  rows[RuntimeCounter::probe_discards] = tracker.discarded();
  rows[RuntimeCounter::probe_timeouts] = tracker.timeouts();
  rows[RuntimeCounter::probes_suppressed] = tracker.suppressed();
  rows[RuntimeCounter::breaker_opens] = tracker.breaker().opens();
  return rows;
}

}  // namespace

const char* ToString(EstimateStatus s) {
  switch (s) {
    case EstimateStatus::kOk:
      return "ok";
    case EstimateStatus::kNoModel:
      return "no-model";
    case EstimateStatus::kNoProbe:
      return "no-probe";
    case EstimateStatus::kInvalidRequest:
      return "invalid-request";
  }
  return "?";
}

EstimationService::EstimationService(EstimationServiceConfig config)
    : config_(config),
      cache_(config.cache),
      trackers_(std::make_shared<const TrackerMap>()),
      stale_keys_(std::make_shared<const StaleKeySet>()),
      instance_id_(
          next_service_instance_id.fetch_add(1, std::memory_order_relaxed)),
      pool_(config.worker_threads) {}

EstimationService::~EstimationService() { StopProbing(); }

void EstimationService::StopProbing() {
  // Stop every prober before members unwind: a live prober's state-change
  // callback reaches into cache_, and replaced trackers kept alive by cache
  // entries stop when the cache retires them in its own destructor.
  const TrackerMapSnapshot map = trackers_.load();
  for (const auto& [site, tracker] : *map) tracker->Stop();
}

void EstimationService::RegisterModel(const std::string& site,
                                      core::CostModel model) {
  // Capture the partition before the model moves into the catalog; the
  // tracker's informational state field follows the newest model per site.
  const core::ContentionStates states = model.states();
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  RegisterModelLocked(site, std::move(model), states, class_id);
}

bool EstimationService::RegisterModelIfActive(const std::string& site,
                                              core::CostModel model) {
  const core::ContentionStates states = model.states();
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  // "Live" = the site still has a tracker or at least one registered model.
  // UnregisterSite removes both under this same mutex, so the check and the
  // publication are atomic against retirement.
  if (newest_class_.count(site) == 0 && trackers_.load()->count(site) == 0) {
    return false;
  }
  RegisterModelLocked(site, std::move(model), states, class_id);
  return true;
}

void EstimationService::RegisterModelLocked(
    const std::string& site, core::CostModel model,
    const core::ContentionStates& states, core::QueryClassId class_id) {
  catalog_.Register(site, std::move(model));
  counters_.Local().Add(RuntimeCounter::catalog_swaps);
  newest_class_[site] = class_id;
  // A freshly registered model is by definition not stale.
  SetModelStaleLocked(site, class_id, false);
  if (auto tracker = FindTracker(site)) {
    tracker->SetStateMapper(
        [states](double cost) { return states.StateOf(cost); });
    tracker->SetStateBoundaries(states.boundaries());
  }
  // Entries priced under the previous catalog revision can never hit again
  // (the lookup epoch moved); evict the re-registered site's eagerly.
  cache_.InvalidateSite(site);
}

bool EstimationService::ApplyAdaptedModel(const std::string& site,
                                          core::CostModel model,
                                          uint64_t expected_generation,
                                          const std::vector<int>& changed_states) {
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  // Lost-race guard: the adaptation was derived against a specific lineage.
  // If a full re-derivation (generation reset to 0) or another adaptation
  // landed since, publishing this one would silently roll the model back.
  {
    const auto snapshot = catalog_.snapshot();
    const core::CostModel* current = snapshot->Find(site, class_id);
    if (current == nullptr ||
        current->generation() != expected_generation) {
      return false;
    }
  }
  catalog_.UpdatePreservingRevision(
      [&site, &model](core::GlobalCatalog& catalog) {
        catalog.Register(site, std::move(model));
      });
  counters_.Local().Add(RuntimeCounter::adaptations_applied);
  // Only the swapped states' rows changed; every other state's cached
  // responses stay bit-correct under the preserved revision.
  for (const int state : changed_states) {
    cache_.InvalidateSiteState(site, state);
  }
  return true;
}

void EstimationService::RegisterSite(const std::string& site,
                                     ContentionTracker::ProbeFn probe) {
  ContentionTrackerConfig tracker_config;
  tracker_config.site = site;
  tracker_config.ttl = config_.probe_ttl;
  tracker_config.probe_interval = config_.probe_interval;
  tracker_config.min_probe_interval = config_.min_probe_interval;
  tracker_config.max_probe_interval = config_.max_probe_interval;
  tracker_config.probe_timeout = config_.probe_timeout;
  tracker_config.failure_retry = config_.probe_failure_retry;
  tracker_config.breaker = config_.breaker;
  tracker_config.clock = config_.clock;
  auto tracker = std::make_shared<ContentionTracker>(
      std::move(tracker_config), std::move(probe), &probe_latency_);
  // Evict the site's cached estimates the moment its contention state
  // transitions. Fired off-lock from the tracker; touches only cache_.
  tracker->SetStateChangeCallback(
      [this, site](int /*old_state*/, int /*new_state*/) {
        cache_.InvalidateSite(site);
      });

  std::lock_guard<std::mutex> lock(control_mutex_);

  // Publish the tracker before wiring its partition. RegisterModel holds
  // the same mutex, so no registration can land between publication and
  // wiring — the old order (snapshot catalog, then publish) let a racing
  // RegisterModel miss the tracker and leave the state mapper unset.
  const TrackerMapSnapshot current = trackers_.load();
  std::shared_ptr<ContentionTracker> replaced;
  if (const auto it = current->find(site); it != current->end()) {
    replaced = it->second;
  }
  auto next = std::make_shared<TrackerMap>(*current);
  (*next)[site] = tracker;
  RuntimeCounters::Tally replaced_folded;
  if (replaced != nullptr) {
    // Replacing unpublishes the old tracker: swap and fold its rows under
    // one retired_mutex_ hold (see the retired_ atomicity contract), or a
    // racing Stats() momentarily loses — or double-counts — the old
    // tracker's history.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    trackers_.Publish(TrackerMapSnapshot(std::move(next)));
    FoldTrackerLocked(*replaced, &replaced_folded);
  } else {
    trackers_.Publish(TrackerMapSnapshot(std::move(next)));
  }

  // Wire the partition of the site's most recently registered model —
  // deterministic, unlike iterating the catalog's (site, class) map, whose
  // last entry depends on class-id order rather than registration order.
  const auto newest = newest_class_.find(site);
  if (newest != newest_class_.end()) {
    const auto snapshot = catalog_.snapshot();
    if (const core::CostModel* model = snapshot->Find(site, newest->second)) {
      const core::ContentionStates states = model->states();
      tracker->SetStateMapper(
          [states](double cost) { return states.StateOf(cost); });
      tracker->SetStateBoundaries(states.boundaries());
    }
  }

  tracker->Start();

  // A replaced tracker may survive for a while through cache entries that
  // pin it (invalidation is lazy — each estimate thread retires its dead
  // entries on its next lookups), so stop its prober eagerly here rather
  // than waiting for the last pin to drop; the later release of an
  // already-stopped tracker is cheap. Its terminal counters fold into the
  // retired totals so Stats() never regresses across a re-registration.
  if (replaced != nullptr) {
    replaced->Stop();
    // In-flight probe completions between the fold and the join, as above.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    FoldTrackerLocked(*replaced, &replaced_folded);
  }
  cache_.InvalidateSite(site);
}

void EstimationService::RegisterSite(mdbs::MdbsAgent* agent) {
  RegisterSite(agent->name(), agent->ProbeFn());
}

void EstimationService::UnregisterSite(const std::string& site) {
  std::lock_guard<std::mutex> lock(control_mutex_);

  // Unpublish the tracker first: new estimates stop finding it immediately.
  // In-flight estimates hold the old map under an epoch guard — the map
  // snapshot (and any cache entry pins) keep the tracker object alive until
  // they drain, so nothing here frees memory a reader can still touch.
  std::shared_ptr<ContentionTracker> retired;
  RuntimeCounters::Tally folded;
  const TrackerMapSnapshot current = trackers_.load();
  if (const auto it = current->find(site); it != current->end()) {
    retired = it->second;
    auto next = std::make_shared<TrackerMap>(*current);
    next->erase(site);
    // Unpublish and fold under one retired_mutex_ hold (see the retired_
    // atomicity contract): a Stats() racing this block sees the tracker's
    // history either live in the map or already in the retired totals —
    // never in neither, never in both.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    trackers_.Publish(TrackerMapSnapshot(std::move(next)));
    FoldTrackerLocked(*retired, &folded);
  }

  // Drop every (site, class) model. The snapshot swap bumps the catalog
  // revision, so cached responses priced under the old catalog can never
  // revalidate — the eager InvalidateSite below just reclaims the slots
  // sooner.
  bool had_models = false;
  {
    const auto snapshot = catalog_.snapshot();
    for (const auto& [entry_site, class_id] : snapshot->Entries()) {
      if (entry_site == site) {
        had_models = true;
        break;
      }
    }
  }
  if (had_models) {
    catalog_.Update(
        [&site](core::GlobalCatalog& catalog) { catalog.Unregister(site); });
    counters_.Local().Add(RuntimeCounter::catalog_swaps);
  }

  // Clear the site's stale-model flags so the stale_models gauge cannot
  // leak retired keys (a racing SetModelStale for the site after this point
  // is rejected by its no-model guard).
  const StaleKeySnapshot stale = stale_keys_.load();
  bool any_stale = false;
  for (const auto& key : *stale) {
    if (key.first == site) {
      any_stale = true;
      break;
    }
  }
  if (any_stale) {
    auto next = std::make_shared<StaleKeySet>();
    for (const auto& key : *stale) {
      if (key.first != site) next->insert(key);
    }
    stale_keys_.Publish(StaleKeySnapshot(std::move(next)));
  }

  const bool had_class = newest_class_.erase(site) > 0;

  if (retired != nullptr) {
    // Stop() joins the background prober (and abandons a probe past its
    // deadline) — same blocking contract as the replace path above. Probes
    // that were still in flight at unpublication complete during the join;
    // fold whatever they added after the first fold.
    retired->Stop();
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    FoldTrackerLocked(*retired, &folded);
  }
  if (retired != nullptr || had_models || had_class) {
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    ++retired_[RuntimeCounter::sites_retired];
  }
  cache_.InvalidateSite(site);
}

bool EstimationService::ProbeNow(const std::string& site) {
  auto tracker = FindTracker(site);
  if (tracker == nullptr) return false;
  return tracker->ProbeOnce();
}

ProbeReading EstimationService::CurrentProbe(const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker == nullptr ? ProbeReading{} : tracker->Current();
}

bool EstimationService::IsSiteDegraded(const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker != nullptr && tracker->degraded();
}

CircuitBreaker::State EstimationService::SiteBreakerState(
    const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker == nullptr ? CircuitBreaker::State::kClosed
                            : tracker->breaker().state();
}

void EstimationService::SetModelStale(const std::string& site,
                                      core::QueryClassId class_id,
                                      bool stale) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  SetModelStaleLocked(site, class_id, stale);
}

void EstimationService::SetModelStaleLocked(const std::string& site,
                                            core::QueryClassId class_id,
                                            bool stale) {
  const auto key = std::make_pair(site, static_cast<int>(class_id));
  const StaleKeySnapshot current = stale_keys_.load();
  if ((current->count(key) > 0) == stale) return;
  // Only a registered model can be stale: without this guard a refresh
  // daemon racing UnregisterSite could re-flag a just-retired key and leak
  // it in the stale_models gauge forever.
  if (stale && catalog_.snapshot()->Find(site, class_id) == nullptr) return;
  auto next = std::make_shared<StaleKeySet>(*current);
  if (stale) {
    next->insert(key);
  } else {
    next->erase(key);
  }
  stale_keys_.Publish(StaleKeySnapshot(std::move(next)));
  // Cached responses embed the stale_model flag; a flip retires them.
  cache_.InvalidateSite(site);
}

bool EstimationService::IsModelStale(const std::string& site,
                                     core::QueryClassId class_id) const {
  return stale_keys_.load()->count(
             std::make_pair(site, static_cast<int>(class_id))) > 0;
}

void EstimationService::FoldTrackerLocked(const ContentionTracker& tracker,
                                          RuntimeCounters::Tally* folded) {
  const RuntimeCounters::Tally now = TrackerRows(tracker);
  for (size_t i = 0; i < kNumRuntimeCounters; ++i) {
    retired_.values[i] += now.values[i] - folded->values[i];
  }
  *folded = now;
}

std::shared_ptr<ContentionTracker> EstimationService::FindTracker(
    const std::string& site) const {
  const TrackerMapSnapshot map = trackers_.load();
  const auto it = map->find(site);
  return it == map->end() ? nullptr : it->second;
}

bool EstimationService::ResolveProbe(const EstimateRequest& request,
                                     const ProbeReading* cached_reading,
                                     EstimateResponse& response,
                                     RuntimeCounters::Tally& counts) const {
  if (request.probing_cost >= 0.0) {
    response.probing_cost = request.probing_cost;
    return true;
  }
  if (cached_reading == nullptr || !cached_reading->has_value) {
    ++counts[RuntimeCounter::probe_cache_misses];
    response.status = EstimateStatus::kNoProbe;
    return false;
  }
  response.probing_cost = cached_reading->probing_cost;
  response.stale_probe = cached_reading->stale;
  if (cached_reading->degraded) {
    response.degraded = true;
    ++counts[RuntimeCounter::degraded_served];
  }
  ++counts[cached_reading->stale ? RuntimeCounter::probe_cache_stale
                                 : RuntimeCounter::probe_cache_hits];
  return true;
}

EstimateResponse EstimationService::EstimateWithSnapshot(
    const core::GlobalCatalog& catalog, const StaleKeySet& stale_keys,
    const EstimateRequest& request, const ProbeReading* cached_reading,
    RuntimeCounters::Tally& counts) const {
  EstimateResponse response;
  ++counts[RuntimeCounter::requests];

  // Serving reads only the compiled per-state table — never the model's
  // derivation-side DesignLayout.
  const core::CompiledEquations* equations =
      catalog.FindCompiled(request.site, request.class_id);
  if (equations == nullptr) {
    ++counts[RuntimeCounter::no_model];
    response.status = EstimateStatus::kNoModel;
    return response;
  }
  if (!stale_keys.empty() &&
      stale_keys.count(std::make_pair(
          request.site, static_cast<int>(request.class_id))) > 0) {
    response.stale_model = true;
    ++counts[RuntimeCounter::stale_model_served];
  }
  if (!ResolveProbe(request, cached_reading, response, counts)) {
    return response;
  }

  // One width check per request, then state lookup + raw dot product.
  equations->CheckFeatureWidth(request.features);
  response.status = EstimateStatus::kOk;
  response.model_generation = equations->generation();
  response.state = equations->StateOf(response.probing_cost);
  response.estimate_seconds =
      equations->EvaluateInState(request.features.data(), response.state);
  return response;
}

void EstimationService::MaybeCacheResponse(
    const core::GlobalCatalog& catalog, const EstimateRequest& request,
    const EstimateResponse& response,
    const std::shared_ptr<ContentionTracker>& tracker,
    uint64_t state_version_before, const ProbeReading& reading) const {
  // Only responses priced from a *fresh, healthy* tracker reading are
  // cacheable: a stale, degraded, or explicit-probing-cost response is not a
  // function of the tracker's published state — and a degraded response must
  // stop being served the moment the half-open trial restores the site.
  if (!response.ok() || response.stale_probe || response.degraded) return;
  if (request.probing_cost >= 0.0) return;
  if (tracker == nullptr || !reading.has_value || reading.stale ||
      reading.degraded) {
    return;
  }
  const core::CompiledEquations* equations =
      catalog.FindCompiled(request.site, request.class_id);
  if (equations == nullptr || response.state < 0) return;

  EstimateCache::InsertContext context;
  RmwProbe::Count();  // tracker pin moving into the cache entry
  context.tracker = tracker;
  context.state_version = state_version_before;
  equations->StateInterval(response.state, &context.state_lo,
                           &context.state_hi);
  cache_.Insert(request.site, static_cast<int>(request.class_id),
                request.features, catalog.revision(), context, response);
}

EstimateResponse EstimationService::Estimate(
    const EstimateRequest& request) const {
  // Validate before anything shared is touched — a NaN feature vector must
  // never become an estimate-cache key or a served estimate.
  if (!RequestIsValid(request)) {
    counters_.Local().Add(RuntimeCounter::invalid_requests);
    EstimateResponse response;
    response.status = EstimateStatus::kInvalidRequest;
    return response;
  }

  // Cache hit path first: no clocks, no snapshot, no histogram, no epoch
  // guard — one hash, the calling thread's own cache shard, a handful of
  // validation loads and one per-thread counter store. Zero shared atomic
  // RMWs end to end (the shared_rmw_per_request bench gate).
  const bool try_cache = cache_.enabled() && request.probing_cost < 0.0;
  if (try_cache) {
    // Arm the clock when the *next hit* completes a sample window. Misses
    // while armed waste one clock read (they pay the full miss path anyway)
    // but never advance the window — only hits do, so the weighted sample
    // stands for exactly kHitLatencySamplePeriod real hits.
    //
    // The window is per (thread, service): a function-scope thread_local
    // outlives any one service, so without the identity tag a window
    // part-filled by hits on a previous service would complete early here
    // and record a full-period weighted sample into *this* histogram backed
    // by fewer than kHitLatencySamplePeriod of this service's hits —
    // breaking count(estimate_latency) <= requests. Switching services on a
    // thread forfeits the partial window (undercounts, never overcounts).
    struct HitSampleWindow {
      uint64_t service_id = 0;
      uint64_t hits_since_sample = 0;
    };
    thread_local HitSampleWindow window;
    if (window.service_id != instance_id_) {
      window.service_id = instance_id_;
      window.hits_since_sample = 0;
    }
    uint64_t& hits_since_sample = window.hits_since_sample;
    const bool armed = hits_since_sample + 1 == kHitLatencySamplePeriod;
    std::chrono::steady_clock::time_point hit_started;
    if (armed) hit_started = std::chrono::steady_clock::now();
    EstimateResponse response;
    if (cache_.Lookup(request.site, static_cast<int>(request.class_id),
                      request.features, catalog_.version(), &response)) {
      counters_.Local().Add(RuntimeCounter::estimate_cache_hits);
      if (armed) {
        estimate_latency_.RecordN(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - hit_started),
            kHitLatencySamplePeriod);
        hits_since_sample = 0;
      } else {
        ++hits_since_sample;
      }
      return response;
    }
  }

  const auto started = std::chrono::steady_clock::now();
  // Miss path: one epoch guard pins the catalog, tracker map and stale-key
  // set for the whole request — raw pointers, no refcount round-trips.
  EpochGuard guard;
  const core::GlobalCatalog* snapshot = catalog_.Read(guard);
  const StaleKeySet* stale_keys = stale_keys_.Read(guard);

  ProbeReading reading;
  const ProbeReading* cached = nullptr;
  std::shared_ptr<ContentionTracker> tracker;
  uint64_t state_version_before = 0;
  if (request.probing_cost < 0.0) {
    const TrackerMap* map = trackers_.Read(guard);
    if (const auto it = map->find(request.site); it != map->end()) {
      if (try_cache) {
        // Pin the tracker past the guard only when a cache insert may need
        // it (the entry holds the reference) — the refcount bump is a
        // shared RMW, paid on misses only.
        RmwProbe::Count();
        tracker = it->second;
      }
      // Version first, then the reading: if anything transitions in between,
      // the entry inserted below is born invalid rather than wrongly valid.
      state_version_before = it->second->state_version();
      reading = it->second->Current();
      cached = &reading;
    }
  }
  RuntimeCounters::Tally counts;
  EstimateResponse response =
      EstimateWithSnapshot(*snapshot, *stale_keys, request, cached, counts);
  if (try_cache) {
    ++counts[RuntimeCounter::estimate_cache_misses];
    MaybeCacheResponse(*snapshot, request, response, tracker,
                       state_version_before, reading);
  }
  // One flush into the calling thread's own shard: plain stores, no shared
  // atomic RMW (unless this thread landed on the overflow shard).
  counters_.Local().Add(counts);
  estimate_latency_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - started));
  return response;
}

std::vector<EstimateResponse> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests) const {
  const auto started = std::chrono::steady_clock::now();
  counters_.Local().Add(RuntimeCounter::batches);
  std::vector<EstimateResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // One snapshot and one probe fetch per distinct site for the whole batch:
  // the per-request work is then pure arithmetic over immutable data. The
  // tracker and its pre-reading state version ride along so computed
  // responses can be inserted into the estimate cache.
  //
  // The caller's epoch guard pins the raw snapshots for the whole batch,
  // workers included: ParallelFor blocks this thread until every chunk
  // completes, so no retired catalog can be reclaimed while a worker still
  // reads it (the workers' accesses happen-before the caller's unpin).
  struct SiteProbe {
    ProbeReading reading;
    std::shared_ptr<ContentionTracker> tracker;
    uint64_t state_version_before = 0;
  };
  EpochGuard guard;
  const core::GlobalCatalog* snapshot = catalog_.Read(guard);
  const StaleKeySet* stale_keys = stale_keys_.Read(guard);
  const TrackerMap* tracker_map = trackers_.Read(guard);
  const bool use_cache = cache_.enabled();
  const uint64_t epoch = snapshot->revision();
  // Invalid items are rejected without being priced; the amortized-latency
  // record below must not count them (the soak's conservation checker
  // flags count(estimate_latency) > requests). Cold once-per-chunk RMW.
  std::atomic<uint64_t> invalid_total{0};
  std::map<std::string, SiteProbe> site_probes;
  for (const EstimateRequest& request : requests) {
    if (request.probing_cost >= 0.0) continue;
    if (site_probes.count(request.site) > 0) continue;
    SiteProbe probe;
    if (const auto it = tracker_map->find(request.site);
        it != tracker_map->end()) {
      RmwProbe::Count();  // tracker pin: once per distinct site per batch
      probe.tracker = it->second;
      probe.state_version_before = probe.tracker->state_version();
      probe.reading = probe.tracker->Current();
    }
    site_probes.emplace(request.site, std::move(probe));
  }

  pool_.ParallelFor(
      requests.size(), config_.batch_grain, [&](size_t begin, size_t end) {
        // Batches concentrate on few (site, class) pairs; memoize per pair
        // everything that is batch-invariant. With a cached probe the
        // contention state — and therefore the active compiled equation row
        // — is fixed for the whole batch: the scan pass resolves each
        // pair's state once and collects its requests into a group, and a
        // flush pass gathers every group's selected features into
        // contiguous rows and streams them through
        // CompiledEquations::EvaluateRowsInState — one pinned coefficient
        // row, unit-stride loads, bit-exact with the scalar path.
        // Counters are flushed once per chunk instead of once per request.
        struct MemoEntry {
          const std::string* site;
          core::QueryClassId class_id;
          const core::CompiledEquations* equations;  // serving form
          const ProbeReading* probe = nullptr;       // site's batch reading
          // Grouped evaluation, valid when `fast`: requests indexed by
          // `group` all evaluate state `state`'s row.
          bool fast = false;
          int state = -1;
          bool stale = false;
          bool degraded = false;     // site breaker not closed
          bool stale_model = false;  // key flagged by the refresh daemon
          double probing_cost = 0.0;
          std::vector<size_t> group;  // request indices awaiting the flush
        };
        std::vector<MemoEntry> memo;
        memo.reserve(8);
        RuntimeCounters::Tally counts;
        const auto cache_insert = [&](const EstimateRequest& request,
                                      const EstimateResponse& response) {
          if (!use_cache || request.probing_cost >= 0.0) return;
          const auto it = site_probes.find(request.site);
          if (it == site_probes.end()) return;
          MaybeCacheResponse(*snapshot, request, response, it->second.tracker,
                             it->second.state_version_before,
                             it->second.reading);
        };
        for (size_t i = begin; i < end; ++i) {
          const EstimateRequest& request = requests[i];
          if (!RequestIsValid(request)) {
            ++counts[RuntimeCounter::invalid_requests];
            responses[i].status = EstimateStatus::kInvalidRequest;
            continue;
          }
          if (use_cache && request.probing_cost < 0.0) {
            if (cache_.Lookup(request.site,
                              static_cast<int>(request.class_id),
                              request.features, epoch, &responses[i])) {
              ++counts[RuntimeCounter::estimate_cache_hits];
              continue;
            }
            ++counts[RuntimeCounter::estimate_cache_misses];
          }
          size_t entry_index = memo.size();
          for (size_t m = 0; m < memo.size(); ++m) {
            if (memo[m].class_id == request.class_id &&
                *memo[m].site == request.site) {
              entry_index = m;
              break;
            }
          }
          if (entry_index == memo.size()) {
            MemoEntry fresh;
            fresh.site = &request.site;
            fresh.class_id = request.class_id;
            fresh.equations =
                snapshot->FindCompiled(request.site, request.class_id);
            if (fresh.equations != nullptr && !stale_keys->empty()) {
              fresh.stale_model =
                  stale_keys->count(std::make_pair(
                      request.site, static_cast<int>(request.class_id))) > 0;
            }
            const auto it = site_probes.find(request.site);
            if (it != site_probes.end()) fresh.probe = &it->second.reading;
            if (fresh.equations != nullptr && fresh.probe != nullptr &&
                fresh.probe->has_value) {
              fresh.fast = true;
              fresh.probing_cost = fresh.probe->probing_cost;
              fresh.stale = fresh.probe->stale;
              fresh.degraded = fresh.probe->degraded;
              fresh.state = fresh.equations->StateOf(fresh.probing_cost);
            }
            memo.push_back(std::move(fresh));
          }

          MemoEntry& entry = memo[entry_index];
          EstimateResponse& response = responses[i];
          ++counts[RuntimeCounter::requests];
          if (entry.fast && request.probing_cost < 0.0) {
            // Width-check now (same abort point as the scalar path), defer
            // the arithmetic to the grouped flush below.
            entry.equations->CheckFeatureWidth(request.features);
            entry.group.push_back(i);
            continue;
          }
          if (entry.equations == nullptr) {
            ++counts[RuntimeCounter::no_model];
            response.status = EstimateStatus::kNoModel;
            continue;
          }
          if (entry.stale_model) {
            response.stale_model = true;
            ++counts[RuntimeCounter::stale_model_served];
          }
          const ProbeReading* cached =
              request.probing_cost < 0.0 ? entry.probe : nullptr;
          if (!ResolveProbe(request, cached, response, counts)) continue;
          entry.equations->CheckFeatureWidth(request.features);
          response.status = EstimateStatus::kOk;
          response.model_generation = entry.equations->generation();
          response.state = entry.equations->StateOf(response.probing_cost);
          response.estimate_seconds = entry.equations->EvaluateInState(
              request.features.data(), response.state);
          cache_insert(request, response);
        }

        // Grouped flush: per (site, class) group, gather the selected
        // features into packed rows and evaluate the whole group against
        // its one resolved state row. Scratch is reused across groups.
        std::vector<double> packed;
        std::vector<double> estimates;
        for (MemoEntry& entry : memo) {
          if (entry.group.empty()) continue;
          const size_t k = entry.equations->num_selected();
          packed.resize(entry.group.size() * k);
          estimates.resize(entry.group.size());
          for (size_t g = 0; g < entry.group.size(); ++g) {
            entry.equations->GatherSelected(
                requests[entry.group[g]].features.data(),
                packed.data() + g * k);
          }
          entry.equations->EvaluateRowsInState(
              entry.state, packed.data(), entry.group.size(),
              estimates.data());
          for (size_t g = 0; g < entry.group.size(); ++g) {
            const size_t i = entry.group[g];
            EstimateResponse& response = responses[i];
            response.status = EstimateStatus::kOk;
            response.model_generation = entry.equations->generation();
            response.probing_cost = entry.probing_cost;
            response.stale_probe = entry.stale;
            response.state = entry.state;
            response.estimate_seconds = estimates[g];
            if (entry.degraded) {
              response.degraded = true;
              ++counts[RuntimeCounter::degraded_served];
            }
            if (entry.stale_model) {
              response.stale_model = true;
              ++counts[RuntimeCounter::stale_model_served];
            }
            ++counts[entry.stale ? RuntimeCounter::probe_cache_stale
                                 : RuntimeCounter::probe_cache_hits];
            cache_insert(requests[i], response);
          }
        }
        const uint64_t invalid = counts[RuntimeCounter::invalid_requests];
        if (invalid > 0) {
          RmwProbe::Count();
          invalid_total.fetch_add(invalid, std::memory_order_relaxed);
        }
        counters_.Local().Add(counts);
      });

  // Amortized per-item latency: the batch's wall time spread over the items
  // actually priced (invalid rejects recorded no work).
  const uint64_t priced =
      requests.size() - invalid_total.load(std::memory_order_relaxed);
  if (priced > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - started);
    estimate_latency_.RecordN(elapsed / static_cast<int64_t>(priced), priced);
  }
  return responses;
}

PlacementResult EstimationService::ChoosePlacement(
    const std::vector<PlacementCandidate>& candidates) const {
  return ChoosePlacement(candidates, PlacementOptions{});
}

PlacementResult EstimationService::ChoosePlacement(
    const std::vector<PlacementCandidate>& candidates,
    const PlacementOptions& options) const {
  PlacementResult result;
  result.policy = options.ranking.policy;
  std::vector<EstimateRequest> requests;
  requests.reserve(candidates.size());
  for (const PlacementCandidate& c : candidates) requests.push_back(c.request);
  result.responses = EstimateBatch(requests);

  result.total_seconds.resize(candidates.size(),
                              std::numeric_limits<double>::infinity());
  result.scores.resize(candidates.size(),
                       std::numeric_limits<double>::infinity());
  result.distributions.resize(candidates.size());

  // One epoch guard pins the catalog for the distribution pass. The snapshot
  // may be newer than the one EstimateBatch priced under (a registration can
  // land in between); the width check below keeps a re-registered model from
  // reading past a shorter feature vector, and the distribution then simply
  // reflects the newer model — same freshness contract as two back-to-back
  // estimates.
  EpochGuard guard;
  const core::GlobalCatalog* snapshot = catalog_.Read(guard);

  double best_score = std::numeric_limits<double>::infinity();
  double best_point = std::numeric_limits<double>::infinity();
  int point_chosen = -1;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const EstimateResponse& response = result.responses[i];
    if (!response.ok()) continue;
    const double total =
        response.estimate_seconds + candidates[i].shipping_seconds;
    result.total_seconds[i] = total;

    core::CostDistribution distribution;
    const core::CompiledEquations* equations = snapshot->FindCompiled(
        candidates[i].request.site, candidates[i].request.class_id);
    if (equations != nullptr &&
        candidates[i].request.features.size() >= equations->min_features()) {
      distribution = equations->EvaluateDistribution(
          candidates[i].request.features, response.probing_cost,
          options.ranking.boundary_band_fraction);
    } else {
      // Model vanished between the batch and this pass: degenerate to the
      // point estimate (zero width) rather than dropping the candidate.
      distribution.mean = response.estimate_seconds;
      distribution.low = response.estimate_seconds;
      distribution.high = response.estimate_seconds;
    }
    distribution.stale = response.stale_probe || response.stale_model;
    distribution.degraded = response.degraded;
    result.distributions[i] = distribution;

    const double score =
        core::PlacementScore(options.ranking, distribution,
                             response.estimate_seconds,
                             candidates[i].shipping_seconds);
    result.scores[i] = score;
    // Strict < keeps the lowest-index winner on ties (deterministic).
    if (std::isfinite(score) && score < best_score) {
      best_score = score;
      result.chosen = static_cast<int>(i);
    }
    if (total < best_point) {
      best_point = total;
      point_chosen = static_cast<int>(i);
    }
  }

  auto& shard = counters_.Local();
  shard.Add(RuntimeCounter::placements);
  // The payoff counter: a distribution-aware policy actually overrode the
  // point-estimate argmin for this decision.
  if (options.ranking.policy != core::PlacementPolicy::kPointEstimate &&
      result.chosen >= 0 && result.chosen != point_chosen) {
    shard.Add(RuntimeCounter::placement_expected_cost_wins);
  }
  return result;
}

RuntimeStatsSnapshot EstimationService::Stats() const {
  RuntimeStatsSnapshot out;
  RuntimeCounters::Tally rows = counters_.Sum();
  // Hold retired_mutex_ across BOTH the live-tracker sweep and the retired
  // fold: unpublication and fold happen under one hold of the same mutex
  // (the retired_ atomicity contract), so each tracker's history lands in
  // exactly one of the two sums.
  std::lock_guard<std::mutex> retired_lock(retired_mutex_);
  rows += retired_;
  const TrackerMapSnapshot map = trackers_.load();
  for (const auto& [site, tracker] : *map) {
    rows += TrackerRows(*tracker);
    if (tracker->degraded()) ++rows[RuntimeCounter::degraded_sites];
    // Gauge: sites whose published probe sits inside the soft-membership
    // band of a state boundary — where point estimates are least reliable
    // and distribution-aware placement earns its keep.
    double distance = 0.0;
    double boundary = 0.0;
    if (tracker->BoundaryDistance(&distance, &boundary) &&
        distance < config_.boundary_band_fraction * std::abs(boundary)) {
      ++rows[RuntimeCounter::near_boundary_sites];
    }
    // Gauge: the slowest current per-site cadence (every site probes at
    // least this often; adaptive trackers may be probing faster).
    out.probe_interval_ns =
        std::max(out.probe_interval_ns,
                 static_cast<int64_t>(tracker->current_probe_interval().count()));
  }
  rows[RuntimeCounter::stale_models] = stale_keys_.load()->size();
  rows[RuntimeCounter::estimate_cache_invalidations] = cache_.invalidations();
  out.AddRows(rows);
  out.estimate_latency = estimate_latency_.Snap();
  out.probe_latency = probe_latency_.Snap();
  return out;
}

}  // namespace mscm::runtime
