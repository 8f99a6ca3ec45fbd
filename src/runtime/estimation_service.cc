#include "runtime/estimation_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

// One probe reading per distinct site of a pricing pass. `tracker` points
// into the tracker map the pass's EpochGuard pins (null for an unknown
// site); `state_version_before` was loaded before `reading` was taken.
struct SiteProbe {
  const std::string* site = nullptr;
  const std::shared_ptr<ContentionTracker>* tracker = nullptr;
  uint64_t state_version_before = 0;
  ProbeReading reading;
};

const SiteProbe* FindProbe(std::span<const SiteProbe> probes,
                           const std::string& site) {
  for (const SiteProbe& probe : probes) {
    if (probe.site == &site || *probe.site == site) return &probe;
  }
  return nullptr;
}

// A chunk's record for one (site, class, state): the resolved model, stale
// flag and site probe, and the chunk items that evaluate the state's row,
// linked in item order through PassScratch::next.
struct Group {
  const std::string* site = nullptr;
  core::QueryClassId class_id{};
  const core::CompiledEquations* equations = nullptr;  // null: no model
  const SiteProbe* probe = nullptr;  // null: the site has no probe reading
  bool stale_model = false;
  int state = -1;
  uint32_t size = 0;
  uint32_t head = 0;
  uint32_t tail = 0;
};

// The pricing pass's per-thread buffers, reused call to call so a warm
// thread prices without heap allocation. A pass never re-enters itself on
// one thread. `probes` belongs to the thread that starts a pass; pool
// workers pricing its chunks read that thread's list and write only their
// own chunk buffers.
struct PassScratch {
  std::vector<SiteProbe> probes;
  std::vector<Group> groups;
  std::vector<uint32_t> next;  // chunk item -> next member of its group
  std::vector<double> packed;
  std::vector<double> estimates;
};
thread_local PassScratch t_scratch;

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

// One pricing pass's inputs, shared read-only by every chunk: the requests
// and their response slots, the snapshots the caller's EpochGuard pins, and
// the pass's site probes.
struct EstimationService::Pass {
  const EstimateRequest* requests;
  EstimateResponse* responses;
  const core::CompiledEquations** models;
  const core::GlobalCatalog* catalog;
  const StaleKeySet* stale_keys;
  std::span<const SiteProbe> probes;
  bool batch;
  bool use_cache;
};

void EstimationService::Price(const EpochGuard& guard,
                              const EstimateRequest* requests, size_t n,
                              EstimateResponse* responses,
                              const core::CompiledEquations** models,
                              bool batch) const {
  const auto started = std::chrono::steady_clock::now();
  if (batch) counters_.Local().Add(RuntimeCounter::batches);

  // One probe reading per distinct site for the whole call, taken before
  // any chunk runs: pool workers read this thread's list, never write it.
  std::vector<SiteProbe>& probes = t_scratch.probes;
  probes.clear();
  const TrackerMap* trackers = trackers_.Read(guard);
  for (size_t i = 0; i < n; ++i) {
    const std::string& site = requests[i].site;
    if (requests[i].probing_cost >= 0.0 || FindProbe(probes, site) != nullptr) {
      continue;
    }
    SiteProbe& probe = probes.emplace_back();
    probe.site = &site;
    if (const auto it = trackers->find(site); it != trackers->end()) {
      // Version first, then the reading: if anything transitions in
      // between, an entry cached from this reading is born invalid rather
      // than wrongly valid.
      probe.tracker = &it->second;
      probe.state_version_before = it->second->state_version();
      probe.reading = it->second->Current();
    }
  }

  // The caller's pin covers the workers too: ParallelFor blocks this thread
  // until every chunk completes, so no snapshot they read can be reclaimed
  // under them.
  const Pass pass{requests, responses, models, catalog_.Read(guard),
                  stale_keys_.Read(guard), probes, batch, cache_.enabled()};
  const auto price = [this, &pass](size_t begin, size_t end) {
    PriceChunk(pass, begin, end);
  };
  // A pass that fits one chunk skips the pool's std::function round trip.
  if (n <= config_.batch_grain) {
    price(0, n);
  } else {
    pool_.ParallelFor(n, config_.batch_grain, price);
  }

  // The call's wall time spread over the items it priced: a rejected
  // request did no work (the soak's conservation check flags
  // count(estimate_latency) > requests).
  const auto priced = static_cast<uint64_t>(
      std::count_if(responses, responses + n, [](const EstimateResponse& r) {
        return r.status != EstimateStatus::kInvalidRequest;
      }));
  if (priced > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - started);
    // A single estimate skips the 64-bit division, which sits on its path.
    estimate_latency_.RecordN(
        priced == 1 ? elapsed : elapsed / static_cast<int64_t>(priced), priced);
  }
}

void EstimationService::PriceChunk(const Pass& pass, size_t begin,
                                   size_t end) const {
  PassScratch& scratch = t_scratch;
  std::vector<Group>& groups = scratch.groups;
  std::vector<uint32_t>& next = scratch.next;
  std::vector<double>& estimates = scratch.estimates;
  groups.clear();
  if (next.size() < end - begin) {
    next.resize(end - begin);
    estimates.resize(end - begin);
  }
  const uint64_t revision = pass.catalog->revision();
  // Counted straight into the calling thread's own shard: plain stores, no
  // shared atomic RMW (unless this thread landed on the overflow shard).
  RuntimeCounters::Shard& counts = counters_.Local();

  // Scan: validate, consult the cache, resolve model, probe and state, and
  // file each priceable item under its (site, class, state) group.
  for (size_t i = begin; i < end; ++i) {
    const EstimateRequest& request = pass.requests[i];
    EstimateResponse& response = pass.responses[i];
    // A non-finite value must never become an estimate-cache key or a
    // served estimate.
    if (!RequestIsValid(request)) {
      counts.Add(RuntimeCounter::invalid_requests);
      response.status = EstimateStatus::kInvalidRequest;
      continue;
    }
    bool hit = false;
    if (pass.use_cache && request.probing_cost < 0.0) {
      hit = pass.batch &&
            cache_.Lookup(request.site, static_cast<int>(request.class_id),
                          request.features, revision, &response);
      counts.Add(hit ? RuntimeCounter::estimate_cache_hits
                     : RuntimeCounter::estimate_cache_misses);
    }
    if (hit && pass.models == nullptr) continue;

    // The chunk's first record for the (site, class): its model, stale flag
    // and site probe, resolved once per chunk. Its state is the cached
    // probe's (-1 without one); an explicit probing cost that selects
    // another state gets a record of its own below.
    size_t g = 0;
    while (g < groups.size() && !(groups[g].class_id == request.class_id &&
                                  *groups[g].site == request.site)) {
      ++g;
    }
    if (g == groups.size()) {
      Group& group = groups.emplace_back();
      group.site = &request.site;
      group.class_id = request.class_id;
      // Serving reads only the compiled per-state table — never the model's
      // derivation-side DesignLayout.
      group.equations =
          pass.catalog->FindCompiled(request.site, request.class_id);
      group.stale_model =
          group.equations != nullptr && !pass.stale_keys->empty() &&
          pass.stale_keys->count(std::make_pair(
              request.site, static_cast<int>(request.class_id))) > 0;
      group.probe = FindProbe(pass.probes, request.site);
      if (group.equations != nullptr && group.probe != nullptr &&
          group.probe->reading.has_value) {
        group.state =
            group.equations->StateOf(group.probe->reading.probing_cost);
      }
    }
    const core::CompiledEquations* equations = groups[g].equations;
    // A placement ranks a cached answer by its model too.
    if (pass.models != nullptr) pass.models[i] = equations;
    if (hit) continue;
    counts.Add(RuntimeCounter::requests);
    if (equations == nullptr) {
      counts.Add(RuntimeCounter::no_model);
      response.status = EstimateStatus::kNoModel;
      continue;
    }
    // The one width check: a vector shorter than the model's selected
    // variables is answered, never read past its end.
    if (request.features.size() < equations->min_features()) {
      counts.Add(RuntimeCounter::invalid_requests);
      response.status = EstimateStatus::kInvalidRequest;
      continue;
    }
    if (groups[g].stale_model) {
      response.stale_model = true;
      counts.Add(RuntimeCounter::stale_model_served);
    }
    int state = groups[g].state;
    if (request.probing_cost >= 0.0) {
      response.probing_cost = request.probing_cost;
      state = equations->StateOf(request.probing_cost);
    } else {
      const SiteProbe* probe = groups[g].probe;
      if (probe == nullptr || !probe->reading.has_value) {
        counts.Add(RuntimeCounter::probe_cache_misses);
        response.status = EstimateStatus::kNoProbe;
        continue;
      }
      response.probing_cost = probe->reading.probing_cost;
      response.stale_probe = probe->reading.stale;
      if (probe->reading.degraded) {
        response.degraded = true;
        counts.Add(RuntimeCounter::degraded_served);
      }
      counts.Add(probe->reading.stale ? RuntimeCounter::probe_cache_stale
                                      : RuntimeCounter::probe_cache_hits);
    }
    if (groups[g].state != state) {
      size_t s = g + 1;
      while (s < groups.size() &&
             !(groups[s].state == state &&
               groups[s].class_id == request.class_id &&
               *groups[s].site == request.site)) {
        ++s;
      }
      if (s == groups.size()) {
        Group record = groups[g];  // by value: push_back may reallocate
        record.state = state;
        record.size = 0;
        groups.push_back(record);
      }
      g = s;
    }
    Group& group = groups[g];
    const auto m = static_cast<uint32_t>(i - begin);
    if (group.size++ == 0) {
      group.head = m;
    } else {
      next[group.tail] = m;
    }
    group.tail = m;
  }

  // Flush: per group, gather the members' selected features into packed
  // rows, evaluate them against the group's one state row (bit-exact with
  // evaluating each row alone) and fill every priced response here.
  const EstimateRequest* requests = pass.requests + begin;
  EstimateResponse* responses = pass.responses + begin;
  std::vector<double>& packed = scratch.packed;
  for (const Group& group : groups) {
    if (group.size == 0) continue;
    const core::CompiledEquations& equations = *group.equations;
    const size_t k = equations.num_selected();
    if (packed.size() < group.size * k) packed.resize(group.size * k);
    for (uint32_t r = 0, m = group.head; r < group.size; ++r, m = next[m]) {
      equations.GatherSelected(requests[m].features.data(),
                               packed.data() + r * k);
    }
    equations.EvaluateRowsInState(group.state, packed.data(), group.size,
                                  estimates.data());
    for (uint32_t r = 0, m = group.head; r < group.size; ++r, m = next[m]) {
      EstimateResponse& response = responses[m];
      response.status = EstimateStatus::kOk;
      response.model_generation = equations.generation();
      response.state = group.state;
      response.estimate_seconds = estimates[r];
    }

    // Cache what was priced from a fresh, healthy tracker reading. A stale,
    // degraded or explicit-probing-cost response is not a function of the
    // tracker's published state — and a degraded one must stop being
    // served the moment the half-open trial restores the site.
    const SiteProbe* probe = group.probe;
    if (!pass.use_cache || probe == nullptr || probe->tracker == nullptr ||
        !probe->reading.has_value || probe->reading.stale ||
        probe->reading.degraded) {
      continue;
    }
    EstimateCache::InsertContext context;
    for (uint32_t r = 0, m = group.head; r < group.size; ++r, m = next[m]) {
      const EstimateRequest& request = requests[m];
      if (request.probing_cost >= 0.0) continue;
      if (context.tracker == nullptr) {
        RmwProbe::Count();  // tracker pin moving into the insert context
        context.tracker = *probe->tracker;
        context.state_version = probe->state_version_before;
        equations.StateInterval(group.state, &context.state_lo,
                                &context.state_hi);
      }
      cache_.Insert(request.site, static_cast<int>(request.class_id),
                    request.features, revision, context, responses[m]);
    }
  }
}

EstimateResponse EstimationService::Estimate(
    const EstimateRequest& request) const {
  // Cache hit path first: no clocks, no snapshot, no histogram, no epoch
  // guard — one validation, one hash, the calling thread's own cache shard,
  // a handful of validation loads and one per-thread counter store. Zero
  // shared atomic RMWs end to end (the shared_rmw_per_request bench gate).
  // A request that fails validation never becomes a cache key; the pass
  // below answers it.
  const bool try_cache = cache_.enabled() && request.probing_cost < 0.0;
  if (try_cache && RequestIsValid(request)) {
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

  // Miss path: a pass over one request — a group of one.
  EstimateResponse response;
  EpochGuard guard;
  Price(guard, &request, 1, &response, nullptr, /*batch=*/false);
  return response;
}

std::vector<EstimateResponse> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests) const {
  std::vector<EstimateResponse> responses(requests.size());
  EpochGuard guard;
  Price(guard, requests.data(), requests.size(), responses.data(), nullptr,
        /*batch=*/true);
  return responses;
}

PlacementResult EstimationService::ChoosePlacement(
    const std::vector<PlacementCandidate>& candidates,
    const PlacementOptions& options) const {
  const size_t n = candidates.size();
  PlacementResult result;
  result.policy = options.ranking.policy;
  result.responses.resize(n);
  result.total_seconds.assign(n, std::numeric_limits<double>::infinity());
  result.scores.assign(n, std::numeric_limits<double>::infinity());
  result.distributions.resize(n);
  std::vector<EstimateRequest> requests;
  requests.reserve(n);
  for (const PlacementCandidate& c : candidates) requests.push_back(c.request);

  // One pin for pricing and ranking: each candidate's distribution comes
  // from the very model that priced its estimate.
  std::vector<const core::CompiledEquations*> models(n, nullptr);
  EpochGuard guard;
  Price(guard, requests.data(), n, result.responses.data(), models.data(),
        /*batch=*/true);

  double best_score = std::numeric_limits<double>::infinity();
  double best_point = std::numeric_limits<double>::infinity();
  int point_chosen = -1;
  for (size_t i = 0; i < n; ++i) {
    const EstimateResponse& response = result.responses[i];
    if (!response.ok()) continue;
    const double total =
        response.estimate_seconds + candidates[i].shipping_seconds;
    result.total_seconds[i] = total;

    core::CostDistribution distribution = models[i]->EvaluateDistribution(
        candidates[i].request.features, response.probing_cost,
        options.ranking.boundary_band_fraction);
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
