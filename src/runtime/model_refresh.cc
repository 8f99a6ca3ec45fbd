#include "runtime/model_refresh.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace mscm::runtime {

const char* ToString(RefreshState s) {
  switch (s) {
    case RefreshState::kFresh:
      return "fresh";
    case RefreshState::kDrifting:
      return "drifting";
    case RefreshState::kRefreshing:
      return "refreshing";
    case RefreshState::kBackedOff:
      return "backed-off";
  }
  return "?";
}

std::string ModelRefreshStats::ToString() const {
  return Format(
      "reports=%llu ignored=%llu trips{error=%llu drift=%llu} "
      "refreshes{scheduled=%llu ok=%llu failed=%llu suspended=%llu "
      "threw=%llu abandoned=%llu}",
      static_cast<unsigned long long>(reports),
      static_cast<unsigned long long>(ignored_reports),
      static_cast<unsigned long long>(error_trips),
      static_cast<unsigned long long>(drift_trips),
      static_cast<unsigned long long>(refreshes_scheduled),
      static_cast<unsigned long long>(refreshes_succeeded),
      static_cast<unsigned long long>(refresh_failures),
      static_cast<unsigned long long>(refreshes_suspended),
      static_cast<unsigned long long>(refresh_exceptions),
      static_cast<unsigned long long>(refreshes_abandoned));
}

ModelRefreshDaemon::ModelRefreshDaemon(EstimationService* service,
                                       ModelRefreshConfig config)
    : service_(service),
      config_(config),
      keys_(std::make_shared<const KeyMap>()),
      pool_(config.worker_threads) {}

ModelRefreshDaemon::~ModelRefreshDaemon() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ModelRefreshDaemon::Watch(const std::string& site,
                               core::QueryClassId class_id,
                               core::ObservationSource* source) {
  auto entry = std::make_shared<KeyEntry>();
  entry->site = site;
  entry->class_id = class_id;
  entry->source = source;

  std::lock_guard<std::mutex> lock(keys_mutex_);
  auto next = std::make_shared<KeyMap>(*keys_.load());
  (*next)[{site, static_cast<int>(class_id)}] = std::move(entry);
  keys_.store(std::move(next));
}

void ModelRefreshDaemon::Unwatch(const std::string& site,
                                 core::QueryClassId class_id) {
  std::shared_ptr<KeyEntry> removed;
  {
    std::lock_guard<std::mutex> lock(keys_mutex_);
    auto next = std::make_shared<KeyMap>(*keys_.load());
    const auto it = next->find({site, static_cast<int>(class_id)});
    if (it == next->end()) return;
    removed = it->second;
    next->erase(it);
    keys_.store(std::move(next));
  }
  {
    std::lock_guard<std::mutex> lock(removed->mutex);
    removed->retired = true;
  }
  // A tripped-but-unpublished key would otherwise carry its stale flag
  // forever: nothing will refresh it now. An in-flight refresh abandoning
  // later re-clears as well (it may have re-set the flag while racing us).
  service_->SetModelStale(site, class_id, false);
}

void ModelRefreshDaemon::UnwatchSite(const std::string& site) {
  std::vector<std::shared_ptr<KeyEntry>> removed;
  {
    std::lock_guard<std::mutex> lock(keys_mutex_);
    auto next = std::make_shared<KeyMap>(*keys_.load());
    for (auto it = next->begin(); it != next->end();) {
      if (it->first.first == site) {
        removed.push_back(it->second);
        it = next->erase(it);
      } else {
        ++it;
      }
    }
    if (removed.empty()) return;
    keys_.store(std::move(next));
  }
  for (const auto& entry : removed) {
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->retired = true;
    }
    service_->SetModelStale(entry->site, entry->class_id, false);
  }
}

std::shared_ptr<ModelRefreshDaemon::KeyEntry> ModelRefreshDaemon::FindEntry(
    const std::string& site, core::QueryClassId class_id) const {
  const KeyMapSnapshot keys = keys_.load();
  const auto it = keys->find({site, static_cast<int>(class_id)});
  return it == keys->end() ? nullptr : it->second;
}

double ModelRefreshDaemon::DriftDistance(const KeyEntry& entry) {
  if (entry.baseline_total == 0 || entry.recent_states.empty()) return 0.0;
  const size_t states =
      std::max(entry.baseline_hist.size(), entry.recent_hist.size());
  const double recent_total = static_cast<double>(entry.recent_states.size());
  const double baseline_total = static_cast<double>(entry.baseline_total);
  double l1 = 0.0;
  for (size_t s = 0; s < states; ++s) {
    const double p = s < entry.baseline_hist.size()
                         ? static_cast<double>(entry.baseline_hist[s]) /
                               baseline_total
                         : 0.0;
    const double q = s < entry.recent_hist.size()
                         ? static_cast<double>(entry.recent_hist[s]) /
                               recent_total
                         : 0.0;
    l1 += std::abs(p - q);
  }
  return l1 / 2.0;  // total variation: 0 = identical, 1 = disjoint
}

void ModelRefreshDaemon::ResetSignals(KeyEntry& entry) {
  entry.reports = 0;
  entry.ewma_rel_error = 0.0;
  entry.ewma_primed = false;
  entry.baseline_hist.clear();
  entry.baseline_total = 0;
  entry.recent_states.clear();
  entry.recent_hist.clear();
  // recent_obs is kept: feedback priced under the old model is still a real
  // (features, cost, probe) sample of the environment, useful as warm-start
  // material for the *next* refresh.
}

bool ModelRefreshDaemon::UpdateSignalsAndMaybeTrip(KeyEntry& entry,
                                                   double estimated,
                                                   double observed,
                                                   int state) {
  ++entry.reports;

  const double rel_error =
      std::abs(estimated - observed) / std::max(observed, 1e-9);
  if (!entry.ewma_primed) {
    entry.ewma_rel_error = rel_error;
    entry.ewma_primed = true;
  } else {
    entry.ewma_rel_error = config_.ewma_alpha * rel_error +
                           (1.0 - config_.ewma_alpha) * entry.ewma_rel_error;
  }

  if (state >= 0) {
    const size_t s = static_cast<size_t>(state);
    if (entry.baseline_total < config_.min_reports) {
      // The first min_reports states after a publication define "normal".
      if (s >= entry.baseline_hist.size()) entry.baseline_hist.resize(s + 1);
      ++entry.baseline_hist[s];
      ++entry.baseline_total;
    } else {
      if (s >= entry.recent_hist.size()) entry.recent_hist.resize(s + 1);
      ++entry.recent_hist[s];
      entry.recent_states.push_back(state);
      while (entry.recent_states.size() > config_.drift_window) {
        --entry.recent_hist[static_cast<size_t>(entry.recent_states.front())];
        entry.recent_states.pop_front();
      }
    }
  }

  if (entry.reports < config_.min_reports || entry.in_flight) return false;
  if (config_.clock->Now() < entry.next_attempt_at) return false;

  bool trip = false;
  if (entry.ewma_rel_error > config_.error_threshold) {
    error_trips_.fetch_add(1, std::memory_order_relaxed);
    trip = true;
  } else if (entry.recent_states.size() >=
                 std::min(config_.min_reports, config_.drift_window) &&
             DriftDistance(entry) > config_.drift_threshold) {
    drift_trips_.fetch_add(1, std::memory_order_relaxed);
    trip = true;
  }
  if (trip) {
    // A degraded site is already failing its probes; sampling queries for a
    // re-derivation would fail the same way (and pile load on a sick site).
    // Hold the refresh — signals were updated above and are not reset, so
    // the first report after the breaker closes re-trips immediately.
    if (service_->IsSiteDegraded(entry.site)) {
      refreshes_suspended_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    entry.state = RefreshState::kDrifting;
    entry.in_flight = true;  // per-key guard: one refresh at a time
  }
  return trip;
}

void ModelRefreshDaemon::ReportObserved(const std::string& site,
                                        core::QueryClassId class_id,
                                        const std::vector<double>& features,
                                        double observed_cost) {
  const std::shared_ptr<KeyEntry> entry = FindEntry(site, class_id);
  if (entry == nullptr || observed_cost <= 0.0) {
    ignored_reports_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Price the same request through the serving path: yields the current
  // model's estimate, the probe value used, and the contention state —
  // everything the signals need, at estimate cost (no probing query).
  EstimateRequest request;
  request.site = site;
  request.class_id = class_id;
  request.features = features;
  const EstimateResponse response = service_->Estimate(request);
  if (!response.ok()) {
    ignored_reports_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  reports_.fetch_add(1, std::memory_order_relaxed);

  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    // A racing Unwatch may have retired the entry after FindEntry loaded
    // the old key map; a retired key accepts nothing.
    if (entry->retired) {
      ignored_reports_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    core::Observation obs;
    obs.features = features;
    obs.cost = observed_cost;
    obs.probing_cost = response.probing_cost;
    entry->recent_obs.push_back(std::move(obs));
    while (entry->recent_obs.size() > config_.max_recent_observations) {
      entry->recent_obs.pop_front();
    }
    schedule = UpdateSignalsAndMaybeTrip(*entry, response.estimate_seconds,
                                         observed_cost, response.state);
  }
  if (!schedule) return;

  // Flag the key before the refresh is even queued: from the first trip
  // until a new model is published, estimates carry stale_model=true.
  service_->SetModelStale(site, class_id, true);
  refreshes_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  // With zero pool workers this runs inline (entry->mutex is not held).
  pool_.Submit([this, entry] { RunRefresh(entry); });
}

bool ModelRefreshDaemon::RequestRefresh(const std::string& site,
                                        core::QueryClassId class_id) {
  const std::shared_ptr<KeyEntry> entry = FindEntry(site, class_id);
  if (entry == nullptr) return false;
  if (service_->IsSiteDegraded(site)) {
    refreshes_suspended_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_flight || entry->retired) return false;
    if (config_.clock->Now() < entry->next_attempt_at) return false;
    entry->state = RefreshState::kDrifting;
    entry->in_flight = true;
  }
  // Same tail as a signal trip in ReportObserved: flag, count, queue.
  service_->SetModelStale(site, class_id, true);
  refreshes_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  pool_.Submit([this, entry] { RunRefresh(entry); });
  return true;
}

void ModelRefreshDaemon::RunRefresh(std::shared_ptr<KeyEntry> entry) {
  // The key may have been unwatched (its site retiring) between scheduling
  // and task start: skip the sampling + derivation entirely and drop the
  // stale flag the scheduling tail set — nothing will ever refresh this
  // key now.
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->retired) {
      entry->in_flight = false;
      entry->state = RefreshState::kFresh;
      retired = true;
    }
  }
  if (retired) {
    refreshes_abandoned_.fetch_add(1, std::memory_order_relaxed);
    service_->SetModelStale(entry->site, entry->class_id, false);
    std::lock_guard<std::mutex> pending_lock(pending_mutex_);
    --pending_;
    pending_cv_.notify_all();
    return;
  }

  // The site may have degraded between scheduling and task start: don't fire
  // sampling queries at a breaker-open site. Park the key backed-off (no
  // attempt consumed — the re-derivation never ran) so it re-trips once the
  // site recovers.
  if (service_->IsSiteDegraded(entry->site)) {
    refreshes_suspended_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->state = RefreshState::kBackedOff;
      entry->next_attempt_at =
          config_.clock->Now() +
          std::chrono::duration_cast<Clock::Duration>(config_.initial_backoff);
      entry->in_flight = false;
    }
    std::lock_guard<std::mutex> lock(pending_mutex_);
    --pending_;
    pending_cv_.notify_all();
    return;
  }

  core::ObservationSource* source = nullptr;
  core::ObservationSet warm;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->state = RefreshState::kRefreshing;
    source = entry->source;
    warm.assign(entry->recent_obs.begin(), entry->recent_obs.end());
  }

  // The expensive part — sampling + derivation — runs without any lock; the
  // per-key in_flight guard guarantees this is the only task using `source`.
  // A source that throws (an autonomous site can fail a sampling query any
  // way it likes) must not let the exception escape the pool task: it is a
  // failed attempt like any other and takes the backed-off path below.
  std::optional<core::BuildReport> report;
  try {
    report =
        core::RederiveModel(entry->class_id, *source, config_.rederive, warm);
  } catch (...) {
    refresh_exceptions_.fetch_add(1, std::memory_order_relaxed);
    report.reset();
  }

  if (report.has_value()) {
    // One atomic snapshot swap: publishes the model, rewires the tracker's
    // state mapper, and clears the stale flag, all under the service's
    // control mutex. Estimates in flight keep the old snapshot; new ones
    // see the new model — never a torn mix.
    //
    // Publish-if-active: a re-derivation that finishes after
    // UnregisterSite must not re-insert the retired site's model (the
    // "ghost site" resurrection the soak caught). The liveness check and
    // the publication are atomic under the service's control mutex.
    core::CostModel model = report->model;
    const bool published =
        service_->RegisterModelIfActive(entry->site, std::move(model));
    if (!published) {
      refreshes_abandoned_.fetch_add(1, std::memory_order_relaxed);
      service_->SetModelStale(entry->site, entry->class_id, false);
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->state = RefreshState::kFresh;
      entry->in_flight = false;
    } else {
      refreshes_succeeded_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(entry->mutex);
      ResetSignals(*entry);
      entry->attempts = 0;
      entry->state = RefreshState::kFresh;
      entry->next_attempt_at =
          config_.clock->Now() +
          std::chrono::duration_cast<Clock::Duration>(config_.refresh_cooldown);
      entry->in_flight = false;
    }
  } else {
    refresh_failures_.fetch_add(1, std::memory_order_relaxed);
    bool retired_after_failure = false;
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      retired_after_failure = entry->retired;
    }
    if (retired_after_failure) {
      // Unwatched while the failed attempt ran: no retry will ever come, so
      // the stale flag must not stick to the retired key.
      service_->SetModelStale(entry->site, entry->class_id, false);
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    ++entry->attempts;
    // Bounded retry: the exponent stops growing after max_attempts, so a
    // permanently failing source settles at one attempt per max_backoff.
    const int exponent = std::min(entry->attempts, config_.max_attempts) - 1;
    const double backoff_ns = std::min(
        static_cast<double>(config_.initial_backoff.count()) *
            std::pow(config_.backoff_multiplier, exponent),
        static_cast<double>(config_.max_backoff.count()));
    entry->next_attempt_at =
        config_.clock->Now() + std::chrono::duration_cast<Clock::Duration>(
                                   std::chrono::nanoseconds(
                                       static_cast<int64_t>(backoff_ns)));
    entry->state = RefreshState::kBackedOff;
    entry->in_flight = false;
    // Signals are intentionally NOT reset: the drift that tripped is still
    // real, so the first report after the backoff expires re-trips. The
    // stale flag also stays set — the old model is still serving.
  }

  std::lock_guard<std::mutex> lock(pending_mutex_);
  --pending_;
  pending_cv_.notify_all();
}

RefreshKeyStatus ModelRefreshDaemon::Status(
    const std::string& site, core::QueryClassId class_id) const {
  RefreshKeyStatus status;
  const std::shared_ptr<KeyEntry> entry = FindEntry(site, class_id);
  if (entry == nullptr) return status;
  std::lock_guard<std::mutex> lock(entry->mutex);
  status.watched = true;
  status.state = entry->state;
  status.ewma_rel_error = entry->ewma_rel_error;
  status.drift_distance = DriftDistance(*entry);
  status.reports = entry->reports;
  status.attempts = entry->attempts;
  return status;
}

ModelRefreshStats ModelRefreshDaemon::Stats() const {
  ModelRefreshStats stats;
  stats.reports = reports_.load(std::memory_order_relaxed);
  stats.ignored_reports = ignored_reports_.load(std::memory_order_relaxed);
  stats.error_trips = error_trips_.load(std::memory_order_relaxed);
  stats.drift_trips = drift_trips_.load(std::memory_order_relaxed);
  stats.refreshes_scheduled =
      refreshes_scheduled_.load(std::memory_order_relaxed);
  stats.refreshes_succeeded =
      refreshes_succeeded_.load(std::memory_order_relaxed);
  stats.refresh_failures = refresh_failures_.load(std::memory_order_relaxed);
  stats.refreshes_suspended =
      refreshes_suspended_.load(std::memory_order_relaxed);
  stats.refresh_exceptions =
      refresh_exceptions_.load(std::memory_order_relaxed);
  stats.refreshes_abandoned =
      refreshes_abandoned_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mscm::runtime
