#include "runtime/model_refresh.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <vector>

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
      "refreshes{scheduled=%llu ok=%llu failed=%llu suspended=%llu "
      "threw=%llu abandoned=%llu}",
      static_cast<unsigned long long>(refreshes_scheduled),
      static_cast<unsigned long long>(refreshes_succeeded),
      static_cast<unsigned long long>(refresh_failures),
      static_cast<unsigned long long>(refreshes_suspended),
      static_cast<unsigned long long>(refresh_exceptions),
      static_cast<unsigned long long>(refreshes_abandoned));
}

ModelRefreshDaemon::ModelRefreshDaemon(EstimationService* service,
                                       ModelRefreshConfig config)
    : service_(service), config_(config), pool_(config.worker_threads) {}

ModelRefreshDaemon::~ModelRefreshDaemon() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ModelRefreshDaemon::Watch(const std::string& site,
                               core::QueryClassId class_id,
                               core::ObservationSource* source) {
  auto entry = std::make_shared<KeyEntry>();
  entry->site = site;
  entry->class_id = class_id;
  entry->source = source;

  std::lock_guard<std::mutex> lock(mutex_);
  keys_[{site, static_cast<int>(class_id)}] = std::move(entry);
}

void ModelRefreshDaemon::Unwatch(const std::string& site,
                                 core::QueryClassId class_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = keys_.find({site, static_cast<int>(class_id)});
    if (it == keys_.end()) return;
    it->second->retired = true;
    keys_.erase(it);
  }
  // A requested-but-unpublished key would otherwise carry its stale flag
  // forever: nothing will refresh it now. An in-flight refresh abandoning
  // later re-clears as well (it may have re-set the flag while racing us).
  service_->SetModelStale(site, class_id, false);
}

void ModelRefreshDaemon::UnwatchSite(const std::string& site) {
  std::vector<core::QueryClassId> classes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = keys_.lower_bound({site, INT_MIN});
    while (it != keys_.end() && it->first.first == site) {
      it->second->retired = true;
      classes.push_back(it->second->class_id);
      it = keys_.erase(it);
    }
  }
  for (const core::QueryClassId class_id : classes) {
    service_->SetModelStale(site, class_id, false);
  }
}

bool ModelRefreshDaemon::RequestRefresh(const std::string& site,
                                        core::QueryClassId class_id) {
  const bool degraded = service_->IsSiteDegraded(site);
  std::shared_ptr<KeyEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = keys_.find({site, static_cast<int>(class_id)});
    if (it == keys_.end()) return false;
    // A degraded site is already failing its probes; sampling queries for
    // a re-derivation would fail the same way (and pile load on a sick
    // site). The caller asks again if its evidence persists.
    if (degraded) {
      ++stats_.refreshes_suspended;
      return false;
    }
    entry = it->second;
    if (entry->in_flight) return false;
    if (config_.clock->Now() < entry->next_attempt_at) return false;
    entry->state = RefreshState::kDrifting;
    entry->in_flight = true;
    ++stats_.refreshes_scheduled;
    ++pending_;
  }
  // Flag the key before the refresh is even queued: from the request until
  // a new model is published, estimates carry stale_model=true.
  service_->SetModelStale(site, class_id, true);
  // With zero pool workers this runs inline (mutex_ is not held).
  pool_.Submit([this, entry] { RunRefresh(entry); });
  return true;
}

void ModelRefreshDaemon::RunRefresh(const std::shared_ptr<KeyEntry>& entry) {
  // The key may have been unwatched (its site retiring) between scheduling
  // and task start: skip the sampling + derivation entirely and drop the
  // stale flag the request set — nothing will ever refresh this key now.
  // The site may instead have degraded: don't fire sampling queries at a
  // breaker-open site. Park the key backed-off (no attempt consumed — the
  // re-derivation never ran) so a later request retries once it recovers.
  const bool degraded = service_->IsSiteDegraded(entry->site);
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retired = entry->retired;
    if (retired) {
      ++stats_.refreshes_abandoned;
      entry->state = RefreshState::kFresh;
      entry->in_flight = false;
    } else if (degraded) {
      ++stats_.refreshes_suspended;
      entry->state = RefreshState::kBackedOff;
      entry->next_attempt_at =
          config_.clock->Now() +
          std::chrono::duration_cast<Clock::Duration>(config_.initial_backoff);
      entry->in_flight = false;
    } else {
      entry->state = RefreshState::kRefreshing;
    }
  }
  if (retired) service_->SetModelStale(entry->site, entry->class_id, false);
  if (retired || degraded) {
    FinishTask();
    return;
  }

  // The expensive part — sampling + derivation — runs without any lock; the
  // per-key in_flight guard guarantees this is the only task using `source`.
  // A source that throws (an autonomous site can fail a sampling query any
  // way it likes) must not let the exception escape the pool task: it is a
  // failed attempt like any other and takes the backed-off path below.
  std::optional<core::BuildReport> report;
  bool threw = false;
  try {
    report =
        core::RederiveModel(entry->class_id, *entry->source, config_.rederive);
  } catch (...) {
    threw = true;
  }

  // One atomic snapshot swap: publishes the model, rewires the tracker's
  // state mapper, and clears the stale flag, all under the service's
  // control mutex. Estimates in flight keep the old snapshot; new ones see
  // the new model — never a torn mix.
  //
  // Publish-if-active: a re-derivation that finishes after UnregisterSite
  // must not re-insert the retired site's model (the "ghost site"
  // resurrection the soak caught). The liveness check and the publication
  // are atomic under the service's control mutex.
  const bool published =
      report.has_value() &&
      service_->RegisterModelIfActive(entry->site, std::move(report->model));

  bool clear_stale = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry->in_flight = false;
    if (published) {
      ++stats_.refreshes_succeeded;
      entry->attempts = 0;
      entry->state = RefreshState::kFresh;
      entry->next_attempt_at =
          config_.clock->Now() +
          std::chrono::duration_cast<Clock::Duration>(config_.refresh_cooldown);
    } else if (report.has_value()) {
      ++stats_.refreshes_abandoned;
      entry->state = RefreshState::kFresh;
      clear_stale = true;
    } else {
      ++stats_.refresh_failures;
      if (threw) ++stats_.refresh_exceptions;
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
      // The stale flag stays set — the old model is still serving — unless
      // the key was unwatched while the failed attempt ran: no retry will
      // ever come, so the flag must not stick to the retired key.
      clear_stale = entry->retired;
    }
  }
  if (clear_stale) service_->SetModelStale(entry->site, entry->class_id, false);
  FinishTask();
}

void ModelRefreshDaemon::FinishTask() {
  std::lock_guard<std::mutex> lock(mutex_);
  --pending_;
  drained_cv_.notify_all();
}

RefreshKeyStatus ModelRefreshDaemon::Status(
    const std::string& site, core::QueryClassId class_id) const {
  RefreshKeyStatus status;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = keys_.find({site, static_cast<int>(class_id)});
  if (it == keys_.end()) return status;
  status.watched = true;
  status.state = it->second->state;
  status.attempts = it->second->attempts;
  return status;
}

ModelRefreshStats ModelRefreshDaemon::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mscm::runtime
