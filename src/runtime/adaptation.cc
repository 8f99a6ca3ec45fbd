#include "runtime/adaptation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/cost_model.h"
#include "runtime/estimation_service.h"
#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Single-writer increment on an atomic counter (the RuntimeCounters idiom):
// a plain load + store, not a fetch_add — legal because exactly one thread
// ever writes the field.
void BumpOwned(std::atomic<uint64_t>& field) {
  field.store(field.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

}  // namespace

std::string AdaptationStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "accepted=%llu dropped=%llu rejected=%llu drained=%llu ignored=%llu "
      "updates_applied=%llu updates_rejected=%llu adaptations_published=%llu "
      "escalations=%llu lost_races=%llu lineage_resets=%llu "
      "stale_gen_discarded=%llu stale_gen_downweighted=%llu "
      "max_generation_lag=%llu",
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(drained),
      static_cast<unsigned long long>(ignored),
      static_cast<unsigned long long>(updates_applied),
      static_cast<unsigned long long>(updates_rejected),
      static_cast<unsigned long long>(adaptations_published),
      static_cast<unsigned long long>(escalations),
      static_cast<unsigned long long>(lost_races),
      static_cast<unsigned long long>(lineage_resets),
      static_cast<unsigned long long>(stale_gen_discarded),
      static_cast<unsigned long long>(stale_gen_downweighted),
      static_cast<unsigned long long>(max_generation_lag));
  return buf;
}

AdaptationController::AdaptationController(EstimationService* service,
                                           ModelRefreshDaemon* daemon,
                                           AdaptationConfig config)
    : service_(service), daemon_(daemon), config_(config) {
  ring_capacity_ = NextPow2(std::max<size_t>(2, config_.buffer_capacity));
  ring_mask_ = ring_capacity_ - 1;
  if (config_.start_thread) Start();
}

AdaptationController::~AdaptationController() {
  Stop();
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

bool AdaptationController::ValidReport(const FeedbackReport& report) {
  if (report.site.empty() || report.site.size() > kMaxSiteLength) return false;
  if (report.features.size() > kMaxFeatures) return false;
  if (!std::isfinite(report.actual_cost) || report.actual_cost <= 0.0) {
    return false;
  }
  if (std::isnan(report.probing_cost)) return false;
  if (report.probing_cost >= 0.0 && !std::isfinite(report.probing_cost)) {
    return false;
  }
  for (const double f : report.features) {
    if (!std::isfinite(f)) return false;
  }
  return true;
}

void AdaptationController::FillSample(const FeedbackReport& report,
                                      Sample& sample) {
  std::memcpy(sample.site, report.site.data(), report.site.size());
  sample.site[report.site.size()] = '\0';
  sample.site_len = static_cast<uint8_t>(report.site.size());
  sample.class_id = report.class_id;
  sample.num_features = static_cast<uint8_t>(report.features.size());
  std::copy(report.features.begin(), report.features.end(), sample.features);
  sample.actual_cost = report.actual_cost;
  sample.probing_cost = report.probing_cost;
  sample.model_generation = report.model_generation;
}

AdaptationController::Ring* AdaptationController::LocalRing() {
  const int slot = ThreadRegistry::CurrentSlot();
  if (slot < 0) return nullptr;
  Ring* ring = rings_[slot].load(std::memory_order_acquire);
  if (ring == nullptr) {
    ring = new Ring(ring_capacity_);
    rings_[slot].store(ring, std::memory_order_release);
  }
  return ring;
}

bool AdaptationController::Record(const FeedbackReport& report) {
  Ring* ring = LocalRing();
  if (ring == nullptr) {
    // No registry slot: shared overflow queue — real RMWs, counted.
    if (!ValidReport(report)) {
      RmwProbe::Count();
      overflow_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    RmwProbe::Count(2);  // overflow mutex + counter
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (overflow_.size() >= ring_capacity_) {
      overflow_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    overflow_.emplace_back();
    FillSample(report, overflow_.back());
    overflow_accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (!ValidReport(report)) {
    BumpOwned(ring->rejected);
    return false;
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  const uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail >= ring_capacity_) {
    // Full: feedback is advisory, dropping is always safe. Never block or
    // spin on the serving thread.
    BumpOwned(ring->dropped);
    return false;
  }
  FillSample(report, ring->buffer[head & ring_mask_]);
  ring->head.store(head + 1, std::memory_order_release);
  BumpOwned(ring->accepted);
  return true;
}

size_t AdaptationController::DrainOnce() {
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  size_t consumed = 0;

  for (auto& slot : rings_) {
    Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    while (tail != head) {
      ProcessSample(ring->buffer[tail & ring_mask_]);
      ++tail;
      ++consumed;
    }
    ring->tail.store(tail, std::memory_order_release);
  }
  {
    std::deque<Sample> pending;
    {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      pending.swap(overflow_);
    }
    for (const Sample& sample : pending) {
      ProcessSample(sample);
      ++consumed;
    }
  }
  drained_.fetch_add(consumed, std::memory_order_relaxed);

  // Post-pass: escalate stalled groups, publish the rest. Escalation wins —
  // publishing rows from a lineage we just declared broken would only delay
  // the re-derivation's correction. Unseeded groups (reset by a lost race or
  // lineage orphaning on an earlier pass) are erased rather than kept: the
  // next report for the key re-inserts and re-seeds, and a retired site's
  // key must not pin an empty Group forever.
  for (auto it = groups_.begin(); it != groups_.end();) {
    Group& group = it->second;
    if (!group.seeded) {
      it = groups_.erase(it);
      continue;
    }
    if (group.blown || ShouldEscalate(group)) {
      Escalate(it->first, group);
      it = groups_.erase(it);
      continue;
    }
    MaybePublish(it->first, group);
    ++it;
  }
  return consumed;
}

void AdaptationController::ProcessSample(const Sample& sample) {
  const std::string site(sample.site, sample.site_len);

  // Price the same request through the serving path: yields the current
  // model's estimate, the resolved contention state and the serving
  // generation — everything the estimators and signals need.
  EstimateRequest request;
  request.site = site;
  request.class_id = sample.class_id;
  request.features.assign(sample.features,
                          sample.features + sample.num_features);
  request.probing_cost = sample.probing_cost;
  // A short feature vector comes back kInvalidRequest, like any other
  // unpriceable request.
  const EstimateResponse response = service_->Estimate(request);
  if (!response.ok()) {
    ignored_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Generation-aware weighting: how many publishes behind the serving
  // lineage was this report priced? The serving generation only moves
  // forward within a lineage; a response generation *below* the sample's
  // means the lineage itself was replaced (re-register / re-derivation),
  // which the reset below handles — treat that as lag 0 here.
  uint64_t lag = 0;
  if (response.model_generation > sample.model_generation) {
    lag = response.model_generation - sample.model_generation;
  }
  // Single writer (ProcessSample runs under drain_mutex_): plain max.
  if (lag > max_generation_lag_.load(std::memory_order_relaxed)) {
    max_generation_lag_.store(lag, std::memory_order_relaxed);
  }
  if (lag > config_.generation_discard_lag) {
    // Too stale: the report describes a model several corrections ago.
    // Folding it in would bias the estimators toward errors the serving
    // lineage already fixed. Dropped before it can touch group state.
    stale_gen_discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const auto key = std::make_pair(site, static_cast<int>(sample.class_id));
  const auto [group_it, group_inserted] = groups_.try_emplace(key);
  Group& group = group_it->second;
  if (group.seeded && group.generation != response.model_generation) {
    // An externally published model (full re-derivation, or a competing
    // adapter) reset the lineage: orphan the accumulators and re-seed.
    lineage_resets_.fetch_add(1, std::memory_order_relaxed);
    group = Group{};
  }
  if (!group.seeded && !ReseedGroup(group, site, sample.class_id)) {
    // No serving model to seed from — the site may have been retired
    // between the estimate above and now. Do not leave an empty Group
    // pinned in the map (a straggling report for a retired site would
    // otherwise leak one group per key, forever).
    groups_.erase(group_it);
    ignored_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  group.last_generation_lag = lag;

  UpdateSignals(group, response.estimate_seconds, sample.actual_cost,
                response.state);

  // Fold the observation into the state's estimator, seeding it from the
  // serving row on first touch. z = (1, selected features) — the compiled
  // row's own basis, so a published row slots straight into the table.
  const auto snapshot = service_->CatalogSnapshot();
  const core::CostModel* model = snapshot->Find(site, sample.class_id);
  if (model == nullptr || model->generation() != group.generation) {
    lineage_resets_.fetch_add(1, std::memory_order_relaxed);
    groups_.erase(group_it);
    return;
  }
  const core::CompiledEquations& equations = model->compiled();
  // A registration since the estimate may have moved the model's width:
  // check the vector against the model it is gathered from.
  if (response.state < 0 || response.state >= equations.num_states() ||
      request.features.size() < equations.min_features()) {
    return;
  }
  const size_t stride = equations.num_selected() + 1;

  StateAccumulator& acc = group.states[response.state];
  if (acc.rls == nullptr) {
    const double* row = equations.row(response.state);
    std::vector<double> theta(row, row + stride);
    std::vector<double> covariance;
    const auto& persisted = model->adaptation().states;
    if (const auto it = persisted.find(response.state);
        it != persisted.end() && !it->second.covariance.empty()) {
      covariance = it->second.covariance;
      acc.base_updates = it->second.updates;
    } else {
      covariance.assign(stride * stride, 0.0);
      for (size_t i = 0; i < stride; ++i) {
        covariance[i * stride + i] = config_.rls.initial_variance;
      }
    }
    acc.rls = std::make_unique<stats::RlsEstimator>(
        std::move(theta), std::move(covariance), config_.rls);
  }

  std::vector<double> z(stride);
  z[0] = 1.0;
  equations.GatherSelected(request.features.data(), z.data() + 1);
  // Lagged-but-tolerated reports fold in at reduced weight: each generation
  // of lag halves (by default) the observation's influence on the
  // estimator, so stragglers refine rather than fight fresh feedback.
  const double weight =
      lag == 0 ? 1.0
               : std::pow(std::clamp(config_.generation_downweight, 1e-9, 1.0),
                          static_cast<double>(lag));
  if (weight < 1.0) {
    stale_gen_downweighted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (acc.rls->UpdateWeighted(z.data(), sample.actual_cost, weight)) {
    updates_applied_.fetch_add(1, std::memory_order_relaxed);
    ++acc.new_updates;
  } else {
    updates_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (acc.rls->blown_up()) group.blown = true;
}

bool AdaptationController::ReseedGroup(Group& group, const std::string& site,
                                       core::QueryClassId class_id) {
  const auto snapshot = service_->CatalogSnapshot();
  const core::CostModel* model = snapshot->Find(site, class_id);
  if (model == nullptr) return false;
  group = Group{};
  group.seeded = true;
  group.generation = model->generation();
  group.num_states = model->compiled().num_states();
  group.baseline_hist.assign(static_cast<size_t>(group.num_states), 0);
  group.recent_hist.assign(static_cast<size_t>(group.num_states), 0);
  return true;
}

void AdaptationController::UpdateSignals(Group& group, double estimated,
                                         double observed, int state) {
  ++group.samples;
  const double rel =
      std::fabs(estimated - observed) / std::max(std::fabs(observed), 1e-12);
  if (!group.ewma_primed) {
    group.ewma_rel_error = rel;
    group.ewma_primed = true;
    group.best_ewma = rel;
    group.since_improvement = 0;
  } else {
    group.ewma_rel_error = config_.ewma_alpha * rel +
                           (1.0 - config_.ewma_alpha) * group.ewma_rel_error;
    if (group.ewma_rel_error <
        group.best_ewma * (1.0 - config_.stall_improvement)) {
      group.best_ewma = group.ewma_rel_error;
      group.since_improvement = 0;
    } else {
      ++group.since_improvement;
    }
  }

  if (state < 0 || state >= group.num_states) return;
  if (group.baseline_total < config_.min_samples_for_drift) {
    ++group.baseline_hist[state];
    ++group.baseline_total;
    return;
  }
  group.recent_states.push_back(state);
  ++group.recent_hist[state];
  while (group.recent_states.size() > config_.drift_window) {
    --group.recent_hist[group.recent_states.front()];
    group.recent_states.pop_front();
  }
}

double AdaptationController::DriftDistance(const Group& group) {
  if (group.baseline_total == 0 || group.recent_states.empty()) return 0.0;
  double l1 = 0.0;
  for (int s = 0; s < group.num_states; ++s) {
    const double base = static_cast<double>(group.baseline_hist[s]) /
                        static_cast<double>(group.baseline_total);
    const double recent = static_cast<double>(group.recent_hist[s]) /
                          static_cast<double>(group.recent_states.size());
    l1 += std::fabs(base - recent);
  }
  return l1 / 2.0;  // total variation: 0 identical, 1 disjoint
}

bool AdaptationController::ShouldEscalate(const Group& group) const {
  if (group.since_improvement >= config_.stall_window &&
      group.ewma_rel_error > config_.stall_error_threshold) {
    return true;
  }
  if (group.recent_states.size() >=
          std::min(config_.min_samples_for_drift, config_.drift_window) &&
      DriftDistance(group) > config_.drift_threshold) {
    return true;
  }
  return false;
}

void AdaptationController::Escalate(const std::pair<std::string, int>& key,
                                    Group& group) {
  escalations_.fetch_add(1, std::memory_order_relaxed);
  if (daemon_ != nullptr) {
    daemon_->RequestRefresh(key.first,
                            static_cast<core::QueryClassId>(key.second));
  }
  // Whatever model the slow path publishes starts a new lineage; the caller
  // erases the group and the next report re-seeds from the new model.
  group = Group{};
}

void AdaptationController::MaybePublish(
    const std::pair<std::string, int>& key, Group& group) {
  std::vector<int> changed;
  for (const auto& [state, acc] : group.states) {
    if (acc.rls != nullptr && !acc.rls->blown_up() &&
        acc.new_updates >= config_.min_updates_to_publish) {
      changed.push_back(state);
    }
  }
  if (changed.empty()) return;

  const auto snapshot = service_->CatalogSnapshot();
  const core::CostModel* current = snapshot->Find(
      key.first, static_cast<core::QueryClassId>(key.second));
  if (current == nullptr || current->generation() != group.generation) {
    lineage_resets_.fetch_add(1, std::memory_order_relaxed);
    group = Group{};
    return;
  }

  core::ModelAdaptationState next = current->adaptation();
  const uint64_t next_generation = group.generation + 1;
  next.generation = next_generation;
  next.forgetting = config_.rls.forgetting;
  for (const int state : changed) {
    StateAccumulator& acc = group.states[state];
    core::StateAdaptation& slot = next.states[state];
    slot.row = acc.rls->coefficients();
    slot.covariance = acc.rls->covariance();
    slot.updates = acc.base_updates + acc.rls->updates();
  }

  if (service_->ApplyAdaptedModel(key.first, current->WithAdaptation(next),
                                  group.generation)) {
    adaptations_published_.fetch_add(1, std::memory_order_relaxed);
    group.generation = next_generation;
    for (const int state : changed) group.states[state].new_updates = 0;
  } else {
    // Beaten by a concurrent register/adapt: the catalog moved between the
    // generation check above and the publish. Start over from whatever won.
    lost_races_.fetch_add(1, std::memory_order_relaxed);
    group = Group{};
  }
}

void AdaptationController::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (drain_thread_.joinable()) return;
  stop_ = false;
  drain_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(thread_mutex_);
    while (!stop_) {
      thread_cv_.wait_for(lock, config_.drain_interval,
                          [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      DrainOnce();
      lock.lock();
    }
  });
}

void AdaptationController::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!drain_thread_.joinable()) return;
    stop_ = true;
  }
  thread_cv_.notify_all();
  drain_thread_.join();
  // Final sweep so reports buffered after the last scheduled drain are not
  // silently discarded at teardown.
  DrainOnce();
}

void AdaptationController::DetachSite(const std::string& site) {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  const auto first = groups_.lower_bound({site, std::numeric_limits<int>::min()});
  auto last = first;
  while (last != groups_.end() && last->first.first == site) ++last;
  groups_.erase(first, last);
}

size_t AdaptationController::NumGroups() const {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  return groups_.size();
}

AdaptationStats AdaptationController::Stats() const {
  AdaptationStats stats;
  for (const auto& slot : rings_) {
    const Ring* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    stats.accepted += ring->accepted.load(std::memory_order_relaxed);
    stats.dropped += ring->dropped.load(std::memory_order_relaxed);
    stats.rejected += ring->rejected.load(std::memory_order_relaxed);
  }
  stats.accepted += overflow_accepted_.load(std::memory_order_relaxed);
  stats.dropped += overflow_dropped_.load(std::memory_order_relaxed);
  stats.rejected += overflow_rejected_.load(std::memory_order_relaxed);
  stats.drained = drained_.load(std::memory_order_relaxed);
  stats.ignored = ignored_.load(std::memory_order_relaxed);
  stats.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  stats.updates_rejected = updates_rejected_.load(std::memory_order_relaxed);
  stats.adaptations_published =
      adaptations_published_.load(std::memory_order_relaxed);
  stats.escalations = escalations_.load(std::memory_order_relaxed);
  stats.lost_races = lost_races_.load(std::memory_order_relaxed);
  stats.lineage_resets = lineage_resets_.load(std::memory_order_relaxed);
  stats.stale_gen_discarded =
      stale_gen_discarded_.load(std::memory_order_relaxed);
  stats.stale_gen_downweighted =
      stale_gen_downweighted_.load(std::memory_order_relaxed);
  stats.max_generation_lag =
      max_generation_lag_.load(std::memory_order_relaxed);
  return stats;
}

AdaptationKeyStatus AdaptationController::Status(
    const std::string& site, core::QueryClassId class_id) const {
  AdaptationKeyStatus status;
  std::lock_guard<std::mutex> lock(drain_mutex_);
  const auto it = groups_.find({site, static_cast<int>(class_id)});
  if (it == groups_.end()) return status;
  const Group& group = it->second;
  status.seeded = group.seeded;
  status.generation = group.generation;
  status.ewma_rel_error = group.ewma_rel_error;
  status.samples = group.samples;
  status.generation_lag = group.last_generation_lag;
  for (const auto& [state, acc] : group.states) {
    if (acc.rls != nullptr) status.rls_updates += acc.rls->updates();
  }
  return status;
}

}  // namespace mscm::runtime
