#include "runtime/contention_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace mscm::runtime {

namespace {

constexpr double kNoReading = std::numeric_limits<double>::quiet_NaN();

bool AdaptiveCadence(const ContentionTrackerConfig& config) {
  return config.min_probe_interval.count() > 0 &&
         config.max_probe_interval.count() > 0;
}

}  // namespace

ContentionTracker::ContentionTracker(ContentionTrackerConfig config,
                                     ProbeFn probe,
                                     LatencyHistogram* probe_latency)
    : config_(std::move(config)),
      probe_(std::move(probe)),
      probe_latency_(probe_latency),
      current_interval_ns_(config_.probe_interval.count()),
      breaker_(config_.breaker, config_.clock) {
  MSCM_CHECK(probe_ != nullptr);
  MSCM_CHECK(config_.clock != nullptr);
  if (AdaptiveCadence(config_)) {
    MSCM_CHECK_MSG(config_.min_probe_interval <= config_.max_probe_interval,
                   "min_probe_interval must not exceed max_probe_interval");
  }
}

ContentionTracker::~ContentionTracker() { Stop(); }

void ContentionTracker::Start() {
  if (config_.probe_interval.count() <= 0) return;
  std::lock_guard<std::mutex> lock(thread_mutex_);
  // A joinable thread_ is a live loop: Stop() moves the thread out under
  // this mutex in the same critical section that raises stop_.
  if (thread_.joinable()) return;
  stop_ = false;
  // Stamp a fresh generation. If a Stop() is mid-join on the old loop, the
  // old loop exits on its own generation check — resetting stop_ here
  // cannot resurrect it, and the new loop below is a distinct thread the
  // stopper never waits for.
  const uint64_t generation = ++generation_;
  thread_ = std::thread([this, generation] { RunLoop(generation); });
}

void ContentionTracker::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!thread_.joinable()) return;
    stop_ = true;
    // Supersede the running loop's generation so a concurrent Start() — which
    // resets stop_ — still terminates it and the join below cannot hang.
    ++generation_;
    stop_cv_.notify_all();
    to_join = std::move(thread_);
  }
  to_join.join();
}

bool ContentionTracker::RunProbe(double* cost) {
  // Without a deadline the probe runs inline; the only armor needed is the
  // exception catch — a throwing probe is a failed probe, never a dead
  // prober thread.
  if (config_.probe_timeout.count() <= 0) {
    try {
      *cost = probe_();
      return true;
    } catch (...) {
      return false;
    }
  }

  // With a deadline the probe runs on its own short-lived thread and the
  // caller waits at most probe_timeout for it. All communication goes
  // through heap-shared state: an abandoned probe that eventually finishes
  // (or hangs forever) touches only that state, never the tracker — so a
  // permanently hung probe can never wedge Stop() or the destructor, and a
  // late result can never publish.
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool threw = false;
    double cost = std::numeric_limits<double>::quiet_NaN();
  };
  auto pending = std::make_shared<Pending>();
  std::thread([probe = probe_, pending] {
    double c = std::numeric_limits<double>::quiet_NaN();
    bool threw = false;
    try {
      c = probe();
    } catch (...) {
      threw = true;
    }
    std::lock_guard<std::mutex> lock(pending->mutex);
    pending->done = true;
    pending->threw = threw;
    pending->cost = c;
    pending->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lock(pending->mutex);
  if (!pending->cv.wait_for(lock, config_.probe_timeout,
                            [&] { return pending->done; })) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (pending->threw) return false;
  *cost = pending->cost;
  return true;
}

bool ContentionTracker::ProbeOnce() {
  if (!breaker_.AllowRequest()) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // The sequence ticket is taken *before* the probe runs: publish order then
  // follows probe-start order, and a slow probe racing a faster, later one
  // (manual ProbeNow vs the background loop) is detected at publish time. A
  // timed-out probe burns its ticket, so its abandoned result stays behind
  // any retry that publishes after it.
  const uint64_t sequence =
      next_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;

  // The probe runs outside the tracker mutex: probing can take seconds and
  // readers keep getting the previous reading meanwhile.
  const auto started = std::chrono::steady_clock::now();
  double cost = kNoReading;
  const bool returned = RunProbe(&cost);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  if (probe_latency_ != nullptr) {
    probe_latency_->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
  }

  // A cost must be finite *and* non-negative to publish: +inf passes a
  // NaN/negative check but would be served as a real probing cost (and
  // mapped to the top state) until the next successful probe.
  if (!returned || !(std::isfinite(cost) && cost >= 0.0)) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    breaker_.RecordFailure();
    return false;
  }

  breaker_.RecordSuccess();
  probes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<const Published> current = published_.load();
  if (current != nullptr && sequence <= current->sequence) {
    // A probe that started after this one already published: keep the newer
    // reading (and its timestamp — republishing would serve old contention
    // as fresh).
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  published_.Publish(std::make_shared<const Published>(
      Published{cost, mapper_ ? mapper_(cost) : -1, sequence,
                config_.clock->Now()}));
  return true;
}

ProbeReading ContentionTracker::Current() const {
  ProbeReading out;
  out.degraded = breaker_.degraded();
  const EpochGuard guard;
  const Published* published = published_.Read(guard);
  if (published == nullptr) return out;
  out.has_value = true;
  out.probing_cost = published->probing_cost;
  out.state = published->state;
  out.sequence = published->sequence;
  out.age = std::chrono::duration_cast<std::chrono::nanoseconds>(
      config_.clock->Now() - published->taken);
  out.stale = out.age > config_.ttl;
  return out;
}

void ContentionTracker::SetStateMapper(std::function<int(double)> mapper) {
  std::lock_guard<std::mutex> lock(mutex_);
  mapper_ = std::move(mapper);
  const std::shared_ptr<const Published> current = published_.load();
  if (current == nullptr) return;
  Published remapped = *current;
  remapped.state = mapper_ ? mapper_(remapped.probing_cost) : -1;
  published_.Publish(std::make_shared<const Published>(remapped));
}

void ContentionTracker::SetStateBoundaries(std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(mutex_);
  boundaries_ = std::move(boundaries);
}

bool ContentionTracker::BoundaryDistance(double* distance,
                                         double* boundary) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<const Published> current = published_.load();
  if (current == nullptr || boundaries_.empty()) return false;
  double best = std::numeric_limits<double>::infinity();
  double best_boundary = 0.0;
  for (double b : boundaries_) {
    const double d = std::abs(current->probing_cost - b);
    if (d < best) {
      best = d;
      best_boundary = b;
    }
  }
  if (distance != nullptr) *distance = best;
  if (boundary != nullptr) *boundary = best_boundary;
  return true;
}

std::chrono::nanoseconds ContentionTracker::AdaptInterval(
    std::chrono::nanoseconds current, bool changed,
    std::chrono::nanoseconds min_interval,
    std::chrono::nanoseconds max_interval) {
  // Multiplicative decrease / gentler increase: react to a flip immediately,
  // back off only after sustained quiet, never leave [min, max].
  const auto next = changed ? current / 2 : current + current / 4;
  return std::clamp(next, min_interval, max_interval);
}

void ContentionTracker::RunLoop(uint64_t generation) {
  const bool adaptive = AdaptiveCadence(config_);
  auto interval = config_.probe_interval;
  if (adaptive) {
    interval = std::clamp(interval, config_.min_probe_interval,
                          config_.max_probe_interval);
    current_interval_ns_.store(interval.count(), std::memory_order_relaxed);
  }
  for (;;) {
    ProbeReading before;
    if (adaptive) before = Current();
    const bool ok = ProbeOnce();
    if (adaptive) {
      // Any change the probe made to what readers see — first reading, state
      // flip, staleness or degraded transition — counts as environment
      // activity worth probing faster for.
      const ProbeReading after = Current();
      const bool changed = after.has_value != before.has_value ||
                           after.state != before.state ||
                           after.stale != before.stale ||
                           after.degraded != before.degraded;
      interval = AdaptInterval(interval, changed, config_.min_probe_interval,
                               config_.max_probe_interval);
      current_interval_ns_.store(interval.count(), std::memory_order_relaxed);
    }
    // Failed probes retry on an exponential backoff instead of sleeping the
    // whole interval, so a transient failure gets several retries before the
    // reading crosses its TTL. The backoff keys off the breaker's
    // consecutive-failure count and never exceeds the regular interval.
    auto wait = interval;
    if (!ok && config_.failure_retry.count() > 0 && interval.count() > 0) {
      const int consecutive = std::max(1, consecutive_failures());
      int64_t retry_ns = config_.failure_retry.count();
      for (int i = 1; i < consecutive && retry_ns < interval.count(); ++i) {
        retry_ns *= 2;
      }
      wait = std::min(std::chrono::nanoseconds(retry_ns), interval);
    }
    std::unique_lock<std::mutex> lock(thread_mutex_);
    // Exit on stop *or* when a newer Start/Stop superseded this loop's
    // generation (a racing Start may have reset stop_ to false already).
    if (stop_cv_.wait_for(lock, wait, [this, generation] {
          return stop_ || generation_ != generation;
        })) {
      return;
    }
  }
}

}  // namespace mscm::runtime
