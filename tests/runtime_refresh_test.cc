#include "runtime/model_refresh.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/clock.h"
#include "runtime/estimation_service.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using core::QueryClassId;
using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr auto kCls = QueryClassId::kUnarySeqScan;

std::vector<double> FeatureVector(double x0) {
  std::vector<double> f(core::VariableSet::ForClass(kCls).size(), 0.0);
  f[0] = x0;
  return f;
}

EstimateRequest Request(const std::string& site, double x0,
                        double probing_cost = -1.0) {
  EstimateRequest request;
  request.site = site;
  request.class_id = kCls;
  request.features = FeatureVector(x0);
  request.probing_cost = probing_cost;
  return request;
}

// The environment as the refresh daemon samples it: cost = slope * x0
// exactly (all other features are uninformative noise), probing costs in a
// fixed band. `slope` is the ground truth that drifts; `fail` simulates an
// unreachable site (TryDraw reports nullopt).
class LinearSource : public core::ObservationSource {
 public:
  LinearSource(double slope, uint64_t seed) : slope_(slope), rng_(seed) {}

  std::optional<core::Observation> TryDraw() override {
    if (fail_.load()) return std::nullopt;
    return Draw();
  }

  core::Observation Draw() override {
    draws_.fetch_add(1);
    core::Observation o;
    o.probing_cost = rng_.Uniform(0.3, 0.7);
    o.features.resize(core::VariableSet::ForClass(kCls).size());
    for (auto& f : o.features) f = rng_.Uniform(1.0, 10.0);
    o.cost = slope_.load() * o.features[0];
    return o;
  }

  void set_slope(double s) { slope_.store(s); }
  void set_fail(bool f) { fail_.store(f); }
  int draws() const { return draws_.load(); }

 private:
  std::atomic<double> slope_;
  std::atomic<bool> fail_{false};
  std::atomic<int> draws_{0};
  Rng rng_;
};

// Small, deterministic daemon config: inline refreshes (the service has no
// workers), single-state re-derivation, fast trip thresholds.
ModelRefreshConfig TestConfig(Clock* clock) {
  ModelRefreshConfig config;
  config.ewma_alpha = 0.5;
  config.error_threshold = 0.5;
  config.drift_threshold = 0.6;
  config.min_reports = 8;
  config.drift_window = 8;
  config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  config.rederive.build.sample_size = 60;
  config.clock = clock;
  return config;
}

TEST(ModelRefreshTest, EstimationErrorTriggersRederiveAndAtomicSwap) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  EstimationService service(service_config);
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // The environment has shifted: queries now cost 6x, the model says 2x.
  LinearSource source(6.0, 11);
  ModelRefreshDaemon daemon(&service, TestConfig(&clock));
  daemon.Watch("a", kCls, &source);

  Rng rng(5);
  int reports = 0;
  while (daemon.Stats().refreshes_succeeded < 1 && reports < 50) {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 6.0 * x);
    ++reports;
  }

  // The daemon re-derived and swapped within min_reports + a few reports.
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_GE(stats.error_trips, 1u);
  EXPECT_EQ(stats.refresh_failures, 0u);
  EXPECT_LE(reports, 12);
  EXPECT_GT(source.draws(), 0);

  // The swapped-in model prices the new environment correctly, the key is
  // fresh again and the stale flag is gone.
  const EstimateResponse response = service.Estimate(Request("a", 3.0));
  ASSERT_TRUE(response.ok());
  EXPECT_NEAR(response.estimate_seconds, 18.0, 1e-3);
  EXPECT_FALSE(response.stale_model);
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
}

TEST(ModelRefreshTest, ContentionDistributionDriftTriggersRefresh) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  EstimationService service(service_config);
  // Accurate in *both* states (cost = 2x everywhere), so the error signal
  // never fires; only the state distribution changes.
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 2.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  LinearSource source(2.0, 13);
  ModelRefreshConfig config = TestConfig(&clock);
  config.error_threshold = 10.0;  // error signal effectively disabled
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  Rng rng(7);
  // Baseline window: the site sits in state 0.
  for (size_t i = 0; i < config.min_reports; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 2.0 * x);
  }
  EXPECT_EQ(daemon.Stats().drift_trips, 0u);

  // Contention jumps into state 1 and stays there; estimates are still
  // accurate, but the environment left the region the baseline saw.
  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  int reports = 0;
  while (daemon.Stats().refreshes_scheduled < 1 && reports < 50) {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 2.0 * x);
    ++reports;
  }

  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.drift_trips, 1u);
  EXPECT_EQ(stats.error_trips, 0u);
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_LE(reports, static_cast<int>(config.drift_window) + 2);
}

TEST(ModelRefreshTest, FailedRederiveKeepsOldModelAndBacksOffExponentially) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  EstimationService service(service_config);
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  LinearSource source(6.0, 17);
  source.set_fail(true);  // the site refuses to be sampled
  ModelRefreshConfig config = TestConfig(&clock);
  config.min_reports = 4;
  config.drift_window = 4;
  config.max_attempts = 3;
  config.initial_backoff = milliseconds(100);
  config.backoff_multiplier = 2.0;
  config.max_backoff = seconds(1);
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  Rng rng(9);
  auto report = [&] {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 6.0 * x);
  };

  // First trip: the inline refresh fails; the old model keeps serving,
  // flagged stale, and the key backs off.
  for (size_t i = 0; i < config.min_reports; ++i) report();
  ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 1u);
  EXPECT_EQ(stats.refresh_failures, 1u);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kBackedOff);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 1);
  EXPECT_TRUE(service.IsModelStale("a", kCls));
  const EstimateResponse during = service.Estimate(Request("a", 3.0));
  ASSERT_TRUE(during.ok());  // graceful degradation, never an error
  EXPECT_NEAR(during.estimate_seconds, 6.0, 1e-6);  // old model
  EXPECT_TRUE(during.stale_model);

  // Reports inside the backoff window must not schedule another attempt.
  for (int i = 0; i < 5; ++i) report();
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 1u);

  // Past the 100ms backoff the still-high error re-trips: failure #2,
  // backoff doubles to 200ms.
  clock.Advance(milliseconds(150));
  report();
  EXPECT_EQ(daemon.Stats().refresh_failures, 2u);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 2);

  // 150ms < 200ms: still backed off.
  clock.Advance(milliseconds(150));
  report();
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 2u);

  // Another 100ms crosses the 200ms mark: failure #3.
  clock.Advance(milliseconds(100));
  report();
  EXPECT_EQ(daemon.Stats().refresh_failures, 3u);

  // The site comes back; after the 400ms backoff the next trip succeeds
  // and the key returns to fresh with the drift-corrected model.
  source.set_fail(false);
  clock.Advance(milliseconds(450));
  report();
  stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_EQ(stats.refresh_failures, 3u);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 0);
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  const EstimateResponse after = service.Estimate(Request("a", 3.0));
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.estimate_seconds, 18.0, 1e-3);
  EXPECT_FALSE(after.stale_model);
}

TEST(ModelRefreshTest, UnwatchedAndUnpriceableReportsAreIgnored) {
  EstimationService service;
  ModelRefreshDaemon daemon(&service, {});

  // Unwatched key.
  daemon.ReportObserved("ghost", kCls, FeatureVector(3.0), 1.0);
  EXPECT_EQ(daemon.Stats().ignored_reports, 1u);
  EXPECT_FALSE(daemon.Status("ghost", kCls).watched);

  // Watched, but the service has no model (and no probe) for the key:
  // feedback cannot be priced, so it cannot update the error signal.
  LinearSource source(2.0, 3);
  daemon.Watch("a", kCls, &source);
  daemon.ReportObserved("a", kCls, FeatureVector(3.0), 1.0);
  // Non-positive observed costs are noise, not signal.
  daemon.ReportObserved("a", kCls, FeatureVector(3.0), 0.0);
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.ignored_reports, 3u);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.refreshes_scheduled, 0u);
}

// Estimates must never block on (or tear under) a concurrent refresh: while
// reporters drive the daemon into repeated re-derivations on the worker
// pool, readers see either the old model (2x) or a re-derived one (~6x) —
// never an error, never a mix. Run under MSCM_SANITIZE=thread.
TEST(ModelRefreshTest, ConcurrentReportsEstimatesAndRefreshesAreSafe) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  LinearSource source(6.0, 23);
  ModelRefreshConfig config = TestConfig(Clock::System());
  config.min_reports = 16;
  config.drift_window = 16;
  config.refresh_cooldown = milliseconds(1);  // allow repeated refreshes
  config.rederive.build.sample_size = 30;
  config.worker_threads = 2;  // refreshes run on background workers
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  std::atomic<bool> stop{false};
  std::vector<std::thread> reporters;
  for (int t = 0; t < 2; ++t) {
    reporters.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 400 && !stop.load(); ++i) {
        const double x = rng.Uniform(1.0, 10.0);
        daemon.ReportObserved("a", kCls, FeatureVector(x), 6.0 * x);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        const EstimateResponse r = service.Estimate(Request("a", 3.0, 0.5));
        if (!r.ok()) {
          stop.store(true);
          ADD_FAILURE() << "estimate failed mid-refresh: "
                        << ToString(r.status);
          return;
        }
        // Either the old model (6.0) or a re-derived one (≈18.0).
        const bool old_model = std::abs(r.estimate_seconds - 6.0) < 1.0;
        const bool new_model = std::abs(r.estimate_seconds - 18.0) < 1.0;
        if (!old_model && !new_model) {
          stop.store(true);
          ADD_FAILURE() << "torn estimate: " << r.estimate_seconds;
          return;
        }
      }
    });
  }
  for (auto& t : reporters) t.join();
  for (auto& t : readers) t.join();

  // A tripped refresh may still be in flight on the worker pool when the
  // threads join; give it a deadline to land before asserting.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.Stats().refreshes_succeeded == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_GT(stats.reports, 0u);
  EXPECT_GE(stats.refreshes_succeeded, 1u);
}

// An observation source that throws from TryDraw — the mdbs glue talking to
// a misbehaving remote site.
class ThrowingSource : public core::ObservationSource {
 public:
  explicit ThrowingSource(LinearSource* inner) : inner_(inner) {}
  std::optional<core::Observation> TryDraw() override {
    if (throwing_.load()) throw std::runtime_error("sampling RPC exploded");
    return inner_->TryDraw();
  }
  core::Observation Draw() override { return inner_->Draw(); }
  void set_throwing(bool t) { throwing_.store(t); }

 private:
  LinearSource* inner_;
  std::atomic<bool> throwing_{true};
};

// Regression: an exception escaping core::RederiveModel used to propagate out
// of RunRefresh — on an inline refresh it blew up the reporter, on a worker
// it took the pool thread down. It is now routed into the same failed-attempt
// backoff as a clean sampling failure.
TEST(ModelRefreshTest, ThrowingSourceIsAFailedAttemptNotACrash) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  EstimationService service(service_config);
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  LinearSource inner(6.0, 29);
  ThrowingSource source(&inner);
  ModelRefreshConfig config = TestConfig(&clock);
  config.min_reports = 4;
  config.drift_window = 4;
  config.initial_backoff = milliseconds(100);
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  Rng rng(31);
  auto report = [&] {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 6.0 * x);
  };

  // The trip runs an inline refresh; the thrown exception must surface as a
  // counted failure with the key backed off — not as a crash.
  for (size_t i = 0; i < config.min_reports; ++i) report();
  ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 1u);
  EXPECT_EQ(stats.refresh_failures, 1u);
  EXPECT_EQ(stats.refresh_exceptions, 1u);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kBackedOff);
  EXPECT_TRUE(service.IsModelStale("a", kCls));
  // The old model keeps serving.
  ASSERT_TRUE(service.Estimate(Request("a", 3.0)).ok());

  // The source stops throwing; past the backoff the retry succeeds.
  source.set_throwing(false);
  clock.Advance(milliseconds(150));
  report();
  stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_EQ(stats.refresh_exceptions, 1u);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_NEAR(service.Estimate(Request("a", 3.0)).estimate_seconds, 18.0,
              1e-3);
}

// Tentpole: while a site's probe breaker is open, re-deriving its model from
// fresh samples is pointless (the same site is unreachable) — the daemon
// suspends the refresh instead of burning a failed attempt, and re-trips
// from accumulated signals once the site recovers.
TEST(ModelRefreshTest, RefreshesAreSuspendedWhileSiteIsDegraded) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  service_config.breaker.failure_threshold = 1;
  service_config.breaker.open_duration = seconds(5);
  EstimationService service(service_config);
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  std::atomic<bool> fail{false};
  service.RegisterSite("a", [&]() -> double {
    if (fail.load()) throw std::runtime_error("site down");
    return 0.5;
  });
  ASSERT_TRUE(service.ProbeNow("a"));

  // Trip the breaker: the site is degraded.
  fail.store(true);
  EXPECT_FALSE(service.ProbeNow("a"));
  ASSERT_TRUE(service.IsSiteDegraded("a"));

  LinearSource source(6.0, 37);
  ModelRefreshConfig config = TestConfig(&clock);
  config.min_reports = 4;
  config.drift_window = 4;
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  Rng rng(41);
  auto report = [&] {
    const double x = rng.Uniform(1.0, 10.0);
    daemon.ReportObserved("a", kCls, FeatureVector(x), 6.0 * x);
  };

  // Plenty of high-error reports, but the degraded site suspends every trip:
  // nothing is scheduled, no attempt is burned, no sample is drawn.
  for (int i = 0; i < 10; ++i) report();
  ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 0u);
  EXPECT_EQ(stats.refresh_failures, 0u);
  EXPECT_GE(stats.refreshes_suspended, 1u);
  EXPECT_EQ(source.draws(), 0);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 0);

  // The site recovers: half-open trial closes the breaker, and the signals
  // that kept accumulating re-trip a real refresh on the next report.
  fail.store(false);
  clock.Advance(seconds(6));
  ASSERT_TRUE(service.ProbeNow("a"));
  ASSERT_FALSE(service.IsSiteDegraded("a"));
  int reports = 0;
  while (daemon.Stats().refreshes_succeeded < 1 && reports < 20) {
    report();
    ++reports;
  }
  stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_GT(source.draws(), 0);
  EXPECT_NEAR(service.Estimate(Request("a", 3.0)).estimate_seconds, 18.0,
              1e-3);
}

}  // namespace
}  // namespace mscm::runtime
