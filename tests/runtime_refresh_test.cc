#include "runtime/model_refresh.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/adaptation.h"
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

// Small, deterministic daemon config: inline refreshes (the daemon has no
// workers), single-state re-derivation.
ModelRefreshConfig TestConfig(Clock* clock) {
  ModelRefreshConfig config;
  config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  config.rederive.build.sample_size = 60;
  config.clock = clock;
  return config;
}

TEST(ModelRefreshTest, RequestRefreshRederivesAndSwapsAtomically) {
  FakeClock clock;
  EstimationServiceConfig service_config;
  service_config.clock = &clock;
  EstimationService service(service_config);
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // The environment has shifted: queries now cost 6x, the model says 2x.
  LinearSource source(6.0, 11);
  ModelRefreshConfig config = TestConfig(&clock);
  config.refresh_cooldown = seconds(1);
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  // Inline pool: the re-derivation runs inside the request.
  ASSERT_TRUE(daemon.RequestRefresh("a", kCls));
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 1u);
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_EQ(stats.refresh_failures, 0u);
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

  // The cooldown after a success refuses requests until it has passed.
  EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
  clock.Advance(milliseconds(1100));
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refreshes_succeeded, 2u);
}

// The daemon has no drift signal of its own: the adaptation controller's
// state-distribution check is what hands it a drifted key. Here the reports
// carry no probing cost, so their contention state is the site probe's.
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
  ModelRefreshDaemon daemon(&service, TestConfig(&clock));
  daemon.Watch("a", kCls, &source);

  AdaptationConfig adaptation;
  adaptation.min_updates_to_publish = 100000;  // never publish
  adaptation.stall_window = 100000;            // never stall
  adaptation.drift_threshold = 0.6;
  adaptation.drift_window = 8;
  adaptation.min_samples_for_drift = 8;
  AdaptationController controller(&service, &daemon, adaptation);

  Rng rng(7);
  auto report = [&] {
    FeedbackReport r;
    r.site = "a";
    r.class_id = kCls;
    const double x = rng.Uniform(1.0, 10.0);
    r.features = FeatureVector(x);
    r.actual_cost = 2.0 * x;
    ASSERT_TRUE(controller.Record(r));
    controller.DrainOnce();
  };

  // Baseline window: the site sits in state 0.
  for (size_t i = 0; i < adaptation.min_samples_for_drift; ++i) report();
  EXPECT_EQ(controller.Stats().escalations, 0u);
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 0u);

  // Contention jumps into state 1 and stays there; estimates are still
  // accurate, but the environment left the region the baseline saw.
  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  int reports = 0;
  while (daemon.Stats().refreshes_scheduled < 1 && reports < 50) {
    report();
    ++reports;
  }

  EXPECT_EQ(controller.Stats().escalations, 1u);
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 1u);
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_EQ(stats.refresh_failures, 0u);
  EXPECT_LE(reports, static_cast<int>(adaptation.drift_window) + 2);
  EXPECT_GT(source.draws(), 0);

  // The re-derived model serves the drifted site.
  const EstimateResponse after = service.Estimate(Request("a", 3.0));
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.estimate_seconds, 6.0, 1e-3);
  EXPECT_FALSE(after.stale_model);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
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
  config.max_attempts = 3;
  config.initial_backoff = milliseconds(100);
  config.backoff_multiplier = 2.0;
  config.max_backoff = seconds(1);
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  // First request: the inline refresh fails; the old model keeps serving,
  // flagged stale, and the key backs off.
  ASSERT_TRUE(daemon.RequestRefresh("a", kCls));
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

  // Requests inside the backoff window must not schedule another attempt.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 1u);

  // Past the 100ms backoff the next request runs: failure #2, backoff
  // doubles to 200ms.
  clock.Advance(milliseconds(150));
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refresh_failures, 2u);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 2);

  // 150ms < 200ms: still backed off.
  clock.Advance(milliseconds(150));
  EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 2u);

  // Another 100ms crosses the 200ms mark: failure #3.
  clock.Advance(milliseconds(100));
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refresh_failures, 3u);

  // The site comes back; after the 400ms backoff the next request succeeds
  // and the key returns to fresh with the drift-corrected model.
  source.set_fail(false);
  clock.Advance(milliseconds(450));
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
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

TEST(ModelRefreshTest, UnwatchedKeyRefusesRefresh) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  ModelRefreshDaemon daemon(&service, {});

  // Never watched.
  EXPECT_FALSE(daemon.RequestRefresh("ghost", kCls));
  EXPECT_FALSE(daemon.Status("ghost", kCls).watched);

  // Watched, then unwatched: the key refuses requests and its source is
  // never sampled.
  LinearSource source(2.0, 3);
  daemon.Watch("a", kCls, &source);
  ASSERT_TRUE(daemon.Status("a", kCls).watched);
  daemon.Unwatch("a", kCls);
  EXPECT_FALSE(daemon.Status("a", kCls).watched);
  EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 0u);
  EXPECT_EQ(source.draws(), 0);
}

// Estimates must never block on (or tear under) a concurrent refresh: while
// requesters drive the daemon into repeated re-derivations on the worker
// pool, readers see either the old model (2x) or a re-derived one (~6x) —
// never an error, never a mix. Run under MSCM_SANITIZE=thread.
TEST(ModelRefreshTest, ConcurrentRefreshesAndEstimatesAreSafe) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  LinearSource source(6.0, 23);
  ModelRefreshConfig config = TestConfig(Clock::System());
  config.refresh_cooldown = milliseconds(1);  // allow repeated refreshes
  config.rederive.build.sample_size = 30;
  config.worker_threads = 2;  // refreshes run on background workers
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  std::atomic<bool> stop{false};
  std::vector<std::thread> requesters;
  for (int t = 0; t < 2; ++t) {
    requesters.emplace_back([&] {
      for (int i = 0; i < 400 && !stop.load(); ++i) {
        daemon.RequestRefresh("a", kCls);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
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
  for (auto& t : requesters) t.join();
  for (auto& t : readers) t.join();

  // A scheduled refresh may still be in flight on the worker pool when the
  // threads join; give it a deadline to land before asserting.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.Stats().refreshes_succeeded == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const ModelRefreshStats stats = daemon.Stats();
  EXPECT_GT(stats.refreshes_scheduled, 0u);
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
  config.initial_backoff = milliseconds(100);
  ModelRefreshDaemon daemon(&service, config);
  daemon.Watch("a", kCls, &source);

  // The request runs an inline refresh; the thrown exception must surface
  // as a counted failure with the key backed off — not as a crash.
  ASSERT_TRUE(daemon.RequestRefresh("a", kCls));
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
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
  stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_EQ(stats.refresh_exceptions, 1u);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_NEAR(service.Estimate(Request("a", 3.0)).estimate_seconds, 18.0,
              1e-3);
}

// While a site's probe breaker is open, re-deriving its model from fresh
// samples is pointless (the same site is unreachable) — the daemon
// suspends the request instead of burning a failed attempt, and a request
// after the site recovers runs a real refresh.
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
  ModelRefreshDaemon daemon(&service, TestConfig(&clock));
  daemon.Watch("a", kCls, &source);

  // Plenty of requests, but the degraded site suspends every one: nothing
  // is scheduled, no attempt is burned, no sample is drawn, and the model
  // is not flagged stale.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
  ModelRefreshStats stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_scheduled, 0u);
  EXPECT_EQ(stats.refresh_failures, 0u);
  EXPECT_EQ(stats.refreshes_suspended, 10u);
  EXPECT_EQ(source.draws(), 0);
  EXPECT_EQ(daemon.Status("a", kCls).attempts, 0);
  EXPECT_FALSE(service.IsModelStale("a", kCls));

  // The site recovers: the half-open trial closes the breaker, and the
  // next request runs a real refresh.
  fail.store(false);
  clock.Advance(seconds(6));
  ASSERT_TRUE(service.ProbeNow("a"));
  ASSERT_FALSE(service.IsSiteDegraded("a"));
  EXPECT_TRUE(daemon.RequestRefresh("a", kCls));
  stats = daemon.Stats();
  EXPECT_EQ(stats.refreshes_succeeded, 1u);
  EXPECT_GT(source.draws(), 0);
  EXPECT_NEAR(service.Estimate(Request("a", 3.0)).estimate_seconds, 18.0,
              1e-3);
}

}  // namespace
}  // namespace mscm::runtime
