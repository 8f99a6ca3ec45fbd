// Site lifecycle: UnregisterSite and everything that must not survive it.
//
// A dynamic multidatabase federation churns — sites join, serve, degrade and
// leave — so retirement is a first-class runtime operation, not a teardown
// special case (DESIGN §7). These tests pin the retirement contract:
// models, tracker and stale flags all go; monotone counters (probes, breaker
// opens, latency samples) all stay; nothing a retiring site left in flight —
// estimates, refreshes, feedback stragglers — can crash, resurrect the
// site, or bend a conservation invariant; and a tracker freed by the epoch
// domain's reclamation drains its own published reading without deadlock.
//
// Also pins two stats-conservation bugs:
//   * sampled hit latency overcounting estimate_latency past requests;
//   * batch latency amortized over every batch item including the invalid
//     ones it never priced.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/observation_source.h"
#include "runtime/epoch.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

constexpr auto kCls = core::QueryClassId::kUnarySeqScan;

std::vector<double> FeatureVector(double x0) {
  std::vector<double> f(core::VariableSet::ForClass(kCls).size(), 0.0);
  f[0] = x0;
  return f;
}

EstimateRequest Request(const std::string& site, double x0,
                        double probing_cost) {
  EstimateRequest request;
  request.site = site;
  request.class_id = kCls;
  request.features = FeatureVector(x0);
  request.probing_cost = probing_cost;
  return request;
}

TEST(SiteLifecycleTest, UnregisterRetiresModelsTrackerAndStaleFlags) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  ASSERT_TRUE(service.Estimate(Request("a", 3.0, -1.0)).ok());
  service.SetModelStale("a", kCls, true);
  ASSERT_TRUE(service.IsModelStale("a", kCls));
  ASSERT_EQ(service.Stats().stale_models, 1u);

  service.UnregisterSite("a");

  // Models gone: the catalog entry cannot be found and estimates fail
  // closed, with or without an explicit probing cost.
  EXPECT_EQ(service.CatalogSnapshot()->Find("a", kCls), nullptr);
  EXPECT_EQ(service.Estimate(Request("a", 3.0, 0.5)).status,
            EstimateStatus::kNoModel);
  EXPECT_EQ(service.Estimate(Request("a", 3.0, -1.0)).status,
            EstimateStatus::kNoModel);
  // Tracker gone: no reading, no degraded state, probes refused.
  EXPECT_FALSE(service.ProbeNow("a"));
  EXPECT_FALSE(service.CurrentProbe("a").has_value);
  EXPECT_FALSE(service.IsSiteDegraded("a"));
  // Stale flag gone (nothing will ever refresh the key now).
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  EXPECT_EQ(service.Stats().stale_models, 0u);
  EXPECT_EQ(service.Stats().sites_retired, 1u);
}

TEST(SiteLifecycleTest, UnregisterIsIdempotentAndCountsKnownSitesOnce) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.UnregisterSite("a");
  service.UnregisterSite("a");          // second retirement: no-op
  service.UnregisterSite("never-was");  // unknown site: no-op
  EXPECT_EQ(service.Stats().sites_retired, 1u);

  // A site that was only a tracker (no models) still counts as retired.
  service.RegisterSite("probe-only", [] { return 0.5; });
  service.UnregisterSite("probe-only");
  EXPECT_EQ(service.Stats().sites_retired, 2u);
}

TEST(SiteLifecycleTest, ProbeCountersNeverRegressAcrossChurn) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.ProbeNow("a"));
  const uint64_t before = service.Stats().probes;
  ASSERT_GE(before, 3u);

  // Replacing the tracker folds the old one's counts...
  service.RegisterSite("a", [] { return 1.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  const uint64_t after_replace = service.Stats().probes;
  EXPECT_GE(after_replace, before + 1);

  // ...and retiring the site folds the replacement's.
  service.UnregisterSite("a");
  const uint64_t after_retire = service.Stats().probes;
  EXPECT_GE(after_retire, after_replace);

  // Rebirth under the same name keeps extending the same totals.
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {3.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_GE(service.Stats().probes, after_retire + 1);
}

TEST(SiteLifecycleTest, CachedEstimatesCannotOutliveTheSite) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // An answer priced from the old site (tracker-resolved probe).
  const EstimateRequest request = Request("a", 4.0, -1.0);
  const double old_estimate = service.Estimate(request).estimate_seconds;
  ASSERT_TRUE(service.Estimate(request).ok());

  // Retire and re-register the same name with a different ground truth.
  service.UnregisterSite("a");
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {7.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // The reborn site serves its own model; the old answer is unreachable.
  const EstimateResponse reborn = service.Estimate(request);
  ASSERT_TRUE(reborn.ok());
  EXPECT_NE(reborn.estimate_seconds, old_estimate);
  EXPECT_NEAR(reborn.estimate_seconds, 28.0, 1.0);
}

// Pinned regression: a sampled hit-latency path once weighted its samples by
// the wrong clock, so mixed repeated/fresh traffic recorded more latency
// samples than requests. Every single estimate now records exactly one.
TEST(SiteLifecycleTest, HitLatencySamplesNeverExceedRequests) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // Interleave a repeated key with fresh keys: 4096 requests.
  const EstimateRequest hot = Request("a", 4.0, -1.0);
  Rng rng(53);
  for (int i = 0; i < 4096; ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(service.Estimate(hot).ok());
    } else {
      ASSERT_TRUE(
          service.Estimate(Request("a", rng.Uniform(1.0, 1e6), -1.0)).ok());
    }
  }

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 4096u);
  EXPECT_EQ(stats.probe_cache_hits + stats.probe_cache_stale +
                stats.probe_cache_misses + stats.no_model,
            stats.requests);
  EXPECT_EQ(stats.estimate_latency.count, stats.requests);
}

// Pinned regression: EstimateBatch used to amortize the batch's elapsed time
// over every item — including invalid ones it never priced — so a batch with
// rejects recorded more latency samples than priced requests.
TEST(SiteLifecycleTest, BatchLatencyCountsOnlyPricedItems) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));

  std::vector<EstimateRequest> requests;
  for (int i = 0; i < 10; ++i) requests.push_back(Request("a", 2.0, 0.5));
  // NaN features are rejected at the boundary without being priced.
  const EstimateRequest invalid =
      Request("a", std::numeric_limits<double>::quiet_NaN(), 0.5);
  for (int i = 0; i < 6; ++i) requests.push_back(invalid);
  const auto responses = service.EstimateBatch(requests);
  ASSERT_EQ(responses.size(), 16u);
  for (int i = 10; i < 16; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].status,
              EstimateStatus::kInvalidRequest);
  }

  RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.invalid_requests, 6u);
  EXPECT_EQ(stats.estimate_latency.count, 10u);

  // An all-invalid batch prices nothing and records nothing.
  std::vector<EstimateRequest> all_invalid(4, invalid);
  service.EstimateBatch(all_invalid);
  stats = service.Stats();
  EXPECT_EQ(stats.invalid_requests, 10u);
  EXPECT_EQ(stats.estimate_latency.count, 10u);
}

TEST(SiteLifecycleTest, StaleFlagRefusedForUnregisteredModel) {
  EstimationService service;
  // No model for the key: the flag must not latch (a refresh daemon racing
  // UnregisterSite would otherwise leak a stale_models gauge entry that
  // nothing can ever clear).
  service.SetModelStale("ghost", kCls, true);
  EXPECT_FALSE(service.IsModelStale("ghost", kCls));
  EXPECT_EQ(service.Stats().stale_models, 0u);
}

TEST(SiteLifecycleTest, RegisterModelIfActiveRefusesRetiredSite) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  // Live site: publish goes through.
  EXPECT_TRUE(
      service.RegisterModelIfActive("a", test::PiecewiseLinearModel(kCls, {3.0})));
  service.UnregisterSite("a");
  // Retired site: the publish is refused and nothing reappears.
  EXPECT_FALSE(
      service.RegisterModelIfActive("a", test::PiecewiseLinearModel(kCls, {4.0})));
  EXPECT_EQ(service.CatalogSnapshot()->Find("a", kCls), nullptr);
  // A tracker alone (no models yet) counts as live — registration works.
  service.RegisterSite("b", [] { return 0.5; });
  EXPECT_TRUE(
      service.RegisterModelIfActive("b", test::PiecewiseLinearModel(kCls, {2.0})));
}

// An observation source whose first TryDraw blocks until released: holds a
// re-derivation in flight while the test retires the site underneath it.
class GatedSource : public core::ObservationSource {
 public:
  std::optional<core::Observation> TryDraw() override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!gate_used_) {
        started_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        gate_used_ = true;
      }
    }
    return Draw();
  }

  core::Observation Draw() override {
    core::Observation o;
    o.probing_cost = 0.5;
    o.features.assign(core::VariableSet::ForClass(kCls).size(), 0.0);
    o.features[0] = rng_.Uniform(1.0, 10.0);
    o.cost = 3.0 * o.features[0];
    return o;
  }

  void WaitUntilSamplingStarted() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return started_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
  bool gate_used_ = false;
  Rng rng_{61};
};

TEST(SiteLifecycleTest, InFlightRefreshAbandonsInsteadOfResurrecting) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  ModelRefreshConfig refresh_config;
  refresh_config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  refresh_config.rederive.build.sample_size = 20;
  refresh_config.worker_threads = 1;  // the refresh runs in the background
  GatedSource source;
  {
    ModelRefreshDaemon daemon(&service, refresh_config);
    daemon.Watch("a", kCls, &source);
    ASSERT_TRUE(daemon.RequestRefresh("a", kCls));
    source.WaitUntilSamplingStarted();

    // The re-derivation is blocked mid-sample; retire the site under it.
    service.UnregisterSite("a");
    daemon.UnwatchSite("a");
    source.Release();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon.Stats().refreshes_abandoned == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(daemon.Stats().refreshes_abandoned, 1u);
    EXPECT_EQ(daemon.Stats().refreshes_succeeded, 0u);
  }  // daemon dtor drains the in-flight task before the service goes away

  // The finished re-derivation was dropped: the retired site stayed dead.
  EXPECT_EQ(service.CatalogSnapshot()->Find("a", kCls), nullptr);
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  EXPECT_EQ(service.Stats().stale_models, 0u);
}

TEST(SiteLifecycleTest, UnwatchSiteStopsReportsAndRefuseRefresh) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  ModelRefreshDaemon daemon(&service);
  GatedSource source;
  source.Release();  // never gate in this test
  daemon.Watch("a", kCls, &source);
  ASSERT_TRUE(daemon.Status("a", kCls).watched);

  service.SetModelStale("a", kCls, true);
  daemon.UnwatchSite("a");

  EXPECT_FALSE(daemon.Status("a", kCls).watched);
  // Unwatching clears the key's stale flag: nothing will refresh it now.
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  // Straggling feedback for the unwatched key is ignored, not resurrected.
  const uint64_t ignored_before = daemon.Stats().ignored_reports;
  daemon.ReportObserved("a", kCls, FeatureVector(2.0), 4.0);
  EXPECT_EQ(daemon.Stats().ignored_reports, ignored_before + 1);
  EXPECT_FALSE(daemon.RequestRefresh("a", kCls));
}

// Churn under fire: one thread retires and re-registers sites while readers
// estimate and a prober probes. Pins that no lifecycle interleaving crashes,
// serves an impossible status, or makes a monotone counter regress.
TEST(SiteLifecycleTest, UnregisterRacesRegistrationProbesAndReaders) {
  EstimationService service;
  const std::vector<std::string> sites = {"s0", "s1", "s2", "s3"};
  for (const auto& site : sites) {
    service.RegisterModel(site, test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
    service.RegisterSite(site, [] { return 0.5; });
    service.ProbeNow(site);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> explicit_priced{0};
  std::thread churner([&] {
    for (int i = 0; i < 200; ++i) {
      const std::string& site = sites[static_cast<size_t>(i) % sites.size()];
      service.UnregisterSite(site);
      service.RegisterSite(site, [] { return 0.5; });
      service.RegisterModel(site,
                            test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
      service.ProbeNow(site);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(71 + t);
      uint64_t i = 0;
      uint64_t local_explicit_priced = 0;
      while (!stop.load()) {
        const std::string& site = sites[i++ % sites.size()];
        const double probe = (i % 2 == 0) ? -1.0 : 0.5;
        const EstimateResponse r =
            service.Estimate(Request(site, rng.Uniform(1.0, 10.0), probe));
        // Mid-churn a request may find no model or no probe — never an
        // invalid-request or a torn response.
        ASSERT_TRUE(r.status == EstimateStatus::kOk ||
                    r.status == EstimateStatus::kNoModel ||
                    r.status == EstimateStatus::kNoProbe);
        if (probe >= 0.0 && r.ok()) ++local_explicit_priced;
      }
      explicit_priced.fetch_add(local_explicit_priced);
    });
  }
  std::thread prober([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      service.ProbeNow(sites[i++ % sites.size()]);
    }
  });

  // Monotonicity watchdog: every counter row only ever moves forward (gauge
  // rows legitimately move both ways).
  RuntimeStatsSnapshot last = service.Stats();
  while (!stop.load()) {
    const RuntimeStatsSnapshot now = service.Stats();
    for (const auto& field : StatsCounterFields()) {
      if (field.kind != StatKind::kCounter) continue;
      EXPECT_GE(now.*(field.field), last.*(field.field)) << field.name;
    }
    last = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  churner.join();
  prober.join();
  for (auto& reader : readers) reader.join();

  // Quiesced: every site ends registered and serving.
  for (const auto& site : sites) {
    ASSERT_TRUE(service.ProbeNow(site));
    EXPECT_TRUE(service.Estimate(Request(site, 4.0, -1.0)).ok());
  }
  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_GE(stats.sites_retired, 200u);
  // Conservation: every request is counted exactly once. One without a
  // model counts under no_model on either path; a tracker-resolved one with
  // a model lands in one probe outcome; an explicit-probe one with a model
  // reads no probe, so the readers count those themselves.
  EXPECT_EQ(stats.requests,
            stats.probe_cache_hits + stats.probe_cache_stale +
                stats.probe_cache_misses + stats.no_model +
                explicit_priced.load());
  EXPECT_EQ(stats.estimate_latency.count, stats.requests);
}

// A replaced tracker can die inside the epoch domain's reclamation: once
// RegisterSite returns, a retired tracker map that a reader still pinned is
// its last owner, so the reclamation that frees the map destroys the
// tracker, and the tracker's published reading drains the domain again
// from inside that reclamation. The nested drain must neither deadlock nor
// stall while other readers keep pinning the epoch.
TEST(SiteLifecycleTest, TrackerFreedByARetiredMapDrainsWithoutStalling) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  // The tracker owns its probe function, so a token the probe captures
  // lives exactly as long as the tracker.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> old_tracker_alive = token;
  service.RegisterSite("a", [token] { return 0.5; });
  token.reset();
  ASSERT_TRUE(service.ProbeNow("a"));

  // A reader pins the epoch across the replacement, so the retired map
  // outlives RegisterSite and is the replaced tracker's last owner.
  std::mutex mutex;
  std::condition_variable cv;
  bool pinned = false;
  bool release = false;
  std::thread pinner([&] {
    const EpochGuard guard;
    std::unique_lock<std::mutex> lock(mutex);
    pinned = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return pinned; });
  }
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(old_tracker_alive.expired());
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pinner.join();

  // Readers keep pinning while probes publish; each publication reclaims
  // what the domain can free, the retired map and its tracker included.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        EXPECT_TRUE(service.Estimate(Request("a", 3.0, -1.0)).ok());
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!old_tracker_alive.expired() &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(service.ProbeNow("a"));
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_TRUE(old_tracker_alive.expired());
  EXPECT_TRUE(service.Estimate(Request("a", 3.0, -1.0)).ok());
}

}  // namespace
}  // namespace mscm::runtime
