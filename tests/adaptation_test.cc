// AdaptationController: the fast RLS tier of the two-tier adaptation path.
// Covers the publish path (generation bump, per-state row swap, estimate
// convergence), the shared-nothing record contract (zero shared atomic RMWs
// on the ring path, pinned with RmwProbe), bit-identical serving of the
// states a swap left alone, lineage resets against full re-derivations,
// escalation into the refresh daemon, and the feedback ring's bounded-drop
// behaviour.

#include "runtime/adaptation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"
#include "runtime/rmw_probe.h"
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

FeedbackReport Report(const std::string& site, double x0, double actual,
                      double probing_cost) {
  FeedbackReport report;
  report.site = site;
  report.class_id = kCls;
  report.features = FeatureVector(x0);
  report.actual_cost = actual;
  report.probing_cost = probing_cost;
  return report;
}

// Tight deterministic config: tiny publish threshold, generous escalation
// thresholds so only the paths under test fire.
AdaptationConfig TestConfig() {
  AdaptationConfig config;
  config.min_updates_to_publish = 8;
  config.rls.forgetting = 0.98;
  config.stall_window = 100000;
  config.drift_threshold = 1.1;  // unreachable: total variation is <= 1
  config.min_samples_for_drift = 100000;
  return config;
}

TEST(AdaptationControllerTest, PublishesAdaptedRowAndBumpsGeneration) {
  EstimationService service;
  // State 0 serves 2x; the environment has drifted to 3x.
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
  AdaptationController controller(&service, nullptr, TestConfig());

  EXPECT_EQ(service.Estimate(Request("a", 4.0, 0.5)).model_generation, 0u);

  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    ASSERT_TRUE(controller.Record(Report("a", x, 3.0 * x, 0.5)));
  }
  EXPECT_EQ(controller.DrainOnce(), 32u);

  const AdaptationStats stats = controller.Stats();
  EXPECT_EQ(stats.accepted, 32u);
  EXPECT_EQ(stats.drained, 32u);
  EXPECT_GE(stats.updates_applied, 8u);
  EXPECT_GE(stats.adaptations_published, 1u);
  EXPECT_EQ(stats.escalations, 0u);

  const EstimateResponse adapted = service.Estimate(Request("a", 4.0, 0.5));
  ASSERT_TRUE(adapted.ok());
  EXPECT_GE(adapted.model_generation, 1u);
  // The adapted row tracks the new environment, not the seed fit.
  EXPECT_NEAR(adapted.estimate_seconds, 12.0, 1.0);

  EXPECT_EQ(service.Stats().adaptations_applied,
            controller.Stats().adaptations_published);
}

TEST(AdaptationControllerTest, OnlyFedStateMovesOthersStayBitIdentical) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
  AdaptationController controller(&service, nullptr, TestConfig());

  const double before_state1 =
      service.Estimate(Request("a", 4.0, 1.5)).estimate_seconds;

  Rng rng(13);
  for (int i = 0; i < 32; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 3.0 * x, 0.5));  // state 0 only
  }
  controller.DrainOnce();
  ASSERT_GE(controller.Stats().adaptations_published, 1u);

  // State 1's row was not part of the swap: bit-identical serving.
  EXPECT_EQ(service.Estimate(Request("a", 4.0, 1.5)).estimate_seconds,
            before_state1);
  // State 0 moved.
  EXPECT_NE(service.Estimate(Request("a", 4.0, 0.5)).estimate_seconds, 8.0);
}

TEST(AdaptationControllerTest, RecordPathIsZeroSharedRmw) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationConfig config = TestConfig();
  config.buffer_capacity = 4096;
  AdaptationController controller(&service, nullptr, config);

  // Warm-up: creates this thread's ring (owner-created, one-time).
  ASSERT_TRUE(controller.Record(Report("a", 1.0, 2.0, 0.5)));

  const FeedbackReport report = Report("a", 2.0, 4.0, 0.5);
  const uint64_t before = RmwProbe::Current();
  for (int i = 0; i < 1000; ++i) controller.Record(report);
  EXPECT_EQ(RmwProbe::Current(), before);  // the PR 7 shared-nothing contract
}

TEST(AdaptationControllerTest, TrackerResolvedOtherStateSurvivesSwap) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
  service.RegisterSite("a", [] { return 1.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // A state-1 estimate priced from the site's probe reading.
  const EstimateRequest request = Request("a", 4.0, -1.0);
  const EstimateResponse before = service.Estimate(request);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.state, 1);

  // Adapt state 0 only (explicit probing cost keeps the drain off the
  // tracker path).
  AdaptationController controller(&service, nullptr, TestConfig());
  Rng rng(17);
  for (int i = 0; i < 32; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 3.0 * x, 0.5));
  }
  controller.DrainOnce();
  ASSERT_GE(controller.Stats().adaptations_published, 1u);

  // Adapting state 0 leaves state 1's estimate bit-identical, priced by the
  // swapped-in model.
  const EstimateResponse after = service.Estimate(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(after.estimate_seconds),
            std::bit_cast<uint64_t>(before.estimate_seconds));
  EXPECT_GT(after.model_generation, before.model_generation);
}

TEST(AdaptationControllerTest, FullRederivePublishResetsLineage) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationController controller(&service, nullptr, TestConfig());

  Rng rng(19);
  for (int i = 0; i < 16; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 3.0 * x, 0.5));
  }
  controller.DrainOnce();
  ASSERT_GE(controller.Stats().adaptations_published, 1u);
  ASSERT_GE(service.Estimate(Request("a", 1.0, 0.5)).model_generation, 1u);

  // The slow tier lands: a full re-derivation resets the lineage to 0.
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {3.0}));
  EXPECT_EQ(service.Estimate(Request("a", 1.0, 0.5)).model_generation, 0u);

  // The next drain notices the new lineage, re-seeds, and keeps adapting
  // against it rather than resurrecting the orphaned accumulators.
  for (int i = 0; i < 16; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 4.0 * x, 0.5));
  }
  controller.DrainOnce();
  EXPECT_GE(controller.Stats().lineage_resets, 1u);
  const EstimateResponse after = service.Estimate(Request("a", 4.0, 0.5));
  EXPECT_GE(after.model_generation, 1u);
  EXPECT_NEAR(after.estimate_seconds, 16.0, 2.0);
}

TEST(AdaptationControllerTest, ErrorStallEscalatesToRefreshDaemon) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  ModelRefreshConfig daemon_config;
  daemon_config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  daemon_config.rederive.build.sample_size = 60;
  ModelRefreshDaemon daemon(&service, daemon_config);
  // Watched source: the re-derivation samples the drifted environment.
  class : public core::ObservationSource {
   public:
    std::optional<core::Observation> TryDraw() override { return Draw(); }
    core::Observation Draw() override {
      core::Observation o;
      o.probing_cost = 0.5;
      o.features.resize(core::VariableSet::ForClass(kCls).size());
      for (auto& f : o.features) f = rng_.Uniform(1.0, 10.0);
      o.cost = 40.0 * o.features[0] * o.features[0];  // structurally different
      return o;
    }

   private:
    Rng rng_{23};
  } source;
  daemon.Watch("a", kCls, &source);

  AdaptationConfig config = TestConfig();
  config.stall_window = 8;
  config.stall_error_threshold = 0.5;
  config.min_updates_to_publish = 100000;  // never publish, only stall
  AdaptationController controller(&service, &daemon, config);

  const double truth = 40.0 * 3.0 * 3.0;
  const double before =
      service.Estimate(Request("a", 3.0, 0.5)).estimate_seconds;

  // A quadratic environment a linear row cannot fit: the EWMA never
  // improves past the threshold, so the fast tier must hand over.
  Rng rng(29);
  int reports = 0;
  for (int round = 0; round < 8 && controller.Stats().escalations == 0;
       ++round) {
    for (int i = 0; i < 16; ++i) {
      const double x = rng.Uniform(1.0, 10.0);
      controller.Record(Report("a", x, 40.0 * x * x, 0.5));
      ++reports;
    }
    controller.DrainOnce();
  }
  // The stall shows within the first drained round: stall_window + 1
  // reports after seeding.
  EXPECT_LE(reports, 16);
  EXPECT_EQ(controller.Stats().escalations, 1u);
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 1u);
  // Inline pool (zero workers): the re-derivation already ran.
  EXPECT_EQ(daemon.Stats().refreshes_succeeded, 1u);
  EXPECT_EQ(daemon.Stats().refresh_failures, 0u);
  // Escalation resets the lineage; the next report re-seeds.
  EXPECT_FALSE(controller.Status("a", kCls).seeded);

  // The swapped-in base fit serves: the key is fresh, the stale flag is
  // gone, and the estimate moved to the sampled environment.
  const EstimateResponse after = service.Estimate(Request("a", 3.0, 0.5));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.stale_model);
  EXPECT_EQ(after.model_generation, 0u);
  EXPECT_LT(std::abs(after.estimate_seconds - truth),
            0.5 * std::abs(before - truth));
  EXPECT_FALSE(service.IsModelStale("a", kCls));
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
}

// A refused escalation is no escalation: here the daemon refuses because
// the key is not watched. The key keeps its group, signals and RLS
// accumulators across drains, and asks again while its error stalls.
TEST(AdaptationControllerTest, RefusedEscalationKeepsTheGroup) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  ModelRefreshDaemon daemon(&service);  // "a" is never watched

  AdaptationConfig config = TestConfig();
  config.stall_window = 8;
  config.stall_error_threshold = 0.5;
  config.min_updates_to_publish = 100000;  // never publish, only stall
  AdaptationController controller(&service, &daemon, config);

  Rng rng(29);
  size_t reports = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      const double x = rng.Uniform(1.0, 10.0);
      controller.Record(Report("a", x, 40.0 * x * x, 0.5));
      ++reports;
    }
    controller.DrainOnce();
    const AdaptationStats stats = controller.Stats();
    EXPECT_EQ(stats.escalations, 0u);
    EXPECT_GE(stats.escalations_refused, 1u);
    const AdaptationKeyStatus status = controller.Status("a", kCls);
    EXPECT_TRUE(status.seeded);
    EXPECT_EQ(status.samples, reports);  // every report since the seed
  }
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 0u);
}

TEST(AdaptationControllerTest, StateDistributionDriftEscalates) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 5.0}));

  ModelRefreshConfig daemon_config;
  daemon_config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  daemon_config.rederive.build.sample_size = 60;
  ModelRefreshDaemon daemon(&service, daemon_config);
  // The re-derivation samples where the environment now lives: state 1's
  // probing costs, at state 1's 5x law.
  class : public core::ObservationSource {
   public:
    std::optional<core::Observation> TryDraw() override { return Draw(); }
    core::Observation Draw() override {
      core::Observation o;
      o.probing_cost = rng_.Uniform(1.2, 1.8);
      o.features.resize(core::VariableSet::ForClass(kCls).size());
      for (auto& f : o.features) f = rng_.Uniform(1.0, 10.0);
      o.cost = 5.0 * o.features[0];
      return o;
    }

   private:
    Rng rng_{37};
  } source;
  daemon.Watch("a", kCls, &source);

  AdaptationConfig config = TestConfig();
  config.min_updates_to_publish = 100000;
  config.min_samples_for_drift = 8;
  config.drift_window = 8;
  config.drift_threshold = 0.6;
  AdaptationController controller(&service, &daemon, config);

  Rng rng(31);
  // Baseline: all state 0 (estimates are accurate — no error stall).
  for (int i = 0; i < 8; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 2.0 * x, 0.5));
  }
  controller.DrainOnce();
  EXPECT_EQ(controller.Stats().escalations, 0u);
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 0u);
  // The environment moves to state 1: recent window fully disjoint. The
  // estimates there are accurate too, so only the drift signal can fire,
  // and it fires on the first drain of the disjoint window.
  for (int i = 0; i < 8; ++i) {
    const double x = rng.Uniform(1.0, 10.0);
    controller.Record(Report("a", x, 5.0 * x, 1.5));
  }
  controller.DrainOnce();
  EXPECT_EQ(controller.Stats().escalations, 1u);
  EXPECT_EQ(daemon.Stats().refreshes_scheduled, 1u);
  EXPECT_EQ(daemon.Stats().refreshes_succeeded, 1u);

  // The re-derived single-state model serves the drifted region.
  const EstimateResponse after = service.Estimate(Request("a", 4.0, 1.5));
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after.estimate_seconds, 20.0, 1e-3);
  EXPECT_EQ(after.model_generation, 0u);
  EXPECT_FALSE(after.stale_model);
  EXPECT_EQ(daemon.Status("a", kCls).state, RefreshState::kFresh);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
}

TEST(AdaptationControllerTest, CovarianceBlowUpEscalates) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationConfig config = TestConfig();
  config.min_updates_to_publish = 100000;
  config.rls.forgetting = 0.5;            // aggressive forgetting
  config.rls.covariance_trace_limit = 1e6;
  AdaptationController controller(&service, nullptr, config);

  // A persistently non-exciting regressor (x0 = 0) winds the covariance up
  // under heavy forgetting until the trace guard latches.
  for (int round = 0; round < 20 && controller.Stats().escalations == 0;
       ++round) {
    for (int i = 0; i < 16; ++i) {
      controller.Record(Report("a", 0.0, 1.0, 0.5));
    }
    controller.DrainOnce();
  }
  EXPECT_GE(controller.Stats().escalations, 1u);
}

TEST(AdaptationControllerTest, FullRingDropsInsteadOfBlocking) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationConfig config = TestConfig();
  config.buffer_capacity = 4;
  AdaptationController controller(&service, nullptr, config);

  for (int i = 0; i < 10; ++i) {
    controller.Record(Report("a", 1.0, 2.0, 0.5));
  }
  const AdaptationStats stats = controller.Stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.dropped, 6u);

  // Draining frees the ring for the next burst.
  EXPECT_EQ(controller.DrainOnce(), 4u);
  EXPECT_TRUE(controller.Record(Report("a", 1.0, 2.0, 0.5)));
}

TEST(AdaptationControllerTest, RejectsInvalidReportsFailClosed) {
  EstimationService service;
  AdaptationController controller(&service, nullptr, TestConfig());

  FeedbackReport nan_cost = Report("a", 1.0, 2.0, 0.5);
  nan_cost.actual_cost = std::nan("");
  EXPECT_FALSE(controller.Record(nan_cost));

  FeedbackReport negative = Report("a", 1.0, -1.0, 0.5);
  EXPECT_FALSE(controller.Record(negative));

  FeedbackReport inf_feature = Report("a", 1.0, 2.0, 0.5);
  inf_feature.features[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(controller.Record(inf_feature));

  FeedbackReport long_site = Report(std::string(100, 's'), 1.0, 2.0, 0.5);
  EXPECT_FALSE(controller.Record(long_site));

  FeedbackReport wide = Report("a", 1.0, 2.0, 0.5);
  wide.features.assign(AdaptationController::kMaxFeatures + 1, 1.0);
  EXPECT_FALSE(controller.Record(wide));

  EXPECT_EQ(controller.Stats().rejected, 5u);
  EXPECT_EQ(controller.Stats().accepted, 0u);
}

TEST(AdaptationControllerTest, ConcurrentRecordersWithBackgroundDrain) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
  AdaptationConfig config = TestConfig();
  config.start_thread = true;
  config.drain_interval = std::chrono::milliseconds(1);
  AdaptationController controller(&service, nullptr, config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&controller, &service, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const double x = rng.Uniform(1.0, 10.0);
        const double probe = (i % 2 == 0) ? 0.5 : 1.5;
        const double slope = (i % 2 == 0) ? 3.0 : 6.0;
        FeedbackReport report = Report("a", x, slope * x, probe);
        // Echo the generation the estimate was priced under (the client
        // contract); the background drain publishes concurrently, so an
        // unstamped report would read as ever-staler lineage.
        report.model_generation =
            service.Estimate(Request("a", x, probe)).model_generation;
        controller.Record(report);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  controller.Stop();  // drains once more

  const AdaptationStats stats = controller.Stats();
  EXPECT_EQ(stats.accepted + stats.dropped,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.drained, stats.accepted);
  EXPECT_GE(stats.adaptations_published, 1u);
  // Both fed states converged toward the shifted environment.
  EXPECT_NEAR(service.Estimate(Request("a", 4.0, 0.5)).estimate_seconds, 12.0,
              2.0);
  EXPECT_NEAR(service.Estimate(Request("a", 4.0, 1.5)).estimate_seconds, 24.0,
              4.0);
}

// Bumps "a"'s serving generation by `n` via direct adapted publishes.
void BumpGenerations(EstimationService& service, int n) {
  for (int i = 0; i < n; ++i) {
    const auto snapshot = service.CatalogSnapshot();
    const core::CostModel* current = snapshot->Find("a", kCls);
    ASSERT_NE(current, nullptr);
    const auto adapted = current->ApplyFeedback(0, FeatureVector(2.0), 7.0);
    ASSERT_TRUE(adapted.has_value());
    ASSERT_TRUE(
        service.ApplyAdaptedModel("a", *adapted, current->generation()));
  }
}

TEST(AdaptationControllerTest, StaleGenerationReportsDiscarded) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationConfig config = TestConfig();
  config.generation_discard_lag = 2;
  AdaptationController controller(&service, nullptr, config);

  BumpGenerations(service, 3);  // serving lineage is now generation 3

  // A straggler priced under the base fit: 3 generations behind, past the
  // discard threshold — it must never reach an estimator.
  FeedbackReport stale = Report("a", 2.0, 4.0, 0.5);
  stale.model_generation = 0;
  ASSERT_TRUE(controller.Record(stale));
  EXPECT_EQ(controller.DrainOnce(), 1u);

  const AdaptationStats stats = controller.Stats();
  EXPECT_EQ(stats.stale_gen_discarded, 1u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.max_generation_lag, 3u);
  // Discard happens before group creation: nothing was pinned.
  EXPECT_EQ(controller.NumGroups(), 0u);
}

TEST(AdaptationControllerTest, LaggedReportsFoldInDownweighted) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  AdaptationConfig config = TestConfig();
  config.generation_discard_lag = 4;
  AdaptationController controller(&service, nullptr, config);

  BumpGenerations(service, 1);  // serving lineage is now generation 1

  // One generation behind: tolerated, but folded at reduced RLS weight.
  FeedbackReport lagged = Report("a", 2.0, 4.0, 0.5);
  lagged.model_generation = 0;
  ASSERT_TRUE(controller.Record(lagged));
  // A fresh report at the serving generation: full weight.
  FeedbackReport fresh = Report("a", 3.0, 6.0, 0.5);
  fresh.model_generation = 1;
  ASSERT_TRUE(controller.Record(fresh));
  EXPECT_EQ(controller.DrainOnce(), 2u);

  const AdaptationStats stats = controller.Stats();
  EXPECT_EQ(stats.stale_gen_discarded, 0u);
  EXPECT_EQ(stats.stale_gen_downweighted, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.max_generation_lag, 1u);
  // The key status surfaces the lag of the most recent fold.
  EXPECT_EQ(controller.Status("a", kCls).generation_lag, 0u);
}

TEST(AdaptationControllerTest, DetachSiteDropsGroupsAndStragglersDoNotLeak) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));
  service.RegisterModel("b", test::PiecewiseLinearModel(kCls, {3.0}));
  AdaptationController controller(&service, nullptr, TestConfig());

  controller.Record(Report("a", 2.0, 4.0, 0.5));
  controller.Record(Report("b", 2.0, 6.0, 0.5));
  controller.DrainOnce();
  EXPECT_EQ(controller.NumGroups(), 2u);

  controller.DetachSite("a");
  EXPECT_EQ(controller.NumGroups(), 1u);
  EXPECT_FALSE(controller.Status("a", kCls).seeded);
  EXPECT_TRUE(controller.Status("b", kCls).seeded);

  // Site retired for real: straggling feedback drains as ignored without
  // re-pinning a group (the pre-fix behaviour leaked one per key, forever).
  service.UnregisterSite("a");
  controller.Record(Report("a", 2.0, 4.0, 0.5));
  controller.DrainOnce();
  EXPECT_EQ(controller.NumGroups(), 1u);
  EXPECT_GE(controller.Stats().ignored, 1u);
}

TEST(EstimationServiceAdaptationTest, ApplyAdaptedModelGuardsLineage) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));

  const auto snapshot = service.CatalogSnapshot();
  const core::CostModel* current = snapshot->Find("a", kCls);
  ASSERT_NE(current, nullptr);
  const auto adapted =
      current->ApplyFeedback(0, FeatureVector(2.0), 7.0);
  ASSERT_TRUE(adapted.has_value());

  // Wrong expected generation: the publish is refused, nothing swaps.
  EXPECT_FALSE(service.ApplyAdaptedModel("a", *adapted, 5));
  EXPECT_EQ(service.Stats().adaptations_applied, 0u);
  // Unknown site: refused.
  EXPECT_FALSE(service.ApplyAdaptedModel("ghost", *adapted, 0));

  EXPECT_TRUE(service.ApplyAdaptedModel("a", *adapted, 0));
  EXPECT_EQ(service.Stats().adaptations_applied, 1u);
  EXPECT_EQ(service.Estimate(Request("a", 1.0, 0.5)).model_generation, 1u);

  // Replaying against the old lineage loses the race.
  EXPECT_FALSE(service.ApplyAdaptedModel("a", *adapted, 0));
}

TEST(EstimationServiceAdaptationTest, GenerationStampedOnBatchResponses) {
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(kCls, {2.0}));

  const auto snapshot = service.CatalogSnapshot();
  const auto adapted =
      snapshot->Find("a", kCls)->ApplyFeedback(0, FeatureVector(2.0), 7.0);
  ASSERT_TRUE(adapted.has_value());
  ASSERT_TRUE(service.ApplyAdaptedModel("a", *adapted, 0));

  std::vector<EstimateRequest> requests = {Request("a", 1.0, 0.5),
                                           Request("a", 2.0, 0.5),
                                           Request("a", 3.0, 0.5)};
  const auto responses = service.EstimateBatch(requests);
  for (const EstimateResponse& response : responses) {
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.model_generation, 1u);
  }
}

}  // namespace
}  // namespace mscm::runtime
