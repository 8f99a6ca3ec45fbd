#include "runtime/estimation_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/clock.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using core::QueryClassId;
using std::chrono::seconds;

std::vector<double> FeatureVector(QueryClassId cls, double x0) {
  std::vector<double> f(core::VariableSet::ForClass(cls).size(), 0.0);
  f[0] = x0;
  return f;
}

EstimateRequest Request(const std::string& site, QueryClassId cls, double x0,
                        double probing_cost = -1.0) {
  EstimateRequest request;
  request.site = site;
  request.class_id = cls;
  request.features = FeatureVector(cls, x0);
  request.probing_cost = probing_cost;
  return request;
}

TEST(EstimationServiceTest, EstimatesWithExplicitProbeAcrossStates) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  // State 0 (probe ≤ 1): cost = 2x. State 1 (probe > 1): cost = 5x.
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));

  EstimateResponse low = service.Estimate(Request("a", cls, 3.0, 0.5));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.state, 0);
  EXPECT_NEAR(low.estimate_seconds, 6.0, 1e-6);
  EXPECT_DOUBLE_EQ(low.probing_cost, 0.5);
  EXPECT_FALSE(low.stale_probe);

  EstimateResponse high = service.Estimate(Request("a", cls, 3.0, 1.5));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.state, 1);
  EXPECT_NEAR(high.estimate_seconds, 15.0, 1e-6);
}

TEST(EstimationServiceTest, ReportsMissingModelAndMissingProbe) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;

  EXPECT_EQ(service.Estimate(Request("ghost", cls, 1.0, 0.5)).status,
            EstimateStatus::kNoModel);

  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  // No explicit probe and no tracker for the site → kNoProbe.
  EXPECT_EQ(service.Estimate(Request("a", cls, 1.0)).status,
            EstimateStatus::kNoProbe);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.no_model, 1u);
  EXPECT_EQ(stats.probe_cache_misses, 1u);
}

TEST(EstimationServiceTest, ServesFromCachedProbe) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));

  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  EstimateResponse low = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.state, 0);
  EXPECT_DOUBLE_EQ(low.probing_cost, 0.5);
  EXPECT_NEAR(low.estimate_seconds, 6.0, 1e-6);

  // The environment shifts; the next probe moves the cached state.
  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  EstimateResponse high = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.state, 1);
  EXPECT_NEAR(high.estimate_seconds, 15.0, 1e-6);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.probe_cache_hits, 2u);
  EXPECT_EQ(stats.probes, 2u);
  // The tracker's own cached state follows the registered partition.
  EXPECT_EQ(service.CurrentProbe("a").state, 1);
}

TEST(EstimationServiceTest, StaleProbeIsServedAndFlagged) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.probe_ttl = seconds(5);
  config.clock = &clock;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  clock.Advance(seconds(10));
  const EstimateResponse response = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(response.ok());  // last-known-state fallback
  EXPECT_TRUE(response.stale_probe);
  EXPECT_NEAR(response.estimate_seconds, 6.0, 1e-6);
  EXPECT_EQ(service.Stats().probe_cache_stale, 1u);
}

// Every response field, the estimate and probing cost compared bit for bit.
void ExpectSameResponse(const EstimateResponse& a, const EstimateResponse& b,
                        size_t i) {
  EXPECT_EQ(a.status, b.status) << i;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.estimate_seconds),
            std::bit_cast<uint64_t>(b.estimate_seconds))
      << i;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.probing_cost),
            std::bit_cast<uint64_t>(b.probing_cost))
      << i;
  EXPECT_EQ(a.state, b.state) << i;
  EXPECT_EQ(a.stale_probe, b.stale_probe) << i;
  EXPECT_EQ(a.stale_model, b.stale_model) << i;
  EXPECT_EQ(a.degraded, b.degraded) << i;
  EXPECT_EQ(a.model_generation, b.model_generation) << i;
}

// Singles, one batch and a placement over the same requests give the same
// answers and move the same counters: every status, a stale-flagged key and
// a degraded site included.
TEST(EstimationServiceTest, BatchMatchesSingleRequests) {
  EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = std::chrono::hours(1);
  EstimationService service(config);
  const auto g1 = QueryClassId::kUnarySeqScan;
  const auto g3 = QueryClassId::kJoinNoIndex;
  service.RegisterModel("a", test::PiecewiseLinearModel(g1, {2.0, 5.0}));
  service.RegisterModel("a", test::PiecewiseLinearModel(g3, {3.0}));
  service.RegisterModel("b", test::PiecewiseLinearModel(g1, {7.0}));
  service.RegisterModel("c", test::PiecewiseLinearModel(g1, {4.0}));  // no site
  service.RegisterModel("d", test::PiecewiseLinearModel(g1, {6.0, 1.0}));
  service.RegisterSite("a", [] { return 0.5; });
  service.RegisterSite("b", [] { return 1.5; });
  std::atomic<bool> d_down{false};
  service.RegisterSite("d", [&d_down]() -> double {
    if (d_down.load()) throw std::runtime_error("site down");
    return 1.5;
  });
  ASSERT_TRUE(service.ProbeNow("a"));
  ASSERT_TRUE(service.ProbeNow("b"));
  ASSERT_TRUE(service.ProbeNow("d"));
  d_down.store(true);
  EXPECT_FALSE(service.ProbeNow("d"));
  ASSERT_TRUE(service.IsSiteDegraded("d"));
  service.SetModelStale("b", g1, true);

  const std::string sites[] = {"a", "b", "c", "d", "ghost"};
  Rng rng(3);
  std::vector<EstimateRequest> requests;
  for (int i = 0; i < 240; ++i) {
    const auto cls = rng.NextDouble() < 0.5 ? g1 : g3;
    EstimateRequest request = Request(sites[rng.UniformInt(0, 4)], cls,
                                      rng.Uniform(1.0, 10.0));
    if (rng.NextDouble() < 0.3) request.probing_cost = rng.Uniform(0.0, 2.0);
    const double kind = rng.NextDouble();
    if (kind < 0.05) {
      request.features[0] = std::nan("");
    } else if (kind < 0.1) {
      request.features.clear();  // shorter than every model's remap
    }
    requests.push_back(std::move(request));
  }
  // One of each answer regardless of the draw.
  requests.push_back(Request("ghost", g1, 2.0));       // no model
  requests.push_back(Request("c", g1, 2.0));           // no probe
  requests.push_back(Request("b", g1, 2.0));           // stale model
  requests.push_back(Request("d", g1, 2.0));           // degraded
  requests.push_back(Request("a", g1, 2.0, 1.5));      // explicit probe
  requests.push_back(Request("a", g3, std::nan("")));  // non-finite
  requests.push_back(Request("a", g1, 2.0));
  requests.back().features.clear();                    // short vector

  const RuntimeStatsSnapshot before = service.Stats();
  const std::vector<EstimateResponse> batched =
      service.EstimateBatch(requests);
  const RuntimeStatsSnapshot after_batch = service.Stats();
  ASSERT_EQ(batched.size(), requests.size());
  std::vector<EstimateResponse> singles;
  for (const EstimateRequest& request : requests) {
    singles.push_back(service.Estimate(request));
  }
  const RuntimeStatsSnapshot after_singles = service.Stats();

  std::set<EstimateStatus> statuses;
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(batched[i], singles[i], i);
    statuses.insert(singles[i].status);
  }
  EXPECT_EQ(statuses.size(), 4u);  // ok, no model, no probe, invalid
  const size_t n = requests.size();
  EXPECT_EQ(singles[n - 7].status, EstimateStatus::kNoModel);
  EXPECT_EQ(singles[n - 6].status, EstimateStatus::kNoProbe);
  EXPECT_TRUE(singles[n - 5].stale_model);
  EXPECT_TRUE(singles[n - 4].degraded);
  EXPECT_EQ(singles[n - 2].status, EstimateStatus::kInvalidRequest);
  EXPECT_EQ(singles[n - 1].status, EstimateStatus::kInvalidRequest);

  for (const StatsCounterField& row : StatsCounterFields()) {
    const uint64_t batch_moved = after_batch.*row.field - before.*row.field;
    const uint64_t singles_moved =
        after_singles.*row.field - after_batch.*row.field;
    if (std::string(row.name) == "batches") {
      EXPECT_EQ(batch_moved, 1u);
      EXPECT_EQ(singles_moved, 0u);
    } else {
      EXPECT_EQ(batch_moved, singles_moved) << row.name;
    }
  }

  std::vector<PlacementCandidate> candidates;
  for (const EstimateRequest& request : requests) {
    candidates.push_back({request, 0.0});
  }
  const PlacementResult placed = service.ChoosePlacement(candidates);
  ASSERT_EQ(placed.responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(placed.responses[i], batched[i], i);
  }
}

TEST(EstimationServiceTest, ChoosePlacementPicksCheapestTotal) {
  EstimationService service;
  const auto cls = QueryClassId::kJoinNoIndex;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterModel("b", test::PiecewiseLinearModel(cls, {3.0}));
  service.RegisterSite("a", [] { return 0.5; });
  service.RegisterSite("b", [] { return 0.5; });
  service.ProbeNow("a");
  service.ProbeNow("b");

  PlacementCandidate cand_a{Request("a", cls, 4.0), 0.0};  // local: 8s
  PlacementCandidate cand_b{Request("b", cls, 4.0), 0.0};  // local: 12s
  PlacementResult local = service.ChoosePlacement({cand_a, cand_b});
  EXPECT_EQ(local.chosen, 0);
  EXPECT_NEAR(local.total_seconds[0], 8.0, 1e-6);
  EXPECT_NEAR(local.total_seconds[1], 12.0, 1e-6);

  // Shipping can flip the decision: a is cheaper locally but far away.
  cand_a.shipping_seconds = 10.0;
  PlacementResult shipped = service.ChoosePlacement({cand_a, cand_b});
  EXPECT_EQ(shipped.chosen, 1);

  // A candidate without a model is skipped, not chosen.
  PlacementCandidate ghost{Request("ghost", cls, 4.0), 0.0};
  PlacementResult with_ghost = service.ChoosePlacement({ghost, cand_b});
  EXPECT_EQ(with_ghost.chosen, 1);
  EXPECT_TRUE(std::isinf(with_ghost.total_seconds[0]));
}

TEST(EstimationServiceTest, ModelReplacementIsVisibleToNewRequests) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  // A long-lived snapshot taken before the replacement …
  const SnapshotCatalog::Snapshot old_snap = service.CatalogSnapshot();
  const core::CostModel* old_model = old_snap->Find("a", cls);
  ASSERT_NE(old_model, nullptr);

  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {5.0}));

  // … still answers with the old coefficients, while the service serves the
  // new ones.
  const auto features = FeatureVector(cls, 3.0);
  EXPECT_NEAR(old_model->Estimate(features, 0.5), 6.0, 1e-6);
  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0, 0.5)).estimate_seconds,
              15.0, 1e-6);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
}

// Regression: RegisterSite used to wire the tracker's state partition from
// whatever Find() returned first among the site's registered classes — an
// arbitrary pick when several classes were registered. It now always uses
// the site's most recently registered model.
TEST(EstimationServiceTest, RegisterSiteWiresNewestModelPartition) {
  EstimationService service;
  const auto g3 = QueryClassId::kJoinNoIndex;
  const auto g1 = QueryClassId::kUnarySeqScan;
  // Two models with different partitions; G1 (single state) is newest.
  service.RegisterModel("a", test::PiecewiseLinearModel(g3, {2.0, 5.0}));
  service.RegisterModel("a", test::PiecewiseLinearModel(g1, {2.0}));

  service.RegisterSite("a", [] { return 1.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // Under G1's single-state partition, probe 1.5 is state 0. Under G3's
  // two-state partition (the stale wiring) it would be state 1.
  EXPECT_EQ(service.CurrentProbe("a").state, 0);
}

// Regression: RegisterModel could interleave with RegisterSite between its
// tracker publication and its mapper wiring, leaving the tracker mapping
// states with the wrong (or no) partition. Both now serialize on the
// control mutex, and the tracker is published before it is wired. Run under
// MSCM_SANITIZE=thread to verify.
TEST(EstimationServiceTest, ConcurrentRegisterModelAndSiteAlwaysWire) {
  const auto cls = QueryClassId::kUnarySeqScan;
  const core::CostModel model = test::PiecewiseLinearModel(cls, {2.0, 5.0});
  for (int iter = 0; iter < 50; ++iter) {
    EstimationService service;
    std::thread register_model(
        [&] { service.RegisterModel("a", model); });
    std::thread register_site(
        [&] { service.RegisterSite("a", [] { return 1.5; }); });
    register_model.join();
    register_site.join();

    // Whichever order won, the tracker must end up wired with the model's
    // partition: probe 1.5 maps to state 1, never -1.
    ASSERT_TRUE(service.ProbeNow("a"));
    EXPECT_EQ(service.CurrentProbe("a").state, 1) << "iter " << iter;
  }
}

TEST(EstimationServiceTest, StaleModelFlagIsServedAndCounted) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  EXPECT_FALSE(service.IsModelStale("a", cls));
  service.SetModelStale("a", cls, true);
  EXPECT_TRUE(service.IsModelStale("a", cls));

  // Estimates still succeed — the old model is the best available — but
  // carry the flag, in both single and batch paths.
  const EstimateResponse single = service.Estimate(Request("a", cls, 3.0, 0.5));
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single.stale_model);
  EXPECT_NEAR(single.estimate_seconds, 6.0, 1e-6);
  const std::vector<EstimateResponse> batch =
      service.EstimateBatch({Request("a", cls, 3.0, 0.5)});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].stale_model);

  RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.stale_models, 1u);
  EXPECT_EQ(stats.stale_model_served, 2u);

  // Registering a replacement model clears the flag.
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  EXPECT_FALSE(service.IsModelStale("a", cls));
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0, 0.5)).stale_model);
  EXPECT_EQ(service.Stats().stale_models, 0u);
}

// Regression: a NaN feature used to flow straight into the model. The
// service now validates requests at the boundary and rejects them before
// any lookup.
TEST(EstimationServiceTest, InvalidRequestsAreRejectedAtTheBoundary) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();

  EstimateRequest bad_feature = Request("a", cls, 3.0);
  bad_feature.features[0] = nan;
  EXPECT_EQ(service.Estimate(bad_feature).status,
            EstimateStatus::kInvalidRequest);
  bad_feature.features[0] = inf;
  EXPECT_EQ(service.Estimate(bad_feature).status,
            EstimateStatus::kInvalidRequest);

  // NaN probing cost is not "use the site's probe" (that is any finite
  // negative value) — it is a corrupt request.
  EXPECT_EQ(service.Estimate(Request("a", cls, 3.0, nan)).status,
            EstimateStatus::kInvalidRequest);
  EXPECT_EQ(service.Estimate(Request("a", cls, 3.0, inf)).status,
            EstimateStatus::kInvalidRequest);
  // The finite-negative sentinel still means "use the site's probe".
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0, -2.0)).ok());

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.invalid_requests, 4u);
  // Rejected requests are not counted as served requests, read no probe and
  // record no latency.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.probe_cache_hits, 1u);
  EXPECT_EQ(stats.estimate_latency.count, 1u);
}

TEST(EstimationServiceTest, BatchRejectsInvalidItemsIndividually) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  EstimateRequest bad = Request("a", cls, 3.0, 0.5);
  bad.features[0] = std::nan("");
  const std::vector<EstimateResponse> batch = service.EstimateBatch(
      {Request("a", cls, 3.0, 0.5), bad, Request("a", cls, 4.0, 0.5)});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status, EstimateStatus::kInvalidRequest);
  EXPECT_TRUE(batch[2].ok());
  EXPECT_NEAR(batch[2].estimate_seconds, 8.0, 1e-6);
  EXPECT_EQ(service.Stats().invalid_requests, 1u);
}

// A site whose probes keep failing trips its circuit breaker. Estimates keep
// flowing from the last known state, flagged degraded; a half-open trial
// probe restores clean service once the site recovers, on the very next
// estimate.
TEST(EstimationServiceTest, DegradedSiteServesLastStateAndRecovers) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.clock = &clock;
  config.probe_ttl = std::chrono::hours(1);
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration = seconds(5);
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  std::atomic<bool> fail{false};
  service.RegisterSite("a", [&]() -> double {
    if (fail.load()) throw std::runtime_error("site down");
    return 0.5;
  });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.IsSiteDegraded("a"));

  fail.store(true);
  EXPECT_FALSE(service.ProbeNow("a"));
  EXPECT_FALSE(service.ProbeNow("a"));  // second consecutive failure → open
  EXPECT_TRUE(service.IsSiteDegraded("a"));
  EXPECT_EQ(service.SiteBreakerState("a"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(service.ProbeNow("a"));  // suppressed, does not run the probe

  // Estimates still serve the pre-failure state, flagged, in both paths.
  const EstimateResponse single = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single.degraded);
  EXPECT_NEAR(single.estimate_seconds, 6.0, 1e-6);
  const std::vector<EstimateResponse> batch =
      service.EstimateBatch({Request("a", cls, 3.0)});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].degraded);

  RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.degraded_sites, 1u);
  EXPECT_EQ(stats.degraded_served, 2u);
  EXPECT_EQ(stats.probes_suppressed, 1u);
  EXPECT_EQ(stats.probe_failures, 2u);

  // Recovery: past the open window, the next probe is the half-open trial;
  // it succeeds and the breaker closes.
  fail.store(false);
  clock.Advance(seconds(6));
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.IsSiteDegraded("a"));
  EXPECT_EQ(service.SiteBreakerState("a"), CircuitBreaker::State::kClosed);
  const EstimateResponse healthy = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(service.Stats().degraded_sites, 0u);

  // Unknown sites are simply not degraded.
  EXPECT_FALSE(service.IsSiteDegraded("ghost"));
  EXPECT_EQ(service.SiteBreakerState("ghost"), CircuitBreaker::State::kClosed);
}

TEST(EstimationServiceTest, PlacementPoliciesDivergeNearBoundaries) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  // "steady" costs 1.0; "jitter" costs 0.5 below its boundary at probe 1.0
  // and 4.0 above it. A probe of 0.99 sits inside the soft-membership band.
  service.RegisterModel("steady", test::PiecewiseLinearModel(cls, {1.0}));
  service.RegisterModel("jitter",
                        test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  const PlacementCandidate steady{Request("steady", cls, 1.0, 0.5), 0.0};
  const PlacementCandidate jitter{Request("jitter", cls, 1.0, 0.99), 0.0};

  const PlacementResult point = service.ChoosePlacement({steady, jitter});
  EXPECT_EQ(point.policy, core::PlacementPolicy::kPointEstimate);
  EXPECT_EQ(point.chosen, 1);  // takes the 0.5 bait

  PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kExpectedCost;
  const PlacementResult expected =
      service.ChoosePlacement({steady, jitter}, options);
  EXPECT_EQ(expected.policy, core::PlacementPolicy::kExpectedCost);
  EXPECT_EQ(expected.chosen, 0);  // blended jitter mean > 1.0
  ASSERT_EQ(expected.distributions.size(), 2u);
  EXPECT_GT(expected.distributions[1].mean, 1.0);
  ASSERT_EQ(expected.scores.size(), 2u);
  EXPECT_LT(expected.scores[0], expected.scores[1]);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.placements, 2u);
  // Only the expected-cost call diverged from the point argmin.
  EXPECT_EQ(stats.placement_expected_cost_wins, 1u);
}

TEST(EstimationServiceTest, PlacementDistributionsCarryDegradedAndStale) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.clock = &clock;
  config.probe_ttl = seconds(5);
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = std::chrono::hours(1);
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("down", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterModel("old", test::PiecewiseLinearModel(cls, {2.0}));

  std::atomic<bool> fail{false};
  service.RegisterSite("down", [&]() -> double {
    if (fail.load()) throw std::runtime_error("site down");
    return 0.5;
  });
  service.RegisterSite("old", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("down"));
  ASSERT_TRUE(service.ProbeNow("old"));
  fail.store(true);
  EXPECT_FALSE(service.ProbeNow("down"));  // breaker opens
  clock.Advance(seconds(6));               // "old"'s probe exceeds its TTL

  PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kExpectedCost;
  const PlacementResult result = service.ChoosePlacement(
      {PlacementCandidate{Request("down", cls, 3.0), 0.0},
       PlacementCandidate{Request("old", cls, 3.0), 0.0}},
      options);
  ASSERT_EQ(result.distributions.size(), 2u);
  // "down" is degraded (and its pre-failure probe is now also past TTL —
  // the flags are independent and may coexist); "old" is merely stale.
  EXPECT_TRUE(result.distributions[0].degraded);
  EXPECT_TRUE(result.distributions[1].stale);
  EXPECT_FALSE(result.distributions[1].degraded);
  EXPECT_GE(result.chosen, 0);  // flagged candidates are penalized, not banned
}

TEST(EstimationServiceTest, PlacementWithNoServableCandidateIsMinusOne) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  for (const auto policy :
       {core::PlacementPolicy::kPointEstimate,
        core::PlacementPolicy::kExpectedCost,
        core::PlacementPolicy::kRiskAdjusted}) {
    PlacementOptions options;
    options.ranking.policy = policy;
    const PlacementResult result = service.ChoosePlacement(
        {PlacementCandidate{Request("ghost", cls, 1.0, 0.5), 0.0}}, options);
    EXPECT_EQ(result.chosen, -1) << core::ToString(policy);
    ASSERT_EQ(result.scores.size(), 1u);
    EXPECT_TRUE(std::isinf(result.scores[0]));
  }
}

TEST(EstimationServiceTest, NearBoundarySitesGaugeCountsBandProbes) {
  EstimationService service;  // boundary_band_fraction defaults to 0.1
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("near", test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  service.RegisterModel("far", test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  service.RegisterSite("near", [] { return 0.99; });  // 0.01 from boundary 1.0
  service.RegisterSite("far", [] { return 0.5; });    // mid-state
  ASSERT_TRUE(service.ProbeNow("near"));
  ASSERT_TRUE(service.ProbeNow("far"));
  EXPECT_EQ(service.Stats().near_boundary_sites, 1u);
}

// Named for the estimate cache that once answered repeated keys without
// timing most of them. A repeated request is now priced and timed like any
// other, so every one lands in the latency histogram: N estimates, N samples.
TEST(EstimationServiceTest, CacheHitsFeedTheLatencyHistogram) {
  EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const EstimateRequest request = Request("a", cls, 3.0);
  constexpr uint64_t kCalls = 4 * 64;
  for (uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(service.Estimate(request).ok());
  }

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, kCalls);
  EXPECT_EQ(stats.probe_cache_hits, kCalls);
  EXPECT_EQ(stats.estimate_latency.count, kCalls);
}

// ---- Freshness: every answer is priced from what is published now --------

// The environment shifts across a partition boundary: the next estimate
// prices under the new state, exactly.
TEST(EstimationServiceTest, StateFlipRepricesExactly) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  // State 0: cost = 2x. State 1: cost = 5x (boundary at probe 1.0).
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  for (int i = 0; i < 2; ++i) {
    const EstimateResponse before = service.Estimate(Request("a", cls, 3.0));
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.state, 0);
    EXPECT_NEAR(before.estimate_seconds, 6.0, 1e-6);
  }

  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  const EstimateResponse after = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.state, 1);
  EXPECT_NEAR(after.estimate_seconds, 15.0, 1e-6);
  EXPECT_DOUBLE_EQ(after.probing_cost, 1.5);
}

// Re-deriving the model publishes a new catalog snapshot; the next estimate
// is priced by it.
TEST(EstimationServiceTest, ReregisteredModelIsServedAtOnce) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0)).estimate_seconds, 6.0,
              1e-6);

  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {4.0}));
  const EstimateResponse repriced = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(repriced.ok());
  EXPECT_NEAR(repriced.estimate_seconds, 12.0, 1e-6);
}

// A reading past its TTL is still served, flagged stale on every answer; a
// fresh probe clears the flag on the next one.
TEST(EstimationServiceTest, StaleProbeIsFlaggedOnEveryAnswer) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.probe_ttl = seconds(5);
  config.clock = &clock;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_probe);

  clock.Advance(seconds(10));  // past the 5 s TTL
  for (int i = 0; i < 2; ++i) {
    const EstimateResponse stale = service.Estimate(Request("a", cls, 3.0));
    ASSERT_TRUE(stale.ok());
    EXPECT_TRUE(stale.stale_probe);
    EXPECT_NEAR(stale.estimate_seconds, 6.0, 1e-6);
  }
  EXPECT_EQ(service.Stats().probe_cache_stale, 2u);

  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_probe);
}

// The stale-model flag shows on the first answer after each flip.
TEST(EstimationServiceTest, StaleModelFlagFlipsTakeEffectAtOnce) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_model);
  service.SetModelStale("a", cls, true);
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0)).stale_model);
  service.SetModelStale("a", cls, false);
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_model);
}

TEST(EstimationServiceTest, AnswersStayExactAcrossFlappingStates) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  for (int i = 0; i < 500; ++i) {
    if (i % 100 == 50) {
      // Flap the contention state mid-stream.
      probe_value.store(probe_value.load() < 1.0 ? 1.5 : 0.5);
      ASSERT_TRUE(service.ProbeNow("a"));
    }
    const double x0 = 1.0 + static_cast<double>(i % 7);
    const double slope = probe_value.load() < 1.0 ? 2.0 : 5.0;
    const EstimateResponse response = service.Estimate(Request("a", cls, x0));
    ASSERT_TRUE(response.ok());
    ASSERT_NEAR(response.estimate_seconds, slope * x0, 1e-6)
        << "iteration " << i;
  }
}

// A 13-feature vector, one wider than the join class's 12 variables, is
// priced: the extra feature is never read, so single and batch answers
// match the 12-feature request bit for bit.
TEST(EstimationServiceTest, WiderThanTheJoinClassIsPricedExactly) {
  const auto cls = QueryClassId::kJoinNoIndex;
  EstimationService service;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const EstimateRequest join = Request("a", cls, 3.0);
  ASSERT_EQ(join.features.size(), core::VariableSet::kJoinSize);
  const EstimateResponse reference = service.Estimate(join);
  ASSERT_TRUE(reference.ok());
  EstimateRequest wide = join;
  wide.features.push_back(1.0);
  ASSERT_EQ(wide.features.size(), 13u);
  for (int i = 0; i < 3; ++i) {
    const EstimateResponse single = service.Estimate(wide);
    EXPECT_EQ(std::bit_cast<uint64_t>(single.estimate_seconds),
              std::bit_cast<uint64_t>(reference.estimate_seconds));
    EXPECT_EQ(single.state, reference.state);
    const std::vector<EstimateResponse> batch = service.EstimateBatch({wide});
    EXPECT_EQ(std::bit_cast<uint64_t>(batch[0].estimate_seconds),
              std::bit_cast<uint64_t>(reference.estimate_seconds));
  }
}

// Concurrent hammer: estimate threads against state flips, model
// re-registrations and stale-flag flips. Run under tsan/asan (tier-2).
TEST(EstimationServiceTest, ConcurrentRegisterAndFlipStorm) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      probe_value.store((i % 2 == 0) ? 1.5 : 0.5);
      service.ProbeNow("a");
      if (i % 5 == 0) {
        service.RegisterModel("a",
                              test::PiecewiseLinearModel(cls, {2.0, 5.0}));
      }
      service.SetModelStale("a", cls, i % 3 == 0);
      ++i;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> estimators;
  std::atomic<uint64_t> served{0};
  for (int t = 0; t < 3; ++t) {
    estimators.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const double x0 = 1.0 + static_cast<double>((i + t) % 5);
        const EstimateResponse response =
            service.Estimate(Request("a", cls, x0));
        if (response.ok()) {
          // The answer matches the per-state equation of the state that
          // priced it, exactly.
          const double slope = response.state == 0 ? 2.0 : 5.0;
          ASSERT_NEAR(response.estimate_seconds, slope * x0, 1e-6)
              << "state " << response.state << " x0=" << x0;
          served.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : estimators) thread.join();
  stop.store(true);
  churn.join();
  EXPECT_GT(served.load(), 0u);
}

}  // namespace
}  // namespace mscm::runtime
