// Multithreaded stress for the online runtime: writer threads re-register
// models (each registration publishes a fresh catalog snapshot) while
// reader threads estimate in batches and a background prober refreshes the
// contention cache. Run under MSCM_SANITIZE=thread to verify the
// snapshot/copy-on-write discipline is race-free:
//
//   cmake -B build-tsan -S . -DMSCM_SANITIZE=thread
//   cmake --build build-tsan -j --target runtime_stress_test
//   ./build-tsan/tests/runtime_stress_test

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/estimation_service.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using core::QueryClassId;

constexpr int kWriters = 2;
constexpr int kReaders = 3;
constexpr int kRegistersPerWriter = 20;
constexpr int kBatchesPerReader = 30;
constexpr size_t kBatchSize = 64;

EstimateRequest MakeRequest(const std::string& site, QueryClassId cls,
                            double x0) {
  EstimateRequest request;
  request.site = site;
  request.class_id = cls;
  request.features.assign(core::VariableSet::ForClass(cls).size(), 0.0);
  request.features[0] = x0;
  return request;
}

TEST(RuntimeStressTest, ConcurrentWritersReadersAndProber) {
  EstimationServiceConfig config;
  // A tiny TTL + a fast background prober: readers hit fresh, stale, and
  // in-flight-swap paths all at once.
  config.probe_ttl = std::chrono::microseconds(500);
  config.probe_interval = std::chrono::milliseconds(1);
  EstimationService service(config);

  const std::vector<std::string> sites = {"alpha", "beta"};
  const std::vector<QueryClassId> classes = {QueryClassId::kUnarySeqScan,
                                             QueryClassId::kJoinNoIndex};
  for (const std::string& site : sites) {
    for (QueryClassId cls : classes) {
      service.RegisterModel(site, test::PiecewiseLinearModel(cls, {2.0, 5.0}));
    }
    // Probe costs jitter around the state boundary so cached states flip.
    service.RegisterSite(site, [counter = std::make_shared<std::atomic<int>>(0)] {
      const int n = counter->fetch_add(1, std::memory_order_relaxed);
      return 0.8 + 0.4 * ((n % 2 == 0) ? 0.0 : 1.0);  // 0.8 or 1.2
    });
    ASSERT_TRUE(service.ProbeNow(site));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, &sites, &classes, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kRegistersPerWriter; ++i) {
        const std::string& site = sites[i % sites.size()];
        const QueryClassId cls = classes[(i + w) % classes.size()];
        const double slope = rng.Uniform(1.0, 9.0);
        service.RegisterModel(
            site, test::PiecewiseLinearModel(cls, {slope, slope * 2.0},
                                             /*seed=*/1 + i));
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &sites, &classes, &failed, r] {
      Rng rng(200 + static_cast<uint64_t>(r));
      for (int b = 0; b < kBatchesPerReader; ++b) {
        std::vector<EstimateRequest> requests;
        requests.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          requests.push_back(
              MakeRequest(sites[i % sites.size()],
                          classes[(i / 2) % classes.size()],
                          rng.Uniform(1.0, 10.0)));
        }
        const std::vector<EstimateResponse> responses =
            service.EstimateBatch(requests);
        for (const EstimateResponse& response : responses) {
          // Models exist for every (site, class) and probes never fail, so
          // every response must be a finite, non-negative estimate.
          if (!response.ok() || !std::isfinite(response.estimate_seconds) ||
              response.estimate_seconds < 0.0 || response.state < 0) {
            failed.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  const RuntimeStatsSnapshot stats = service.Stats();
  const uint64_t expected_requests =
      static_cast<uint64_t>(kReaders) * kBatchesPerReader * kBatchSize;
  EXPECT_EQ(stats.requests, expected_requests);
  EXPECT_EQ(stats.batches,
            static_cast<uint64_t>(kReaders) * kBatchesPerReader);
  EXPECT_EQ(stats.no_model, 0u);
  EXPECT_EQ(stats.probe_cache_misses, 0u);
  // Every served request consumed either a fresh or a stale cached probe.
  EXPECT_EQ(stats.probe_cache_hits + stats.probe_cache_stale,
            expected_requests);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_GE(stats.probes, 2u);
  // Initial registrations + every writer registration published a snapshot.
  EXPECT_EQ(stats.catalog_swaps,
            sites.size() * classes.size() + kWriters * kRegistersPerWriter);
  EXPECT_EQ(stats.estimate_latency.count, expected_requests);
}

}  // namespace
}  // namespace mscm::runtime
