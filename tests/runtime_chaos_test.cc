// Chaos stress for the hardened failure paths: a seeded FaultInjector drives
// every fault mode at once — thrown probes, NaN/Inf/negative costs, latency
// spikes, and hangs — through the background probers, explicit probes, and
// the refresh daemon's sampling path (fed by an adaptation controller's
// escalations), while reader threads estimate
// concurrently. The invariant under all of it: a served estimate is finite,
// a served probing cost is finite and non-negative, and nothing crashes,
// wedges, or leaks a probe thread. Run under both sanitizers:
//
//   MSCM_SANITIZE=thread  tests/run_sanitized.sh
//   MSCM_SANITIZE=address tests/run_sanitized.sh

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"
#include "sim/fault_injector.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using core::QueryClassId;
using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr auto kCls = QueryClassId::kUnarySeqScan;
constexpr int kReaders = 3;
constexpr int kRequestsPerReader = 400;
constexpr int kReportsPerReporter = 150;

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

// A well-behaved environment for the refresh daemon to sample — the fault
// injector sits between it and the daemon.
class LinearSource : public core::ObservationSource {
 public:
  explicit LinearSource(uint64_t seed) : rng_(seed) {}
  core::Observation Draw() override {
    core::Observation o;
    o.probing_cost = rng_.Uniform(0.3, 0.7);
    o.features.resize(core::VariableSet::ForClass(kCls).size());
    for (auto& f : o.features) f = rng_.Uniform(1.0, 10.0);
    o.cost = 2.0 * o.features[0];
    return o;
  }

 private:
  Rng rng_;
};

TEST(RuntimeChaosTest, AllFaultModesConcurrentlyNeverCorruptEstimates) {
  sim::FaultInjectorConfig fault_config;
  fault_config.seed = 0xc4a05;
  fault_config.throw_rate = 0.10;
  fault_config.nan_rate = 0.10;
  fault_config.inf_rate = 0.05;
  fault_config.negative_rate = 0.05;
  fault_config.hang_rate = 0.02;
  fault_config.delay_rate = 0.10;
  fault_config.delay = milliseconds(1);
  // Declared before the service/daemon so it is destroyed last; its
  // destructor releases any probe or sampler still parked in a hang.
  sim::FaultInjector injector(fault_config);

  EstimationServiceConfig config;
  config.probe_ttl = seconds(60);
  config.probe_interval = milliseconds(1);
  config.probe_timeout = milliseconds(20);  // << hang duration: hangs abandon
  config.probe_failure_retry = milliseconds(1);
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration = milliseconds(50);
  EstimationService service(config);

  const std::vector<std::string> sites = {"alpha", "beta"};
  for (const std::string& site : sites) {
    service.RegisterModel(site, test::PiecewiseLinearModel(kCls, {2.0, 5.0}));
    // Heap-shared probe state: abandoned probe threads may outlive this
    // stack frame and must not touch freed memory.
    auto value = std::make_shared<std::atomic<double>>(0.5);
    service.RegisterSite(site,
                         injector.WrapProbe([value] { return value->load(); }));
    // Land one clean probe so every site has a last known state; early
    // attempts may be faulted (and may even trip the breaker briefly).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!service.CurrentProbe(site).has_value &&
           std::chrono::steady_clock::now() < deadline) {
      service.ProbeNow(site);
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_TRUE(service.CurrentProbe(site).has_value) << site;
  }

  // The refresh daemon samples each site through the same fault injector.
  LinearSource inner_alpha(71), inner_beta(73);
  sim::FaultyObservationSource faulty_alpha(&inner_alpha, &injector);
  sim::FaultyObservationSource faulty_beta(&inner_beta, &injector);
  ModelRefreshConfig refresh_config;
  refresh_config.refresh_cooldown = milliseconds(1);
  refresh_config.initial_backoff = milliseconds(1);
  refresh_config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  refresh_config.rederive.build.sample_size = 30;
  refresh_config.worker_threads = 2;
  ModelRefreshDaemon daemon(&service, refresh_config);
  daemon.Watch("alpha", kCls, &faulty_alpha);
  daemon.Watch("beta", kCls, &faulty_beta);

  // Feedback reaches the daemon the served way: through a draining
  // adaptation controller that escalates error stalls. The fast tier never
  // publishes, so a stall shows every stall_window + 1 reports of a key.
  AdaptationConfig adapt_config;
  adapt_config.min_updates_to_publish = std::numeric_limits<size_t>::max();
  adapt_config.stall_window = 8;
  adapt_config.stall_error_threshold = 0.5;
  adapt_config.drain_interval = milliseconds(1);
  adapt_config.start_thread = true;
  AdaptationController controller(&service, &daemon, adapt_config);

  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;

  // Readers: single estimates, batches, the occasional explicit probe cost,
  // and a sprinkle of deliberately invalid requests. Every OK response must
  // carry a finite estimate and a sane probing cost, faults or not.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRequestsPerReader && !corrupted.load(); ++i) {
        const std::string& site = sites[i % sites.size()];
        EstimateRequest request = Request(site, rng.Uniform(1.0, 10.0));
        if (rng.NextDouble() < 0.2) {
          request.probing_cost = rng.Uniform(0.0, 2.0);
        }
        if (rng.NextDouble() < 0.05) {
          EstimateRequest invalid = request;
          invalid.features[0] = std::nan("");
          if (service.Estimate(invalid).status !=
              EstimateStatus::kInvalidRequest) {
            corrupted.store(true);
            ADD_FAILURE() << "NaN feature was not rejected";
          }
        }
        std::vector<EstimateResponse> responses;
        if (i % 8 == 0) {
          responses = service.EstimateBatch(
              {request, Request(site, rng.Uniform(1.0, 10.0))});
        } else {
          responses = {service.Estimate(request)};
        }
        for (const EstimateResponse& r : responses) {
          if (!r.ok()) continue;  // kNoProbe while degraded-with-no-state etc.
          if (!std::isfinite(r.estimate_seconds) ||
              !std::isfinite(r.probing_cost) || r.probing_cost < 0.0) {
            corrupted.store(true);
            ADD_FAILURE() << "corrupt estimate from " << site << ": est="
                          << r.estimate_seconds << " probe=" << r.probing_cost;
          }
        }
      }
    });
  }

  // Reporters: observed costs 3x the 2x law that the probed state and every
  // re-derived model price, so the controller keeps escalating and faulted
  // sampling paths run concurrently with everything else.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + static_cast<uint64_t>(t));
      FeedbackReport report;
      report.class_id = kCls;
      for (int i = 0; i < kReportsPerReporter && !corrupted.load(); ++i) {
        const double x = rng.Uniform(1.0, 10.0);
        report.site = sites[(i + t) % sites.size()];
        report.features = FeatureVector(x);
        report.actual_cost = 6.0 * x;
        controller.Record(report);
        if (i % 16 == 0) std::this_thread::sleep_for(milliseconds(1));
      }
    });
  }

  // A prodder hammering explicit probes (exercising suppression, timeouts,
  // and half-open trials under contention with the background probers).
  threads.emplace_back([&] {
    for (int i = 0; i < 200 && !corrupted.load(); ++i) {
      service.ProbeNow(sites[i % sites.size()]);
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  for (auto& t : threads) t.join();
  // Fold the last buffered reports in before the counters are read.
  controller.Stop();

  // Unblock anything still parked in an injected hang (abandoned probe
  // threads, an in-flight refresh sample) before tearing down the daemon
  // and service; from here on hangs return immediately.
  injector.ReleaseHangs();

  // The machinery actually exercised its failure paths — and the published
  // state every site serves from is still sane.
  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.probe_failures, 0u);
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.invalid_requests, 0u);
  EXPECT_GT(injector.injected(sim::FaultKind::kThrow), 0u);
  EXPECT_GT(injector.injected(sim::FaultKind::kNaN), 0u);
  EXPECT_GT(controller.Stats().escalations, 0u);
  for (const std::string& site : sites) {
    const ProbeReading reading = service.CurrentProbe(site);
    ASSERT_TRUE(reading.has_value) << site;
    EXPECT_TRUE(std::isfinite(reading.probing_cost)) << site;
    EXPECT_GE(reading.probing_cost, 0.0) << site;
  }
  EXPECT_FALSE(corrupted.load());
}

}  // namespace
}  // namespace mscm::runtime
