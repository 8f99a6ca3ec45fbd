// Fleet-scale federation soak: hundreds of heterogeneous sites under the
// full serving stack (estimation service + lock-free probe readings +
// circuit breakers + refresh daemon + streaming-RLS adaptation) while
//
//   * a regime driver runs correlated contention — a phase-staggered
//     diurnal sweep plus shared-storage spikes that lift whole site groups
//     at once (sim::Fleet);
//   * a fault injector corrupts a slice of the fleet's probes (NaN,
//     negative, throwing, delayed) so breakers open and close for real;
//   * a churn thread continuously retires and re-registers the tail of the
//     fleet — UnregisterSite racing registration, probing, estimate
//     serving and in-flight re-derivations, with retired trackers freed
//     from retired tracker maps while readers pin the epoch.
//
// Throughout, the harness checks the lifecycle invariants the runtime
// promises (DESIGN §7):
//
//   * every counter row in StatsCounterFields() is monotone across churn
//     (retired trackers fold their totals into the service) — rows of kind
//     kGauge legitimately move both ways and are skipped;
//   * stats conservation: every request is tracker-resolved
//     (probing_cost < 0) and full-width, so each is counted exactly once —
//     requests == probe_cache_hits + probe_cache_stale +
//     probe_cache_misses + no_model — and records exactly one latency
//     sample: count(estimate_latency) == requests;
//   * served model generations never regress on stable sites (streaming
//     adaptation only moves lineages forward; only a full re-derivation —
//     confined here to the churn domain — may reset them);
//   * no stuck breakers: once faults stop, every degraded site recovers;
//   * clean teardown: retiring the whole fleet leaves no stale flags, no
//     adaptation groups, no degraded sites, and exact sites_retired
//     accounting.
//
// Scale knobs (CI runs a smaller fleet under the sanitizers):
//   MSCM_SOAK_SITES    fleet size            (default 208)
//   MSCM_SOAK_SECONDS  churn phase duration  (default 4)
//   MSCM_SOAK_SEED     fleet + workload seed (default 0xf1ee7)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"
#include "sim/fault_injector.h"
#include "sim/fleet.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr auto kCls = core::QueryClassId::kUnarySeqScan;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtod(value, nullptr);
}

std::vector<double> FeatureVector(double x0) {
  std::vector<double> f(core::VariableSet::ForClass(kCls).size(), 0.0);
  f[0] = x0;
  return f;
}

// Observation source over the fleet's ground truth, for churn-domain
// re-derivations. Thread-safe: across churn cycles the daemon may briefly
// have an abandoned in-flight task and a fresh one drawing from the same
// source.
class FleetSource : public core::ObservationSource {
 public:
  FleetSource(const sim::Fleet* fleet, size_t site, uint64_t seed)
      : fleet_(fleet), site_(site), rng_(seed) {}

  core::Observation Draw() override {
    std::lock_guard<std::mutex> lock(mutex_);
    const double hi =
        static_cast<double>(fleet_->spec(site_).num_states) - 0.1;
    core::Observation o;
    o.probing_cost = rng_.Uniform(0.1, hi);
    o.features = FeatureVector(rng_.Uniform(1.0, 10.0));
    o.cost = fleet_->ActualCost(site_, o.features[0], o.probing_cost);
    return o;
  }

 private:
  const sim::Fleet* fleet_;
  const size_t site_;
  std::mutex mutex_;
  Rng rng_;
};

TEST(RuntimeSoakTest, FleetChurnSoakHoldsLifecycleInvariants) {
  const size_t num_sites =
      std::max<uint64_t>(16, EnvU64("MSCM_SOAK_SITES", 208));
  const double soak_seconds =
      std::max(0.5, EnvDouble("MSCM_SOAK_SECONDS", 4.0));
  const uint64_t seed = EnvU64("MSCM_SOAK_SEED", 0xf1ee7ULL);

  sim::FleetConfig fleet_config;
  fleet_config.num_sites = num_sites;
  fleet_config.seed = seed;
  fleet_config.diurnal_period_seconds = 1.5;
  sim::Fleet fleet(fleet_config);

  // The fleet's tail churns (retire / re-register continuously); the rest
  // is stable — its serving guarantees must hold through the turbulence.
  const size_t churn_count = std::min<size_t>(32, num_sites / 4);
  const size_t stable_count = num_sites - churn_count;

  sim::FaultInjectorConfig fault_config;
  fault_config.seed = seed ^ 0xfa17ULL;
  fault_config.nan_rate = 0.2;
  fault_config.negative_rate = 0.15;
  fault_config.throw_rate = 0.15;
  fault_config.delay_rate = 0.05;
  fault_config.delay = milliseconds(2);
  sim::FaultInjector injector(fault_config);
  std::atomic<bool> faults_on{false};  // armed after the initial probe pass

  EstimationServiceConfig config;
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration = milliseconds(100);
  config.breaker.half_open_successes = 1;
  EstimationService service(config);

  ModelRefreshConfig refresh_config;
  refresh_config.max_attempts = 1;
  refresh_config.refresh_cooldown = milliseconds(200);
  refresh_config.rederive.build.algorithm = core::StateAlgorithm::kSingleState;
  refresh_config.rederive.build.sample_size = 24;
  refresh_config.worker_threads = 2;
  ModelRefreshDaemon daemon(&service, refresh_config);

  AdaptationConfig adapt_config;
  adapt_config.buffer_capacity = 4096;
  adapt_config.min_updates_to_publish = 16;
  // Touchy escalation thresholds: the diurnal sweep drags sites across
  // state boundaries, so drift trips fire throughout the soak. On watched
  // (churn) keys they become real re-derivations racing retirement; on
  // stable keys the refresh daemon refuses them and the group re-seeds.
  adapt_config.stall_window = 48;
  adapt_config.drift_threshold = 0.4;
  adapt_config.drift_window = 32;
  adapt_config.min_samples_for_drift = 16;
  adapt_config.drain_interval = milliseconds(5);
  adapt_config.start_thread = true;
  AdaptationController controller(&service, &daemon, adapt_config);

  // Stable probe identities: churn cycles re-register the same callable.
  // Every 13th-ish site probes through the (gated) fault injector.
  std::vector<std::function<double()>> probes(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    std::function<double()> base = [&fleet, i] { return fleet.probing_cost(i); };
    if (i % 13 == 5) {
      std::function<double()> wrapped = injector.WrapProbe(base);
      probes[i] = [base, wrapped, &faults_on] {
        return faults_on.load(std::memory_order_relaxed) ? wrapped() : base();
      };
    } else {
      probes[i] = std::move(base);
    }
  }

  // Derive every site's model from its ground-truth surface. The fits are
  // independent pure computation — fan them out.
  std::vector<std::optional<core::CostModel>> models(num_sites);
  {
    std::vector<std::thread> fitters;
    const size_t n_fitters = 4;
    for (size_t t = 0; t < n_fitters; ++t) {
      fitters.emplace_back([&, t] {
        for (size_t i = t; i < num_sites; i += n_fitters) {
          models[i].emplace(test::PiecewiseLinearModel(
              kCls, fleet.spec(i).state_slopes, seed + i));
        }
      });
    }
    for (auto& f : fitters) f.join();
  }
  for (size_t i = 0; i < num_sites; ++i) {
    service.RegisterSite(fleet.spec(i).name, probes[i]);
    service.RegisterModel(fleet.spec(i).name, *models[i]);
  }

  // Only churn-domain sites go under refresh maintenance: a full
  // re-derivation resets the model generation, which would (correctly)
  // break the stable-domain generation monotonicity the readers assert.
  std::vector<std::unique_ptr<FleetSource>> sources;
  sources.reserve(churn_count);
  for (size_t k = 0; k < churn_count; ++k) {
    const size_t i = stable_count + k;
    sources.push_back(
        std::make_unique<FleetSource>(&fleet, i, seed ^ (0x50acULL + k)));
    daemon.Watch(fleet.spec(i).name, kCls, sources.back().get());
  }

  // Initial fault-free probe pass: every site gets a reading, so stable
  // sites must serve kOk for the entire soak.
  for (size_t i = 0; i < num_sites; ++i) {
    ASSERT_TRUE(service.ProbeNow(fleet.spec(i).name)) << fleet.spec(i).name;
  }
  faults_on.store(true, std::memory_order_relaxed);

  std::atomic<bool> stop_regime{false};
  std::atomic<bool> stop_probers{false};
  std::atomic<bool> stop_readers{false};
  std::atomic<bool> stop_churn{false};
  std::atomic<uint64_t> status_violations{0};
  std::atomic<uint64_t> gen_violations{0};
  std::atomic<uint64_t> churn_cycles{0};
  std::atomic<uint64_t> reader_requests{0};

  // --- Regime driver: diurnal sweep + correlated group spikes. -----------
  std::thread regime([&] {
    Rng rng(seed ^ 0x4e91ULL);
    uint64_t ticks = 0;
    while (!stop_regime.load(std::memory_order_relaxed)) {
      fleet.Advance(0.015);
      if (++ticks % 25 == 0) {
        fleet.TriggerSpike(
            static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(fleet_config.num_groups) - 1)),
            rng.Uniform(0.3, 0.9), rng.Uniform(0.2, 0.5));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // --- Probe pumps: keep every live tracker's reading moving. ------------
  std::vector<std::thread> probers;
  for (size_t t = 0; t < 2; ++t) {
    probers.emplace_back([&, t] {
      while (!stop_probers.load(std::memory_order_relaxed)) {
        for (size_t i = t; i < num_sites; i += 2) {
          service.ProbeNow(fleet.spec(i).name);  // false mid-churn is fine
          if (stop_probers.load(std::memory_order_relaxed)) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // --- Readers: estimate, validate, close the feedback loop. -------------
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed ^ (0xead0ULL + t));
      // Per-reader, per-site generation watermarks over the stable domain.
      // Per-reader because shared watermarks would race (read-check-update)
      // and report false regressions. Each pass pins a catalog snapshot at
      // least as new as the reader's last, so once a site has served
      // generation N+1 it can never serve N again.
      constexpr size_t kX0Values = 8;
      std::vector<uint64_t> watermark(stable_count, 0);
      uint64_t local_requests = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        // Bias half the traffic onto a hot set: repeated keys between
        // churn-driven catalog swaps.
        const size_t i =
            rng.Bernoulli(0.5)
                ? static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(std::min<size_t>(16, num_sites)) - 1))
                : static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(num_sites) - 1));
        const size_t x0_index = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(kX0Values) - 1));
        const double x0 = 1.0 + static_cast<double>(x0_index);
        EstimateRequest request;
        request.site = fleet.spec(i).name;
        request.class_id = kCls;
        request.features = FeatureVector(x0);
        request.probing_cost = -1.0;  // tracker-resolved
        const EstimateResponse response = service.Estimate(request);
        ++local_requests;

        if (i < stable_count && !response.ok()) {
          // A stable site is always registered, modeled and probed: it
          // must serve, even degraded or stale.
          status_violations.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "stable site " << request.site
                        << " served status " << ToString(response.status);
        } else if (i >= stable_count && response.status != EstimateStatus::kOk &&
                   response.status != EstimateStatus::kNoModel &&
                   response.status != EstimateStatus::kNoProbe) {
          // Churn domain: mid-retirement kNoModel / freshly re-registered
          // kNoProbe are legitimate; anything else is not.
          status_violations.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "churn site " << request.site
                        << " served status " << ToString(response.status);
        }
        if (!response.ok()) continue;

        if (i < stable_count) {
          // Stable lineages only move forward: streaming adaptation bumps
          // generations, and full re-derivations (which reset them) are
          // confined to the churn domain.
          uint64_t& seen = watermark[i];
          if (response.model_generation < seen) {
            gen_violations.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << "generation regressed on " << request.site
                          << " x0=" << x0 << ": " << seen << " -> "
                          << response.model_generation;
          }
          seen = response.model_generation;
        }
        // Close the feedback loop for both domains — churn-site reports
        // feed adaptation groups whose escalations drive re-derivations
        // that race retirement, exactly the traffic UnregisterSite must
        // survive.
        if (rng.Bernoulli(0.25)) {
          FeedbackReport report;
          report.site = request.site;
          report.class_id = kCls;
          report.features = request.features;
          report.actual_cost = std::max(
              1e-9, fleet.ActualCost(i, x0, response.probing_cost) *
                        (1.0 + 0.05 * rng.Gaussian()));
          report.probing_cost = -1.0;
          report.model_generation = response.model_generation;
          controller.Record(report);  // ring-full drops are acceptable
        }
      }
      reader_requests.fetch_add(local_requests, std::memory_order_relaxed);
    });
  }

  // --- Churn: retire and resurrect the fleet's tail, continuously. -------
  std::thread churner([&] {
    size_t k = 0;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      const size_t i = stable_count + k;
      const std::string& name = fleet.spec(i).name;
      daemon.UnwatchSite(name);
      service.UnregisterSite(name);
      controller.DetachSite(name);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      service.RegisterSite(name, probes[i]);
      service.RegisterModel(name, *models[i]);
      daemon.Watch(name, kCls, sources[k].get());
      service.ProbeNow(name);
      churn_cycles.fetch_add(1, std::memory_order_relaxed);
      k = (k + 1) % churn_count;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // --- Main thread: the monotonicity watchdog. ----------------------------
  const auto& fields = StatsCounterFields();
  RuntimeStatsSnapshot prev = service.Stats();
  const auto deadline =
      steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(soak_seconds * 1000.0));
  while (steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const RuntimeStatsSnapshot cur = service.Stats();
    for (const auto& field : fields) {
      if (field.kind != StatKind::kCounter) continue;
      EXPECT_GE(cur.*(field.field), prev.*(field.field))
          << "counter " << field.name << " regressed under churn";
    }
    prev = cur;
  }

  // Orderly stop: churn last-cycle-completes first, so every site ends
  // registered; then the traffic; then the regimes.
  stop_churn.store(true, std::memory_order_relaxed);
  churner.join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  stop_probers.store(true, std::memory_order_relaxed);
  for (auto& p : probers) p.join();
  stop_regime.store(true, std::memory_order_relaxed);
  regime.join();

  EXPECT_EQ(status_violations.load(), 0u);
  EXPECT_EQ(gen_violations.load(), 0u);
  EXPECT_GT(churn_cycles.load(), 0u);
  EXPECT_GT(reader_requests.load(), 0u);

  // --- Recovery: faults off, every breaker must close. --------------------
  faults_on.store(false, std::memory_order_relaxed);
  const auto recovery_deadline = steady_clock::now() + std::chrono::seconds(30);
  while (service.Stats().degraded_sites != 0 &&
         steady_clock::now() < recovery_deadline) {
    for (size_t i = 0; i < num_sites; ++i) {
      service.ProbeNow(fleet.spec(i).name);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(service.Stats().degraded_sites, 0u) << "stuck breaker after soak";

  // --- Post-churn sweep: the whole fleet serves again. --------------------
  for (size_t i = 0; i < num_sites; ++i) {
    EstimateRequest request;
    request.site = fleet.spec(i).name;
    request.class_id = kCls;
    request.features = FeatureVector(2.0);
    request.probing_cost = -1.0;
    const EstimateResponse response = service.Estimate(request);
    ASSERT_TRUE(response.ok())
        << request.site << ": " << ToString(response.status);
    EXPECT_GE(response.state, 0);
    EXPECT_LT(response.state, fleet.spec(i).num_states);
  }

  // Quiesce the adaptation tier (final drain) before conservation checks.
  controller.Stop();
  const AdaptationStats adapt_stats = controller.Stats();
  EXPECT_EQ(adapt_stats.drained, adapt_stats.accepted);

  // --- Conservation: the books balance exactly after quiescence. ----------
  const RuntimeStatsSnapshot quiesced = service.Stats();
  // Every estimate in this test (readers, adaptation drains, sweeps) is
  // tracker-resolved and full-width, so each one lands in exactly one of
  // the probe outcomes or found no model — no other bucket.
  EXPECT_EQ(quiesced.requests,
            quiesced.probe_cache_hits + quiesced.probe_cache_stale +
                quiesced.probe_cache_misses + quiesced.no_model);
  EXPECT_GT(quiesced.probe_cache_hits, 0u);
  EXPECT_EQ(quiesced.invalid_requests, 0u);
  // Every priced request records exactly one latency sample.
  EXPECT_EQ(quiesced.estimate_latency.count, quiesced.requests);
  // The retired response-cache rows stay on the wire and read 0.
  EXPECT_EQ(quiesced.estimate_cache_hits, 0u);
  EXPECT_EQ(quiesced.estimate_cache_misses, 0u);
  EXPECT_EQ(quiesced.estimate_cache_invalidations, 0u);
  EXPECT_EQ(quiesced.sites_retired, churn_cycles.load());
  EXPECT_GT(quiesced.probes, 0u);

  // --- Clean teardown: retire the whole fleet, nothing may linger. --------
  for (size_t i = 0; i < num_sites; ++i) {
    const std::string& name = fleet.spec(i).name;
    daemon.UnwatchSite(name);
    service.UnregisterSite(name);
    controller.DetachSite(name);
  }
  const RuntimeStatsSnapshot final_stats = service.Stats();
  EXPECT_EQ(final_stats.sites_retired, churn_cycles.load() + num_sites);
  EXPECT_EQ(final_stats.stale_models, 0u);
  EXPECT_EQ(final_stats.degraded_sites, 0u);
  EXPECT_EQ(controller.NumGroups(), 0u);
  EstimateRequest gone;
  gone.site = fleet.spec(0).name;
  gone.class_id = kCls;
  gone.features = FeatureVector(2.0);
  gone.probing_cost = -1.0;
  EXPECT_EQ(service.Estimate(gone).status, EstimateStatus::kNoModel);
}

// Cold start at fleet scale: registration storms race serving traffic.
// Readers must only ever see coherent statuses (a site either prices or
// reports kNoModel — never an invalid or torn response), and the moment the
// storm settles the whole fleet serves.
TEST(RuntimeSoakTest, RegistrationStormServesCoherentStatuses) {
  constexpr size_t kSites = 64;
  sim::FleetConfig fleet_config;
  fleet_config.num_sites = kSites;
  fleet_config.seed = 0xc01d57a7ULL;
  sim::Fleet fleet(fleet_config);

  EstimationService service;

  // One representative model per distinct state count; registration copies.
  std::map<int, core::CostModel> prototypes;
  for (size_t i = 0; i < kSites; ++i) {
    const auto& spec = fleet.spec(i);
    if (prototypes.find(spec.num_states) == prototypes.end()) {
      prototypes.emplace(spec.num_states,
                         test::PiecewiseLinearModel(kCls, spec.state_slopes));
    }
  }

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xbeadULL + t);
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(kSites) - 1));
        EstimateRequest request;
        request.site = fleet.spec(i).name;
        request.class_id = kCls;
        request.features = FeatureVector(rng.Uniform(1.0, 8.0));
        request.probing_cost = 0.5;  // explicit: no probe dependency
        const EstimateResponse response = service.Estimate(request);
        if (response.status != EstimateStatus::kOk &&
            response.status != EstimateStatus::kNoModel) {
          ADD_FAILURE() << "cold-start read on " << request.site
                        << " served " << ToString(response.status);
        }
      }
    });
  }

  std::vector<std::thread> registrars;
  for (size_t t = 0; t < 4; ++t) {
    registrars.emplace_back([&, t] {
      for (size_t i = t; i < kSites; i += 4) {
        const auto& spec = fleet.spec(i);
        service.RegisterSite(spec.name,
                             [&fleet, i] { return fleet.probing_cost(i); });
        service.RegisterModel(spec.name, prototypes.at(spec.num_states));
        EXPECT_TRUE(service.ProbeNow(spec.name));
      }
    });
  }
  for (auto& r : registrars) r.join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  // Storm over: every site prices from its own tracker.
  for (size_t i = 0; i < kSites; ++i) {
    EstimateRequest request;
    request.site = fleet.spec(i).name;
    request.class_id = kCls;
    request.features = FeatureVector(3.0);
    request.probing_cost = -1.0;
    EXPECT_TRUE(service.Estimate(request).ok()) << request.site;
  }
  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_EQ(stats.invalid_requests, 0u);
}

}  // namespace
}  // namespace mscm::runtime
