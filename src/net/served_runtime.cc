#include "net/served_runtime.h"

#include <atomic>
#include <cmath>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/explanatory.h"

namespace mscm::net {

namespace {

// A fitted 4-state model over the class's first three variables with
// synthetic coefficients — structurally identical to a paper-derived model
// (state lookup + compiled per-state row evaluation).
core::CostModel MakeModel(core::QueryClassId cls, uint64_t seed) {
  const size_t n_features = core::VariableSet::ForClass(cls).size();
  constexpr int kStates = 4;
  core::ObservationSet obs;
  Rng rng(seed);
  for (int s = 0; s < kStates; ++s) {
    for (int i = 0; i < 50; ++i) {
      core::Observation o;
      o.probing_cost = s + 0.5;
      o.features.assign(n_features, 0.0);
      for (size_t j = 0; j < 3 && j < n_features; ++j) {
        o.features[j] = rng.Uniform(1.0, 10.0);
      }
      o.cost = (s + 1.0) * (0.5 * o.features[0] + 0.2 * o.features[1] +
                            0.1 * o.features[2]);
      obs.push_back(std::move(o));
    }
  }
  return core::FitCostModel(
      cls, obs, {0, 1, 2},
      core::ContentionStates::FromBoundaries({1.0, 2.0, 3.0}),
      core::QualitativeForm::kGeneral);
}

// What the refresh daemon samples when a key drifts: a cheap synthetic
// environment whose cost law roughly matches the registered models, so
// re-derivations succeed without a simulated site.
class SyntheticSource : public core::ObservationSource {
 public:
  explicit SyntheticSource(uint64_t seed, core::QueryClassId cls)
      : rng_(seed), cls_(cls) {}

  core::Observation Draw() override {
    core::Observation o;
    o.probing_cost = rng_.Uniform(0.0, 4.0);
    o.features.assign(core::VariableSet::ForClass(cls_).size(), 0.0);
    for (size_t j = 0; j < 3 && j < o.features.size(); ++j) {
      o.features[j] = rng_.Uniform(1.0, 10.0);
    }
    o.cost = (1.0 + o.probing_cost) *
             (0.5 * o.features[0] + 0.2 * o.features[1] + 0.3);
    return o;
  }

 private:
  Rng rng_;
  core::QueryClassId cls_;
};

}  // namespace

ServedRuntime::ServedRuntime(ServedRuntimeConfig config)
    : config_(std::move(config)) {}

ServedRuntime::~ServedRuntime() { Shutdown(); }

bool ServedRuntime::Start(std::string* error) {
  runtime::EstimationServiceConfig service_config;
  service_config.probe_ttl = std::chrono::seconds(5);
  service_config.probe_interval = config_.probe_interval;
  service_ = std::make_unique<runtime::EstimationService>(service_config);

  const std::vector<core::QueryClassId> classes = {
      core::QueryClassId::kUnarySeqScan, core::QueryClassId::kJoinNoIndex};
  uint64_t seed = config_.seed;
  for (size_t i = 0; i < config_.sites; ++i) {
    const std::string site = "site" + std::to_string(i);
    for (const core::QueryClassId cls : classes) {
      service_->RegisterModel(site, MakeModel(cls, seed++));
    }
    // A drifting-but-bounded contention signal: the site wanders across its
    // four probing-cost states. Only the prober thread calls this.
    auto tick = std::make_shared<std::atomic<uint64_t>>(i * 7);
    const double base = 0.5 + static_cast<double>(i % 4);
    service_->RegisterSite(site, [tick, base] {
      const uint64_t t = tick->fetch_add(1, std::memory_order_relaxed);
      return base + 0.4 * std::sin(static_cast<double>(t) * 0.1);
    });
    service_->ProbeNow(site);
  }

  if (config_.refresh) {
    runtime::ModelRefreshConfig refresh_config;
    refresh_config.worker_threads = config_.worker_threads;
    daemon_ = std::make_unique<runtime::ModelRefreshDaemon>(service_.get(),
                                                            refresh_config);
    for (size_t i = 0; i < config_.sites; ++i) {
      const std::string site = "site" + std::to_string(i);
      for (const core::QueryClassId cls : classes) {
        sources_.push_back(std::make_unique<SyntheticSource>(seed++, cls));
        daemon_->Watch(site, cls, sources_.back().get());
      }
    }
  }

  EstimateServerConfig server_config = config_.server;
  if (config_.adaptation) {
    runtime::AdaptationConfig adaptation_config = config_.adaptation_config;
    adaptation_config.start_thread = true;
    adaptation_ = std::make_unique<runtime::AdaptationController>(
        service_.get(), daemon_.get(), adaptation_config);
    // Record() is the zero-shared-RMW fast path; safe to call from any
    // server IO loop. The controller drains on its own background thread.
    runtime::AdaptationController* controller = adaptation_.get();
    server_config.feedback_handler =
        [controller](const runtime::FeedbackReport& report) {
          return controller->Record(report);
        };
  }

  server_ = std::make_unique<EstimateServer>(service_.get(), server_config);
  return server_->Start(error);
}

void ServedRuntime::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // The order is the contract — see the header comment. The stopped objects
  // stay alive so callers can still read final stats and the bound port.
  if (server_ != nullptr) server_->Stop();
  // After the server stops, no IO loop can call Record(); the controller's
  // final drain may still escalate into the daemon, so it stops first.
  if (adaptation_ != nullptr) adaptation_->Stop();
  daemon_.reset();
  if (service_ != nullptr) service_->StopProbing();
}

uint16_t ServedRuntime::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

}  // namespace mscm::net
