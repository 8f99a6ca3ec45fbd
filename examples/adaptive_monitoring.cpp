// Adaptive monitoring — probing-cost estimation from system statistics
// (paper §3.3, Eq. 2) feeding the online runtime's contention tracker.
//
// Instead of running the probing query before every cost estimate, the MDBS
// agent fits a regression of probing cost on monitor statistics once, then
// registers the site with the EstimationService using the *estimator* as the
// probe: the tracker refreshes the cached contention state from cheap
// counter reads while the machine's load regime shifts (idle -> busy ->
// thrashing -> recovering), and cost estimates are served from the cache.
// When the cache outlives its TTL, the service still answers — from the
// last known state, flagged stale.

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/str_util.h"
#include "common/text_table.h"
#include "core/agent_source.h"
#include "core/model_builder.h"
#include "core/probing_estimator.h"
#include "core/validation.h"
#include "mdbs/agent.h"
#include "mdbs/local_dbs.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"

int main() {
  using namespace mscm;

  mdbs::LocalDbsConfig config;
  config.site_name = "mon-site";
  config.tables.num_tables = 5;
  config.tables.scale = 0.2;
  config.load.regime = sim::LoadRegime::kUniform;
  config.load.min_processes = 0.0;
  config.load.max_processes = 120.0;
  config.seed = 21;
  mdbs::LocalDbs site(config);
  mdbs::MdbsAgent agent(&site);

  // 1. Calibrate Eq. 2: paired (monitor snapshot, observed probing cost).
  std::vector<sim::SystemStats> snapshots;
  std::vector<double> probes;
  for (int i = 0; i < 200; ++i) {
    site.ResampleLoad();
    snapshots.push_back(site.MonitorSnapshot());
    probes.push_back(site.RunProbingQuery());
  }
  const core::ProbingCostEstimator estimator =
      core::ProbingCostEstimator::Fit(snapshots, probes);
  std::printf("Probing-cost estimator (Eq. 2)\n------------------------------\n");
  std::printf("%s\n", estimator.ToString().c_str());
  std::printf("significant statistics kept: ");
  for (size_t i = 0; i < estimator.selected_stats().size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "",
                core::ProbingCostEstimator::StatNames()
                    [static_cast<size_t>(estimator.selected_stats()[i])]
                        .c_str());
  }
  std::printf("\n\n");

  // 2. Derive a multi-states cost model (observed probes) and stand up the
  //    online service: the site's tracker probes via Eq. 2 — a counter read,
  //    not a query.
  const core::QueryClassId cls = core::QueryClassId::kUnarySeqScan;
  core::AgentObservationSource source(&site, cls, 22);
  core::ModelBuildOptions options;
  options.sample_size = 250;
  core::BuildReport report = core::BuildCostModel(cls, source, options);
  const core::ContentionStates states = report.model.states();
  std::printf("cost model: %d contention states, boundaries at %s\n\n",
              states.num_states(), states.ToString().c_str());

  runtime::EstimationServiceConfig service_config;
  service_config.probe_ttl = std::chrono::milliseconds(100);
  runtime::EstimationService service(service_config);
  service.RegisterModel("mon-site", std::move(report.model));
  service.RegisterSite("mon-site", [&agent, &estimator] {
    return estimator.Estimate(agent.MonitorSnapshot());
  });

  // A fixed representative query to price in every phase: a mid-size scan
  // (paper Table 3 unary variables), so its cost moves with the state.
  std::vector<double> features = {
      /*N_t=*/20.0,  /*N_it=*/10.0, /*N_rt=*/5.0,   /*TL_t=*/100.0,
      /*TL_rt=*/60.0, /*L_t=*/2000.0, /*L_rt=*/300.0};

  // 3. Live tracking through a day-in-the-life load trace.
  struct Phase {
    const char* label;
    double processes;
  };
  const Phase kTrace[] = {
      {"overnight (idle)", 3},     {"morning ramp", 30},
      {"mid-morning", 55},         {"lunch spike", 95},
      {"afternoon thrash", 120},   {"evening recovery", 60},
      {"night batch", 40},         {"late night", 8},
  };

  TextTable table({"phase", "processes", "est probe (s)", "true probe (s)",
                   "est state", "true state", "est cost (s)"});
  int agree = 0;
  for (const Phase& phase : kTrace) {
    agent.SetLoadProcesses(phase.processes);
    agent.AdvanceLoad(60.0);  // let the monitor's load averages settle a bit
    service.ProbeNow("mon-site");  // tracker reads counters, not the probe query

    runtime::EstimateRequest request;
    request.site = "mon-site";
    request.class_id = cls;
    request.features = features;
    const runtime::EstimateResponse response = service.Estimate(request);

    const double true_probe = agent.RunProbingQuery();
    const int true_state = states.StateOf(true_probe);
    if (response.state == true_state) ++agree;
    table.AddRow({phase.label, Format("%.0f", phase.processes),
                  Format("%.2f", response.probing_cost),
                  Format("%.2f", true_probe), Format("%d", response.state),
                  Format("%d", true_state),
                  Format("%.2f", response.estimate_seconds)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nstate agreement without running the probing query: %d/%zu "
              "phases\n\n",
              agree, std::size(kTrace));

  // 4. Staleness fallback: when the tracker stops refreshing (slow or dead
  //    prober), the service keeps serving the last known state — flagged.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // > TTL
  runtime::EstimateRequest request;
  request.site = "mon-site";
  request.class_id = cls;
  request.features = features;
  const runtime::EstimateResponse stale = service.Estimate(request);
  std::printf("after the prober goes quiet past the %lld ms TTL: "
              "estimate %.2f s from state %d, stale_probe=%s\n\n",
              static_cast<long long>(100), stale.estimate_seconds, stale.state,
              stale.stale_probe ? "true" : "false");

  // 5. An occasionally-changing factor (paper §2): the disk degrades 3x —
  //    wear, a RAID rebuild, a noisy neighbor. The monitor statistics do not
  //    move, so the Eq. 2 gauge cannot see it, but observed query costs
  //    balloon. Feedback goes to the adaptation controller, the runtime's
  //    one feedback path: its fast tier refits the coefficient rows of the
  //    states the feedback lands in and publishes them as a row swap; when
  //    that stalls, it escalates to the refresh daemon, which re-derives
  //    through the agent and atomically swaps the corrected model in —
  //    estimates served throughout, flagged stale while a refresh is
  //    pending.
  agent.SetLoadProcesses(40);
  agent.AdvanceLoad(60.0);
  service.ProbeNow("mon-site");
  const runtime::EstimateResponse before = service.Estimate(request);

  agent.SetEnvironmentShift(sim::EnvironmentShift::DegradedDisk(3.0));

  // Held-out post-shift queries judge the served model in the paper's
  // terms (very good: within 30%; good: within a factor of two).
  core::AgentObservationSource holdout_source(&site, cls, 79);
  core::ObservationSet holdout;
  for (int i = 0; i < 60; ++i) holdout.push_back(holdout_source.Draw());
  const auto validate = [&] {
    return core::Validate(*service.CatalogSnapshot()->Find("mon-site", cls),
                          holdout);
  };
  const core::ValidationReport accuracy_before = validate();

  core::AgentObservationSource refresh_source(&site, cls, 77);
  runtime::ModelRefreshConfig refresh_config;
  refresh_config.rederive.build.sample_size = 120;
  runtime::ModelRefreshDaemon daemon(&service, refresh_config);
  daemon.Watch("mon-site", cls, &refresh_source);
  runtime::AdaptationConfig adaptation_config;
  adaptation_config.stall_window = 12;
  adaptation_config.stall_error_threshold = 0.5;
  runtime::AdaptationController controller(&service, &daemon,
                                           adaptation_config);

  // Feedback: observed costs of queries the optimizer priced anyway (here,
  // fresh sample queries stand in for the production workload).
  core::AgentObservationSource workload(&site, cls, 78);
  const auto corrected = [&] {
    return controller.Stats().adaptations_published > 0 ||
           daemon.Stats().refreshes_succeeded > 0;
  };
  int fed = 0;
  while (!corrected() && fed < 80) {
    const core::Observation obs = workload.Draw();
    // The optimizer priced the query before running it; the report echoes
    // the generation that estimate came from.
    runtime::EstimateRequest priced;
    priced.site = "mon-site";
    priced.class_id = cls;
    priced.features = obs.features;
    priced.probing_cost = obs.probing_cost;
    runtime::FeedbackReport report;
    report.site = "mon-site";
    report.class_id = cls;
    report.features = obs.features;
    report.actual_cost = obs.cost;
    report.probing_cost = obs.probing_cost;
    report.model_generation = service.Estimate(priced).model_generation;
    controller.Record(report);
    controller.DrainOnce();
    ++fed;
  }

  // Price the representative query again at the same load as before.
  agent.SetLoadProcesses(40);
  agent.AdvanceLoad(60.0);
  service.ProbeNow("mon-site");
  const runtime::EstimateResponse after = service.Estimate(request);
  const char* tier =
      daemon.Stats().refreshes_succeeded > 0
          ? "the slow tier corrected it (fast tier stalled; re-derived)"
      : controller.Stats().adaptations_published > 0
          ? "the fast tier corrected it (RLS row swap)"
          : "no tier has corrected it yet";
  std::printf("disk degrades 3x (invisible to the monitor gauge):\n");
  std::printf("  estimate before: %.2f s (model derived pre-shift)\n",
              before.estimate_seconds);
  std::printf("  after %d feedback reports %s\n", fed, tier);
  std::printf("  estimate after:  %.2f s (model generation %llu)\n",
              after.estimate_seconds,
              static_cast<unsigned long long>(after.model_generation));
  const core::ValidationReport accuracy_after = validate();
  std::printf("  on %zu held-out post-shift queries: very good %.0f%% -> "
              "%.0f%%, good %.0f%% -> %.0f%%\n",
              holdout.size(), 100.0 * accuracy_before.pct_very_good,
              100.0 * accuracy_after.pct_very_good,
              100.0 * accuracy_before.pct_good,
              100.0 * accuracy_after.pct_good);
  std::printf("  adaptation: %s\n", controller.Stats().ToString().c_str());
  std::printf("  refresh daemon: %s\n\n", daemon.Stats().ToString().c_str());

  std::printf("service runtime stats:\n%s\n",
              service.Stats().ToString().c_str());
  return 0;
}
