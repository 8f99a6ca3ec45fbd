// Federated query planning — the paper's motivating scenario (§1): a global
// query optimizer must decide WHERE to execute component queries, and it can
// only do that with local cost models it derived itself.
//
// Setup: two autonomous local DBSs ("alpha", Oracle-like; "beta", DB2-like)
// both hold replicas of the same logical tables. The MDBS derives
// multi-states cost models for each site's join class and registers them in
// the online EstimationService (src/runtime): per-site contention trackers
// cache the probing cost, and the planner prices both candidate placements
// of every join in ONE EstimateBatch call — no probing query on the
// estimation path — routing each query to whichever replica is currently
// cheaper. Decisions flip as the sites' contention levels drift apart.

#include <cstdio>

#include "common/str_util.h"
#include "common/text_table.h"
#include "core/agent_source.h"
#include "core/explanatory.h"
#include "core/model_builder.h"
#include "mdbs/agent.h"
#include "mdbs/local_dbs.h"
#include "runtime/estimation_service.h"
#include "sim/network.h"

namespace {

using namespace mscm;

mdbs::LocalDbsConfig MakeSite(const std::string& name, uint64_t seed) {
  mdbs::LocalDbsConfig config;
  config.site_name = name;
  config.profile = name == "beta" ? sim::PerformanceProfile::Beta()
                                  : sim::PerformanceProfile::Alpha();
  config.tables.num_tables = 6;
  config.tables.scale = 0.3;
  config.load.regime = sim::LoadRegime::kRandomWalk;
  config.load.min_processes = 10.0;
  config.load.max_processes = 110.0;
  config.seed = seed;  // same seed on purpose: replicated databases
  return config;
}

}  // namespace

int main() {
  // Both sites hold the same data (same generation seed) but run different
  // DBMSs on machines with independent load histories.
  mdbs::LocalDbs alpha(MakeSite("alpha", 77));
  mdbs::LocalDbs beta(MakeSite("beta", 77));
  mdbs::MdbsAgent agent_alpha(&alpha);
  mdbs::MdbsAgent agent_beta(&beta);

  const core::QueryClassId cls = core::QueryClassId::kJoinNoIndex;

  // 1. The MDBS derives a multi-states cost model per site and registers it
  //    with the online estimation service. Each site also gets a contention
  //    tracker probing through its MDBS agent.
  std::printf("Deriving local cost models (multi-states query sampling)…\n");
  runtime::EstimationServiceConfig service_config;
  service_config.probe_ttl = std::chrono::hours(1);  // probing is manual here
  runtime::EstimationService service(service_config);
  for (mdbs::LocalDbs* site : {&alpha, &beta}) {
    core::AgentObservationSource source(site, cls, 5 + site->profile().name.size());
    core::ModelBuildOptions options;
    options.algorithm = core::StateAlgorithm::kIupma;
    options.sample_size = 250;
    core::BuildReport report = core::BuildCostModel(cls, source, options);
    std::printf("  site %-5s : %d states, R^2 = %.3f\n", site->name().c_str(),
                report.model.states().num_states(), report.model.r_squared());
    service.RegisterModel(site->name(), std::move(report.model));
  }
  service.RegisterSite(&agent_alpha);
  service.RegisterSite(&agent_beta);

  // Network links from the global server to each site: beta sits behind a
  // slower, busier link, so shipping large results from it costs real time.
  sim::NetworkLinkConfig link_alpha_config;
  link_alpha_config.name = "to-alpha";
  link_alpha_config.bandwidth_bytes_per_sec = 4.0e6;
  link_alpha_config.mean_utilization = 0.2;
  sim::NetworkLinkConfig link_beta_config;
  link_beta_config.name = "to-beta";
  link_beta_config.bandwidth_bytes_per_sec = 1.0e6;
  link_beta_config.mean_utilization = 0.45;
  sim::NetworkLink link_alpha(link_alpha_config, 171);
  sim::NetworkLink link_beta(link_beta_config, 172);

  // 2. Route a stream of join queries. Each round the trackers refresh the
  //    sites' contention states; the planner then prices both placements in
  //    one batched service call and picks the cheaper total.
  std::printf("\nRouting join queries to the cheaper replica:\n\n");
  TextTable table({"query", "probe alpha (s)", "probe beta (s)",
                   "est alpha (s)", "est beta (s)", "chosen",
                   "actual alpha (s)", "actual beta (s)", "right?"});

  core::QuerySampler sampler(&alpha.database(), alpha.profile().planner, 99);
  int correct = 0;
  double routed_cost = 0.0;
  double best_cost = 0.0;
  constexpr int kQueries = 12;
  for (int i = 0; i < kQueries; ++i) {
    // Load and link conditions drift between queries.
    agent_alpha.AdvanceLoad(600.0);
    agent_beta.AdvanceLoad(600.0);
    link_alpha.Advance(600.0);
    link_beta.Advance(600.0);

    const engine::JoinQuery query = sampler.SampleJoin(cls);

    // Refresh the cached contention state of each site (in a deployment the
    // background probers do this on their own clock).
    service.ProbeNow("alpha");
    service.ProbeNow("beta");
    const double probe_alpha = service.CurrentProbe("alpha").probing_cost;
    const double probe_beta = service.CurrentProbe("beta").probing_cost;

    // Planning-time feature vectors from catalog statistics: the optimizer
    // never executes the query to learn its own result size.
    const std::vector<double> features_alpha = core::EstimateJoinFeatures(
        alpha.database(), query, alpha.profile().planner);
    const std::vector<double> features_beta = core::EstimateJoinFeatures(
        beta.database(), query, beta.profile().planner);

    // Shipping estimate: estimated result bytes over the link's current
    // conditions (gauged by a link probe of 64 KB).
    const double est_result_bytes =
        features_alpha[4] * 1000.0 * features_alpha[8];  // N_rt * TL_rt
    auto shipping_estimate = [est_result_bytes](sim::NetworkLink& link) {
      const double probe_seconds = link.Probe();
      return probe_seconds * est_result_bytes / (64.0 * 1024.0);
    };

    runtime::PlacementCandidate cand_alpha;
    cand_alpha.request.site = "alpha";
    cand_alpha.request.class_id = cls;
    cand_alpha.request.features = features_alpha;
    cand_alpha.shipping_seconds = shipping_estimate(link_alpha);
    runtime::PlacementCandidate cand_beta;
    cand_beta.request.site = "beta";
    cand_beta.request.class_id = cls;
    cand_beta.request.features = features_beta;
    cand_beta.shipping_seconds = shipping_estimate(link_beta);

    const runtime::PlacementResult decision =
        service.ChoosePlacement({cand_alpha, cand_beta});

    // A global optimizer enumerating join orders revisits the same component
    // placement many times; a re-pricing within this round, where the sites'
    // contention states have not moved, must reach the same decision.
    const runtime::PlacementResult repriced =
        service.ChoosePlacement({cand_alpha, cand_beta});
    if (repriced.chosen != decision.chosen) {
      std::printf("  (re-priced placement diverged — unexpected)\n");
    }

    // Ground truth: actually run the join at both sites and ship the result.
    const auto run_alpha = agent_alpha.RunJoin(query);
    const auto run_beta = agent_beta.RunJoin(query);
    const double result_bytes = run_alpha.execution.work.result_bytes;
    const double actual_alpha =
        run_alpha.elapsed_seconds + link_alpha.Transfer(result_bytes);
    const double actual_beta =
        run_beta.elapsed_seconds + link_beta.Transfer(result_bytes);
    const bool chose_alpha = decision.chosen == 0;
    const bool right =
        chose_alpha == (actual_alpha <= actual_beta);
    if (right) ++correct;
    routed_cost += chose_alpha ? actual_alpha : actual_beta;
    best_cost += std::min(actual_alpha, actual_beta);

    table.AddRow({Format("J%d", i + 1), Format("%.2f", probe_alpha),
                  Format("%.2f", probe_beta),
                  Format("%.1f", decision.total_seconds[0]),
                  Format("%.1f", decision.total_seconds[1]),
                  chose_alpha ? "alpha" : "beta",
                  Format("%.1f", actual_alpha), Format("%.1f", actual_beta),
                  right ? "yes" : "no"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nrouting picked the truly cheaper replica %d/%d times;\n"
      "total routed cost %.1f s vs %.1f s for an oracle router "
      "(%.0f%% of optimal).\n",
      correct, kQueries, routed_cost, best_cost,
      100.0 * best_cost / routed_cost);

  std::printf("\nservice runtime stats:\n%s\n",
              service.Stats().ToString().c_str());
  return 0;
}
