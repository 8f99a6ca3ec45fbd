// The derive workload: the paper's own product. A fixed list of derivation
// jobs, each core::BuildCostModel from a freshly seeded agent source on a
// simulated site, then core::Validate on a held-out test set. The work is
// fixed by the seed and the run length, never by a time window, so one seed
// always yields the same models and the same accuracy.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/agent_source.h"
#include "core/model_builder.h"
#include "core/validation.h"
#include "trace.h"

namespace perfbench {

namespace {

using mscm::core::ObservationSet;
using mscm::core::QueryClassId;

constexpr int kSetups = 5;
constexpr int kProbesPerSite = 100;

// Moves the (single) deriving thread over every CPU it may run on, one CPU
// per turn, and restores its affinity at the end. Left alone, a run stays
// on whichever CPU the scheduler picked, and on a shared host the same
// work ran up to 25% slower on one CPU than on another; taking turns puts
// that difference inside every run instead of between runs.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Turn(int turn) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<size_t>(turn) % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

// The site's agent source with every draw the pipeline makes (including
// ICMA's targeted top-ups) wrapped in a span.
class TracedSource : public mscm::core::ObservationSource {
 public:
  TracedSource(mscm::mdbs::LocalDbs* site, QueryClassId class_id, uint64_t seed,
               Tracer* tracer)
      : inner_(site, class_id, seed), tracer_(tracer) {}

  mscm::core::Observation Draw() override {
    ScopedSpan span(*tracer_, kMdbsDraw);
    return inner_.Draw();
  }

  std::optional<mscm::core::Observation> DrawInProbingRange(
      double lo, double hi, int max_attempts) override {
    ScopedSpan span(*tracer_, kMdbsDraw);
    return inner_.DrawInProbingRange(lo, hi, max_attempts);
  }

 private:
  mscm::core::AgentObservationSource inner_;
  Tracer* tracer_;
};

// Both sites and every job's held-out test set.
struct Environment {
  std::map<std::string, std::unique_ptr<mscm::mdbs::LocalDbs>> sites;
  std::map<std::pair<std::string, QueryClassId>, ObservationSet> tests;
};

std::unique_ptr<Environment> BuildEnvironment(uint64_t seed,
                                              const std::vector<DeriveJob>& jobs) {
  auto env = std::make_unique<Environment>();
  for (const DeriveJob& job : jobs) {
    auto& site = env->sites[job.site];
    if (site == nullptr) {
      site = std::make_unique<mscm::mdbs::LocalDbs>(DeriveSiteConfig(job.site));
    }
    const auto key = std::make_pair(job.site, job.class_id);
    if (env->tests.count(key) == 0) {
      mscm::core::AgentObservationSource source(
          site.get(), job.class_id, TestSetSeed(seed, job.site, job.class_id));
      env->tests[key] = mscm::core::DrawObservations(source, kTestQueries);
    }
  }
  return env;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Tally {
  uint64_t models = 0;
  uint64_t failed = 0;
  uint64_t test_queries = 0;
  uint64_t very_good = 0;
  uint64_t good = 0;
  uint64_t observations = 0;
  uint64_t states = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latencies_us;

  double models_per_s() const {
    return seconds > 0.0 ? static_cast<double>(models) / seconds : 0.0;
  }
  double cpu_us_per_model() const {
    return cpu_seconds * 1e6 / std::max<double>(1.0, static_cast<double>(models));
  }
};

// Runs every job once. With a live tracer each model's training set is
// also refitted by core::FitCostModel; that replay is left out of the
// round's time.
void RunRound(Environment& env, const std::vector<DeriveJob>& jobs,
              uint64_t seed, int round, Tracer& tracer, Tally& tally,
              Result& result) {
  const int64_t round_start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  int64_t replay_ns = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const DeriveJob& job = jobs[j];
    const ObservationSet& test = env.tests.at({job.site, job.class_id});
    TracedSource source(env.sites.at(job.site).get(), job.class_id,
                        JobSeed(seed, round, j), &tracer);
    mscm::core::ModelBuildOptions build_options;
    build_options.algorithm = job.algorithm;

    const int64_t t0 = NowNs();
    tracer.Begin(kDeriveJob, j);
    mscm::core::BuildReport report = [&] {
      ScopedSpan span(tracer, kCoreBuild);
      return mscm::core::BuildCostModel(job.class_id, source, build_options);
    }();
    const mscm::core::ValidationReport validation = [&] {
      ScopedSpan span(tracer, kCoreValidate);
      return mscm::core::Validate(report.model, test);
    }();
    tracer.End();
    tally.latencies_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);

    // Output check: the model prices every test query, and Validate's
    // fractions are the per-query bands counted here.
    uint64_t very_good = 0;
    uint64_t good = 0;
    bool priced = validation.n_test == test.size();
    for (const mscm::core::Observation& q : test) {
      const double estimate = report.model.Estimate(q.features, q.probing_cost);
      if (!std::isfinite(estimate) || estimate < 0.0) priced = false;
      very_good += mscm::core::IsVeryGoodEstimate(estimate, q.cost);
      good += mscm::core::IsGoodEstimate(estimate, q.cost);
    }
    const double n = static_cast<double>(test.size());
    if (!priced || std::fabs(validation.pct_very_good - very_good / n) > 1e-12 ||
        std::fabs(validation.pct_good - good / n) > 1e-12) {
      ++tally.failed;
      result.Fail("derive job " + std::to_string(j) + " (" + job.site + " " +
                  mscm::core::Label(job.class_id) + " " +
                  mscm::core::ToString(job.algorithm) +
                  ") did not price its test set");
    }
    ++tally.models;
    tally.test_queries += test.size();
    tally.very_good += very_good;
    tally.good += good;
    tally.observations += report.training.size();
    tally.states += static_cast<uint64_t>(report.model.states().num_states());

    if (tracer.enabled()) {
      tracer.Begin(kStatsFit);
      const mscm::core::CostModel refit = mscm::core::FitCostModel(
          job.class_id, report.training, report.model.selected_variables(),
          report.model.states(), build_options.form);
      replay_ns += tracer.End();
      if (!std::isfinite(refit.r_squared())) result.FailCheck("refit diverged");
    }
  }
  tally.seconds += Seconds(round_start, NowNs()) -
                   static_cast<double>(replay_ns) * 1e-9;
  tally.cpu_seconds += ProcessCpuSeconds() - cpu_start;
}

// Linear-interpolated sample percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double PerCallNs(const Tracer::Totals& t) {
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) / static_cast<double>(t.count);
}

// The fixed amount of work a run of `seconds` does: twelve rounds of every
// job per five seconds (about 1.3 s per round here), 288 models at 10 s, so
// that p99 rests on three or four models rather than one.
int DeriveRounds(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 2.4)));
}

}  // namespace

Result RunDerive(const Options& options) {
  Result result;
  const std::vector<DeriveJob> jobs = DeriveJobs();

  CpuRotation cpus;
  std::unique_ptr<Environment> env;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    cpus.Turn(i);
    env.reset();
    const int64_t t0 = NowNs();
    env = BuildEnvironment(options.seed, jobs);
    setups.push_back(Seconds(t0, NowNs()));
  }

  const int rounds = options.describe ? 1 : DeriveRounds(options.seconds);
  const int untraced_rounds =
      options.trace ? std::max(1, rounds / 2) : rounds;
  const int traced_rounds = options.trace ? std::max(1, rounds - untraced_rounds) : 0;

  Tracer idle(false, 0, 0);
  Tally untraced;
  for (int r = 0; r < untraced_rounds; ++r) {
    cpus.Turn(r);
    RunRound(*env, jobs, options.seed, r, idle, untraced, result);
  }
  Tracer tracer(options.trace, 0, 1u << 16);
  Tally traced;
  for (int r = 0; r < traced_rounds; ++r) {
    cpus.Turn(untraced_rounds + r);
    RunRound(*env, jobs, options.seed, untraced_rounds + r, tracer, traced,
             result);
  }

  const uint64_t models = untraced.models + traced.models;
  result.attempted += models;
  result.failed += untraced.failed + traced.failed;
  const double test_queries = static_cast<double>(
      std::max<uint64_t>(1, untraced.test_queries + traced.test_queries));
  const double very_good_frac =
      static_cast<double>(untraced.very_good + traced.very_good) / test_queries;
  const double good_frac =
      static_cast<double>(untraced.good + traced.good) / test_queries;
  const double observations_per_model =
      static_cast<double>(untraced.observations + traced.observations) /
      static_cast<double>(std::max<uint64_t>(1, models));
  const double states_per_model =
      static_cast<double>(untraced.states + traced.states) /
      static_cast<double>(std::max<uint64_t>(1, models));
  if (options.describe) {
    std::string list;
    for (const DeriveJob& job : jobs) {
      if (!list.empty()) list += ", ";
      list += "\"" + job.site + "/" + mscm::core::Label(job.class_id) + "/" +
              mscm::core::ToString(job.algorithm) + "\"";
    }
    result.notes.push_back(
        "{\"workload\": \"derive\", \"jobs\": [" + list +
        "], \"scale\": " + std::to_string(kDeriveScale) +
        ", \"test_queries\": " + std::to_string(kTestQueries) + "}");
  }
  result.notes.push_back("derive: " + std::to_string(models) + " models in " +
                         std::to_string(rounds) + " rounds of " +
                         std::to_string(jobs.size()) + " jobs, latency samples " +
                         std::to_string(untraced.latencies_us.size()) +
                         ", set-ups " + std::to_string(setups.size()));

  if (options.describe || !options.trace) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("throughput_per_s", untraced.models_per_s(), "1/s");
    result.Add("latency_p50_us", Percentile(untraced.latencies_us, 0.50), "us");
    result.Add("latency_p99_us", Percentile(untraced.latencies_us, 0.99), "us");
    result.Add("very_good_frac", very_good_frac, "frac");
    result.Add("good_frac", good_frac, "frac");
    result.Add("peak_rss_mb", PeakRssMb(0), "MiB");
    result.Add("cpu_us_per_op", untraced.cpu_us_per_model(), "us");
    result.Add("ok_frac",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(std::max<uint64_t>(1, result.attempted)),
               "frac");
    if (options.describe) {
      result.Add("core.observations_per_model", observations_per_model, "count");
      result.Add("core.states_per_model", states_per_model, "count");
    }
    return result;
  }

  // Traced mode: the probing query, timed directly on both sites.
  for (auto& [name, site] : env->sites) {
    for (int i = 0; i < kProbesPerSite; ++i) {
      ScopedSpan span(tracer, kMdbsProbe);
      site->RunProbingQuery();
    }
  }
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/derive-seed" +
                             std::to_string(options.seed) + ".csv";
    if (WriteTraceFile(path, {&tracer})) result.notes.push_back("spans: " + path);
  }

  const double traced_models =
      static_cast<double>(std::max<uint64_t>(1, traced.models));
  const Tracer::Totals& draw = tracer.totals(kMdbsDraw);
  result.Add("core.sample_ms_per_model",
             static_cast<double>(draw.total_ns) * 1e-6 / traced_models, "ms");
  result.Add("mdbs.draw_us", PerCallNs(draw) * 1e-3, "us");
  result.Add("mdbs.probe_us", PerCallNs(tracer.totals(kMdbsProbe)) * 1e-3, "us");
  result.Add("core.build_ms_per_model",
             static_cast<double>(tracer.totals(kCoreBuild).self_ns) * 1e-6 /
                 traced_models,
             "ms");
  result.Add("stats.fit_us", PerCallNs(tracer.totals(kStatsFit)) * 1e-3, "us");
  result.Add("core.validate_ms_per_model",
             PerCallNs(tracer.totals(kCoreValidate)) * 1e-6, "ms");
  result.Add("core.observations_per_model", observations_per_model, "count");
  result.Add("core.states_per_model", states_per_model, "count");
  result.Add("trace.overhead_frac",
             untraced.models_per_s() > 0.0
                 ? 1.0 - traced.models_per_s() / untraced.models_per_s()
                 : 0.0,
             "frac");
  return result;
}

}  // namespace perfbench
