// What each workload sends, generated only from the workload seed.
//
// Serving workloads drive the federation mscm_served stands up (4 sites x
// the unary-scan and no-index-join classes); the requests come from
// net::MakeUniformWorkload, so they match that federation's feature layout.
// The derive workload's job list and site configuration live here too, so
// the seed test can check that a seed changes the inputs but not their
// shape.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model_builder.h"
#include "core/query_class.h"
#include "mdbs/local_dbs.h"
#include "runtime/estimate_types.h"

namespace perfbench {

enum class Workload { kServePoint, kServeBatch, kServeFeedback, kDerive };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// Closed-loop connections per serving workload, one thread each.
inline constexpr int kConnections = 2;
// serve_point / serve_feedback cycle this many distinct requests: well
// inside mscm_served's 4096-entry per-thread estimate cache.
inline constexpr size_t kHotSetSize = 1024;
// serve_batch sends frames of this many items over this many distinct
// requests: 16x the per-thread estimate cache, so nearly every item misses.
inline constexpr size_t kBatchSize = 64;
inline constexpr size_t kBatchWorkingSet = 65536;
// Estimates in the set-up warm pass (4 passes over the hot set; one pass
// over the batch working set).
inline constexpr size_t kWarmEstimates = 4096;
// mscm_served's federation (always seed 1, 4 sites).
inline constexpr size_t kServedSites = 4;

// The distinct requests a serving workload cycles through.
std::vector<mscm::runtime::EstimateRequest> ServingWorkingSet(Workload w,
                                                              uint64_t seed);

// Where connection `connection` starts in the working set, so the two
// connections do not send the same request at the same time.
size_t ConnectionOffset(size_t working_set, int connection);

// The ground-truth law of mscm_served's synthetic federation:
// (state + 1) * (0.5 f0 + 0.2 f1 + 0.1 f2).
double LawCost(const mscm::runtime::EstimateRequest& request, int state);

// serve_feedback reports the law times this factor (plus ~5% noise): it
// starts at 1.5x, outside the very-good band, and drifts slowly upward.
double FeedbackFactor(double seconds_since_start);
inline constexpr double kFeedbackNoise = 0.05;

// Seed of connection `connection`'s feedback-noise stream.
uint64_t FeedbackNoiseSeed(uint64_t seed, int connection);

// One derivation job: a site, a query class and a state algorithm.
struct DeriveJob {
  std::string site;
  mscm::core::QueryClassId class_id;
  mscm::core::StateAlgorithm algorithm;
};

// {alpha, beta} x {G1, G2, G3} x {IUPMA, ICMA}.
std::vector<DeriveJob> DeriveJobs();

// Sites at one tenth of paper scale. Like mscm_served's federation they are
// the system, fixed for every seed; the seed picks the queries each job
// samples and the test sets. Validate costs 0.02 ms a model, so 300 test
// queries per site and class only lengthen set-up, and they keep the
// accuracy fractions' seed-to-seed spread under a third of their bound.
inline constexpr double kDeriveScale = 0.1;
inline constexpr int kTestQueries = 300;
mscm::mdbs::LocalDbsConfig DeriveSiteConfig(const std::string& site);

// Seeds of the held-out test-set source for (site, class), and of the
// sampling source of job `job` in round `round`.
uint64_t TestSetSeed(uint64_t seed, const std::string& site,
                     mscm::core::QueryClassId class_id);
uint64_t JobSeed(uint64_t seed, int round, size_t job);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
