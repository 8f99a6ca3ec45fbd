#include "inputs.h"

#include "bench/bench_util.h"
#include "common/rng.h"
#include "net/loadgen.h"

namespace perfbench {

using mscm::core::QueryClassId;
using mscm::core::StateAlgorithm;

namespace {

// A mixing step for deriving independent seeds.
uint64_t MixSeed(uint64_t a, uint64_t b) {
  mscm::SplitMix64 sm(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  sm.Next();
  return sm.Next();
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "serve_point") return Workload::kServePoint;
  if (name == "serve_batch") return Workload::kServeBatch;
  if (name == "serve_feedback") return Workload::kServeFeedback;
  if (name == "derive") return Workload::kDerive;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServePoint: return "serve_point";
    case Workload::kServeBatch: return "serve_batch";
    case Workload::kServeFeedback: return "serve_feedback";
    case Workload::kDerive: return "derive";
  }
  return "?";
}

std::vector<mscm::runtime::EstimateRequest> ServingWorkingSet(Workload w,
                                                              uint64_t seed) {
  const size_t n =
      w == Workload::kServeBatch ? kBatchWorkingSet : kHotSetSize;
  return mscm::net::MakeUniformWorkload(
      n, kServedSites, MixSeed(seed, static_cast<uint64_t>(w)));
}

size_t ConnectionOffset(size_t working_set, int connection) {
  // Batch-aligned halves of the working set.
  const size_t half = working_set / kConnections;
  return (static_cast<size_t>(connection) * half) % working_set;
}

double LawCost(const mscm::runtime::EstimateRequest& request, int state) {
  const double w[3] = {0.5, 0.2, 0.1};
  double base = 0.0;
  for (size_t j = 0; j < 3 && j < request.features.size(); ++j) {
    base += w[j] * request.features[j];
  }
  return (static_cast<double>(state) + 1.0) * base;
}

double FeedbackFactor(double seconds_since_start) {
  return 1.5 + 0.05 * (seconds_since_start > 0.0 ? seconds_since_start : 0.0);
}

uint64_t FeedbackNoiseSeed(uint64_t seed, int connection) {
  return MixSeed(seed ^ 0xfeedbac4ull, static_cast<uint64_t>(connection));
}

std::vector<DeriveJob> DeriveJobs() {
  std::vector<DeriveJob> jobs;
  for (const char* site : {"alpha", "beta"}) {
    for (QueryClassId cls :
         {QueryClassId::kUnarySeqScan, QueryClassId::kUnaryNonClusteredIndex,
          QueryClassId::kJoinNoIndex}) {
      for (StateAlgorithm algo : {StateAlgorithm::kIupma, StateAlgorithm::kIcma}) {
        jobs.push_back(DeriveJob{site, cls, algo});
      }
    }
  }
  return jobs;
}

mscm::mdbs::LocalDbsConfig DeriveSiteConfig(const std::string& site) {
  // The paper's testbed as the repository's bench binaries configure it,
  // at kDeriveScale.
  mscm::mdbs::LocalDbsConfig config =
      mscm::bench::SiteConfig(site, site == "beta" ? 2 : 1);
  config.tables.scale = kDeriveScale;
  return config;
}

uint64_t TestSetSeed(uint64_t seed, const std::string& site,
                     QueryClassId class_id) {
  return MixSeed(MixSeed(seed, site == "beta" ? 20 : 10),
                 static_cast<uint64_t>(class_id));
}

uint64_t JobSeed(uint64_t seed, int round, size_t job) {
  return MixSeed(MixSeed(seed, 1000 + static_cast<uint64_t>(round)), job);
}

}  // namespace perfbench
