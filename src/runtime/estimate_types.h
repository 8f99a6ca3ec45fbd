// Request/response types of the online estimation data plane, split out of
// estimation_service.h so the estimate cache can traffic in them without
// depending on the service (the service owns a cache, not the reverse).

#ifndef MSCM_RUNTIME_ESTIMATE_TYPES_H_
#define MSCM_RUNTIME_ESTIMATE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_class.h"

namespace mscm::runtime {

enum class EstimateStatus {
  kOk,
  kNoModel,  // no cost model registered for (site, class)
  kNoProbe,  // no probing_cost given and no cached probe for the site
  // The request cannot be priced as sent: a non-finite feature, a NaN or
  // +inf probing cost (rejected before touching the estimate cache), or a
  // feature vector shorter than the (site, class) model reads (answered,
  // never read past its end, never cached).
  kInvalidRequest,
};

const char* ToString(EstimateStatus s);

struct EstimateRequest {
  std::string site;
  core::QueryClassId class_id = core::QueryClassId::kUnarySeqScan;
  std::vector<double> features;
  // Probing cost to estimate under; negative = use the site's cached probe.
  double probing_cost = -1.0;
};

struct EstimateResponse {
  EstimateStatus status = EstimateStatus::kNoModel;
  double estimate_seconds = 0.0;
  double probing_cost = 0.0;  // the probe value actually used
  int state = -1;             // contention state under the request's model
  bool stale_probe = false;   // cached probe exceeded its TTL
  // The (site, class) model is flagged stale: the refresh daemon has
  // detected drift and a re-derivation is pending or backing off. The
  // estimate is still the best available — callers should widen error bars.
  bool stale_model = false;
  // The site's probe circuit breaker is open or half-open: probes against
  // the site are failing and the estimate was priced from the last known
  // contention state, not a recent measurement. Degraded responses are never
  // cached.
  bool degraded = false;
  // Adaptation generation of the model that priced this estimate (0 = the
  // base fit, +1 per streaming-adaptation swap). Feedback consumers echo it
  // back so (estimate, actual) pairs are credited to the model generation
  // that actually produced the estimate — never to a newer one published in
  // between.
  uint64_t model_generation = 0;

  bool ok() const { return status == EstimateStatus::kOk; }
};

// One observed (estimate, actual) pair flowing back from served traffic —
// the raw material of the streaming-RLS fast adaptation path. Arrives from
// in-process callers or the wire (net kReportActual).
struct FeedbackReport {
  std::string site;
  core::QueryClassId class_id = core::QueryClassId::kUnarySeqScan;
  std::vector<double> features;
  double actual_cost = 0.0;  // observed execution cost, seconds
  // Probing cost the query ran under; negative = resolve from the site's
  // cached probe at drain time (same semantics as EstimateRequest).
  double probing_cost = -1.0;
  // The generation stamped on the EstimateResponse this report closes the
  // loop on; reports from generations older than the currently served model
  // lineage are still folded in (the RLS window forgets), but a full
  // re-derivation resets the lineage and drops buffered stragglers.
  uint64_t model_generation = 0;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ESTIMATE_TYPES_H_
