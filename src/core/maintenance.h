// Cost-model maintenance (paper §2): frequently-changing factors are
// captured by the qualitative variable, but *occasionally-changing* factors
// — DBMS configuration, schema changes, hardware upgrades — shift the whole
// cost surface and require re-invoking the sampling method "periodically or
// whenever a significant change for the factors occurs".
//
// DriftMonitor watches the stream of (estimated, observed) cost pairs the
// optimizer sees anyway and flags when the model's accuracy has degraded
// below its acceptance band; ManagedCostModel couples a model with a monitor
// and rebuilds from a live observation source when drift is flagged.

#ifndef MSCM_CORE_MAINTENANCE_H_
#define MSCM_CORE_MAINTENANCE_H_

#include <deque>
#include <optional>

#include "core/model_builder.h"

namespace mscm::core {

struct DriftMonitorOptions {
  // Rolling window of recent estimate outcomes.
  size_t window = 40;
  // Recommend a rebuild when the fraction of good estimates (within a factor
  // of two) in the window falls below this.
  double min_good_fraction = 0.5;
  // Never judge before this many outcomes have been seen.
  size_t min_outcomes = 20;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(const DriftMonitorOptions& options = {})
      : options_(options) {}

  // Records one estimate outcome.
  void Record(double estimated, double observed);

  // Fraction of good estimates in the current window (1.0 when empty).
  double RecentGoodFraction() const;

  bool RebuildRecommended() const;

  void Reset() { outcomes_.clear(); }
  size_t size() const { return outcomes_.size(); }

 private:
  DriftMonitorOptions options_;
  std::deque<bool> outcomes_;  // true = good estimate
};

// A cost model under maintenance: estimates are tracked, and when accuracy
// drifts out of band the model is rebuilt from fresh samples.
class ManagedCostModel {
 public:
  ManagedCostModel(CostModel model, QueryClassId class_id,
                   ModelBuildOptions build_options,
                   DriftMonitorOptions drift_options = {})
      : model_(std::move(model)),
        class_id_(class_id),
        build_options_(build_options),
        monitor_(drift_options) {}

  // Serving path: evaluates the model's compiled per-state equation table.
  double Estimate(const std::vector<double>& features,
                  double probing_cost) const {
    return model_.EstimateFast(features, probing_cost);
  }

  // Feeds back the observed cost for an earlier estimate.
  void ReportOutcome(double estimated, double observed) {
    monitor_.Record(estimated, observed);
  }

  bool RebuildRecommended() const { return monitor_.RebuildRecommended(); }

  // Rebuilds from `source` if drift is flagged. Returns true when a rebuild
  // happened (the monitor is reset so the new model starts clean).
  bool RebuildIfDrifting(ObservationSource& source);

  const CostModel& model() const { return model_; }
  const DriftMonitor& monitor() const { return monitor_; }
  int rebuild_count() const { return rebuild_count_; }

 private:
  CostModel model_;
  QueryClassId class_id_;
  ModelBuildOptions build_options_;
  DriftMonitor monitor_;
  int rebuild_count_ = 0;
};

// Online re-derivation (the runtime refresh daemon's build step): a
// failure-isolating wrapper over the model-building pipeline.
struct RederiveOptions {
  ModelBuildOptions build;
};

// Draws a fresh sample from `source` (via ObservationSource::TryDraw) and
// runs the full pipeline on it, so the new model sees only the *current*
// environment. Returns nullopt instead of propagating failure: a source
// whose TryDraw fails or a degenerate fit (non-finite R²) must not take down
// a background refresh — the caller keeps serving the old model. There is no
// catch-all: programmer errors in the pipeline abort via MSCM_CHECK.
std::optional<BuildReport> RederiveModel(QueryClassId class_id,
                                         ObservationSource& source,
                                         const RederiveOptions& options);

}  // namespace mscm::core

#endif  // MSCM_CORE_MAINTENANCE_H_
