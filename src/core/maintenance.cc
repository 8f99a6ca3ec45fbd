#include "core/maintenance.h"

#include <algorithm>
#include <cmath>

#include "core/sampling.h"
#include "core/validation.h"

namespace mscm::core {

void DriftMonitor::Record(double estimated, double observed) {
  outcomes_.push_back(IsGoodEstimate(estimated, observed));
  while (outcomes_.size() > options_.window) outcomes_.pop_front();
}

double DriftMonitor::RecentGoodFraction() const {
  if (outcomes_.empty()) return 1.0;
  size_t good = 0;
  for (bool b : outcomes_) {
    if (b) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(outcomes_.size());
}

bool DriftMonitor::RebuildRecommended() const {
  if (outcomes_.size() < options_.min_outcomes) return false;
  return RecentGoodFraction() < options_.min_good_fraction;
}

std::optional<BuildReport> RederiveModel(QueryClassId class_id,
                                         ObservationSource& source,
                                         const RederiveOptions& options) {
  const VariableSet variables = VariableSet::ForClass(class_id);
  const int target =
      options.build.sample_size > 0
          ? options.build.sample_size
          : RecommendedSampleSize(
                static_cast<int>(variables.BasicIndices().size()),
                options.build.expected_max_states);
  // Draw through the failure-reporting interface: an unreachable site yields
  // nullopt and the caller keeps serving the old model. Programmer errors
  // inside the build pipeline still MSCM_CHECK-abort — they must not be
  // silently converted into "refresh skipped" (DESIGN §6).
  std::optional<ObservationSet> drawn =
      TryDrawObservations(source, std::max(1, target));
  if (!drawn.has_value()) return std::nullopt;
  BuildReport report = BuildCostModelFromObservations(
      class_id, std::move(*drawn), options.build);
  if (!std::isfinite(report.model.r_squared())) return std::nullopt;
  return report;
}

bool ManagedCostModel::RebuildIfDrifting(ObservationSource& source) {
  if (!monitor_.RebuildRecommended()) return false;
  BuildReport report = BuildCostModel(class_id_, source, build_options_);
  model_ = std::move(report.model);
  monitor_.Reset();
  ++rebuild_count_;
  return true;
}

}  // namespace mscm::core
