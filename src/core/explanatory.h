// Explanatory-variable sets per query class (paper Table 3) and feature
// extraction from executed queries.
//
// Basic variables capture cardinalities (operand, intermediate, result
// sizes); secondary variables capture tuple lengths and table byte lengths.
// The mixed backward/forward selection procedure (§4.2) starts from the full
// basic set and considers adding secondary ones.

#ifndef MSCM_CORE_EXPLANATORY_H_
#define MSCM_CORE_EXPLANATORY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/query_class.h"
#include "engine/executor.h"

namespace mscm::core {

struct VariableDef {
  std::string name;
  bool basic = true;
};

class VariableSet {
 public:
  // Paper Table 3's set sizes: ForClass returns 7 variables for a unary
  // class and 12 for a join class.
  static constexpr size_t kUnarySize = 7;
  static constexpr size_t kJoinSize = 12;

  static VariableSet ForClass(QueryClassId id);

  size_t size() const { return defs_.size(); }
  const VariableDef& def(size_t i) const { return defs_[i]; }
  const std::string& name(size_t i) const { return defs_[i].name; }

  std::vector<int> BasicIndices() const;
  std::vector<int> SecondaryIndices() const;

 private:
  explicit VariableSet(std::vector<VariableDef> defs)
      : defs_(std::move(defs)) {}
  std::vector<VariableDef> defs_;
};

// Feature vectors in the order of VariableSet::ForClass for the matching
// class family. Sizes are scaled (cardinalities in kilo-tuples, lengths in
// KB) so regression coefficients stay O(1)–O(100) and well conditioned.
std::vector<double> ExtractUnaryFeatures(const engine::SelectExecution& exec);
std::vector<double> ExtractJoinFeatures(const engine::JoinExecution& exec);

// Planning-time feature estimation: the same vectors predicted from catalog
// statistics *without executing the query* — what the global optimizer
// actually has when it costs candidate placements. Cardinalities come from
// uniform-assumption selectivities; join results from the standard
// |L'|·|R'| / max(d_left, d_right) equijoin estimate.
std::vector<double> EstimateUnaryFeatures(const engine::Database& db,
                                          const engine::SelectQuery& query,
                                          const engine::PlannerRules& rules);
std::vector<double> EstimateJoinFeatures(const engine::Database& db,
                                         const engine::JoinQuery& query,
                                         const engine::PlannerRules& rules);

}  // namespace mscm::core

#endif  // MSCM_CORE_EXPLANATORY_H_
