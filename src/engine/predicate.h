// Conjunctive range/equality predicates, their column-at-a-time evaluation,
// and uniform-assumption selectivity estimation. The query sampler varies
// predicate selectivities to spread sample queries across operand/result
// sizes (the paper's explanatory variables), and the access-path chooser
// uses estimated selectivity to pick between index and sequential scans.

#ifndef MSCM_ENGINE_PREDICATE_H_
#define MSCM_ENGINE_PREDICATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/table.h"

namespace mscm::engine {

enum class CompareOp {
  kEq,       // column == lo
  kLt,       // column <  lo
  kLe,       // column <= lo
  kGt,       // column >  lo
  kGe,       // column >= lo
  kBetween,  // lo <= column <= hi
};

// A closed range [lo, hi] of column values; lo > hi is the empty range.
struct KeyRange {
  int64_t lo = 0;
  int64_t hi = 0;

  static constexpr KeyRange Empty() { return {1, 0}; }
  bool empty() const { return lo > hi; }
  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
};

struct Condition {
  int column = 0;
  CompareOp op = CompareOp::kEq;
  int64_t lo = 0;
  int64_t hi = 0;  // only used by kBetween

  // The values satisfying the condition: the one definition that row
  // matching, column scans, index range scans and selectivity estimation
  // all read. Open sides extend to the int64 limits; a condition no value
  // satisfies (x < INT64_MIN, x > INT64_MAX, between with lo > hi) has the
  // empty range.
  KeyRange Range() const;

  bool Matches(int64_t value) const { return Range().Contains(value); }

  std::string ToString(const Schema& schema) const;
};

// A conjunction of conditions; empty means "true".
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Condition> conditions)
      : conditions_(std::move(conditions)) {}

  // Whether row `row` of `table` satisfies every condition.
  bool Matches(const Table& table, size_t row) const;

  bool empty() const { return conditions_.empty(); }
  const std::vector<Condition>& conditions() const { return conditions_; }
  void Add(Condition c) { conditions_.push_back(c); }

  // Index of the first condition on `column`, or -1.
  int FindCondition(int column) const;

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<Condition> conditions_;
};

// Column-at-a-time evaluation. The first condition scans its column into a
// selection vector of row ids; each further condition keeps the ids whose
// value lies in its range.
//
// The rows of `table` satisfying `pred`, ascending.
std::vector<RowId> Select(const Table& table, const Predicate& pred);
// The ids in `candidates` whose rows satisfy every condition of `pred`
// except the one at index `skip` (-1 skips none), in candidate order.
std::vector<RowId> Select(const Table& table, const Predicate& pred,
                          std::span<const RowId> candidates, int skip = -1);

// Estimated fraction of rows of `table` satisfying `cond`, assuming values
// uniform between the column's min and max statistics.
double EstimateConditionSelectivity(const Table& table, const Condition& cond);

// Product of per-condition selectivities (independence assumption).
double EstimatePredicateSelectivity(const Table& table, const Predicate& pred);

}  // namespace mscm::engine

#endif  // MSCM_ENGINE_PREDICATE_H_
