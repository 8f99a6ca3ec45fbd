// Query executor with physical-work accounting.
//
// Executions are *real*: the result cardinality comes from actually
// evaluating predicates and join matches against table data, so the
// explanatory variables fed into the regression (operand sizes, intermediate
// sizes, result sizes) are ground truth, not estimates. Work counters are
// analytic where a faithful loop would be pointlessly quadratic (e.g. block
// nested loop compare counts).
//
// Predicates run a column at a time over selection vectors of row ids
// (engine/predicate.h). The executor keeps no state between calls: every
// buffer is per call, so concurrent calls on one const Executor are safe.

#ifndef MSCM_ENGINE_EXECUTOR_H_
#define MSCM_ENGINE_EXECUTOR_H_

#include <cstddef>

#include "engine/access_path.h"
#include "engine/database.h"
#include "engine/query.h"
#include "engine/work_counters.h"

namespace mscm::engine {

struct SelectExecution {
  AccessMethod method = AccessMethod::kSequentialScan;
  size_t operand_rows = 0;       // cardinality of the operand table
  size_t intermediate_rows = 0;  // tuples fetched by the access method
  size_t result_rows = 0;        // tuples satisfying the whole predicate
  int operand_tuple_bytes = 0;
  int result_tuple_bytes = 0;
  WorkCounters work;
};

struct JoinExecution {
  JoinMethod method = JoinMethod::kHashJoin;
  size_t left_rows = 0;
  size_t right_rows = 0;
  size_t left_qualified = 0;   // left tuples passing the left predicate
  size_t right_qualified = 0;  // right tuples passing the right predicate
  size_t result_rows = 0;
  int left_tuple_bytes = 0;
  int right_tuple_bytes = 0;
  int result_tuple_bytes = 0;
  WorkCounters work;
};

class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) { MSCM_CHECK(db != nullptr); }

  SelectExecution ExecuteSelect(const SelectQuery& query,
                                const SelectPlan& plan) const;

  JoinExecution ExecuteJoin(const JoinQuery& query, const JoinPlan& plan) const;

  // Reference implementations (pure semantics, no work accounting) used by
  // the test suite to validate executor results.
  size_t NaiveSelectCount(const SelectQuery& query) const;
  size_t NaiveJoinCount(const JoinQuery& query) const;

 private:
  int ProjectedBytes(const Table& table,
                     const std::vector<int>& projection) const;

  const Database* db_;
};

}  // namespace mscm::engine

#endif  // MSCM_ENGINE_EXECUTOR_H_
