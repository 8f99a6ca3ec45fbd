#include "engine/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace mscm::engine {
namespace {

// Distinct heap pages holding `row_ids`, counted on a bitmap of the table's
// pages.
size_t DistinctPages(const Table& table, std::span<const RowId> row_ids) {
  const size_t rows_per_page = table.RowsPerPage();
  std::vector<uint64_t> seen((table.NumPages() + 63) / 64);
  size_t distinct = 0;
  for (RowId id : row_ids) {
    const size_t page = id / rows_per_page;
    uint64_t& word = seen[page / 64];
    const uint64_t bit = uint64_t{1} << (page % 64);
    distinct += (word & bit) == 0;
    word |= bit;
  }
  return distinct;
}

// Multiplicity of each key on a join's build side, in one open-addressing
// table: linear probing over a power-of-two capacity at least 4x the build
// rows. A slot with count 0 is free, so every int64 key fits, and a lookup
// that ends on a free slot reads count 0. The only data-dependent branch is
// the step past a slot holding another key, so the capacity bounds how often
// it mispredicts: at 2x the sampled G3 joins counted ~30% slower. Used only
// for key ranges too wide for JoinMatches' dense array.
class KeyCounts {
 public:
  explicit KeyCounts(size_t build_rows)
      : slots_(std::bit_ceil(std::max<size_t>(2, 4 * build_rows))),
        mask_(slots_.size() - 1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  void Add(int64_t key) {
    Slot& slot = slots_[Find(key)];
    slot.key = key;
    ++slot.count;
  }

  size_t Count(int64_t key) const { return slots_[Find(key)].count; }

 private:
  struct Slot {
    int64_t key = 0;
    size_t count = 0;
  };

  // The slot holding `key`, or the free slot ending its probe sequence.
  size_t Find(int64_t key) const {
    // Fibonacci hashing: the top bits of the key times 2^64 / phi.
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
    while ((slots_[i].count != 0) & (slots_[i].key != key)) i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;
  size_t mask_;
  int shift_;
};

// One side of an equijoin: a table's key column and its qualified rows.
struct JoinSide {
  const Table& table;
  size_t column;
  const std::vector<RowId>& ids;
};

// Matches of the equijoin between two sides' qualified rows. Only keys in
// [lo, hi], the two columns' common value range read from their exact
// ColumnStats, can match; disjoint ranges match nothing. When hi - lo is
// below the two tables' rows, the smaller qualified side's keys are counted
// in a dense uint32 array indexed by key - lo (never larger than the two
// selection vectors): a key outside [lo, hi] lands in one clamp slot past
// the end, which is zeroed between the build and the probe pass, so the
// index is one unsigned subtract and a min, with no branch. Wider ranges
// count in KeyCounts.
size_t JoinMatches(const JoinSide& left, const JoinSide& right) {
  const ColumnStats& ls = left.table.column_stats(left.column);
  const ColumnStats& rs = right.table.column_stats(right.column);
  const int64_t lo = std::max(ls.min, rs.min);
  const int64_t hi = std::min(ls.max, rs.max);
  if (lo > hi) return 0;
  const bool build_left = left.ids.size() <= right.ids.size();
  const JoinSide& build = build_left ? left : right;
  const JoinSide& probe = build_left ? right : left;
  const std::vector<int64_t>& build_keys = build.table.column(build.column);
  const std::vector<int64_t>& probe_keys = probe.table.column(probe.column);

  // Unsigned: two int64 columns can span more than INT64_MAX.
  const uint64_t width =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (width < left.table.num_rows() + right.table.num_rows()) {
    const uint64_t clamp = width + 1;
    const auto slot = [lo, clamp](int64_t key) {
      return std::min(static_cast<uint64_t>(key) - static_cast<uint64_t>(lo),
                      clamp);
    };
    std::vector<uint32_t> counts(clamp + 1);
    for (RowId id : build.ids) ++counts[slot(build_keys[id])];
    counts[clamp] = 0;
    size_t matches = 0;
    for (RowId id : probe.ids) matches += counts[slot(probe_keys[id])];
    return matches;
  }
  KeyCounts counts(build.ids.size());
  for (RowId id : build.ids) counts.Add(build_keys[id]);
  size_t matches = 0;
  for (RowId id : probe.ids) matches += counts.Count(probe_keys[id]);
  return matches;
}

double Log2Safe(double x) { return x <= 2.0 ? 1.0 : std::log2(x); }

}  // namespace

int Executor::ProjectedBytes(const Table& table,
                             const std::vector<int>& projection) const {
  if (projection.empty()) return table.schema().TupleBytes();
  int bytes = 0;
  for (int c : projection) {
    bytes += table.schema().column(static_cast<size_t>(c)).byte_width;
  }
  return bytes;
}

SelectExecution Executor::ExecuteSelect(const SelectQuery& query,
                                        const SelectPlan& plan) const {
  const Table* table = db_->FindTable(query.table);
  MSCM_CHECK_MSG(table != nullptr, "unknown table in select");

  SelectExecution exec;
  exec.method = plan.method;
  exec.operand_rows = table->num_rows();
  exec.operand_tuple_bytes = table->schema().TupleBytes();
  exec.result_tuple_bytes = ProjectedBytes(*table, query.projection);

  const size_t num_conditions = query.predicate.conditions().size();

  switch (plan.method) {
    case AccessMethod::kSequentialScan: {
      exec.work.sequential_pages += static_cast<double>(table->NumPages());
      exec.work.tuples_read += static_cast<double>(table->num_rows());
      exec.work.predicate_evals +=
          static_cast<double>(table->num_rows() * std::max<size_t>(1, num_conditions));
      exec.intermediate_rows = table->num_rows();
      exec.result_rows = Select(*table, query.predicate).size();
      break;
    }
    case AccessMethod::kClusteredIndexScan: {
      MSCM_CHECK(plan.driving_condition >= 0 &&
                 static_cast<size_t>(plan.driving_condition) < num_conditions);
      const Index* idx = db_->ClusteredIndexOn(query.table);
      MSCM_CHECK_MSG(idx != nullptr, "no clustered index for plan");
      const Condition& driving =
          query.predicate.conditions()[static_cast<size_t>(plan.driving_condition)];
      const KeyRange range = driving.Range();
      const std::span<const RowId> row_ids = idx->Lookup(range.lo, range.hi);
      exec.intermediate_rows = row_ids.size();
      exec.work.init_ops += idx->TreeHeight();
      // Qualified rows are physically contiguous: sequential page reads.
      const double pages =
          std::ceil(static_cast<double>(row_ids.size()) /
                    static_cast<double>(table->RowsPerPage()));
      exec.work.sequential_pages += std::max(1.0, pages);
      exec.work.tuples_read += static_cast<double>(row_ids.size());
      // The index enforced the driving condition; the rest are residual.
      exec.work.predicate_evals += static_cast<double>(
          row_ids.size() * std::max<size_t>(1, num_conditions - 1));
      exec.result_rows =
          Select(*table, query.predicate, row_ids, plan.driving_condition)
              .size();
      break;
    }
    case AccessMethod::kNonClusteredIndexScan: {
      MSCM_CHECK(plan.driving_condition >= 0 &&
                 static_cast<size_t>(plan.driving_condition) < num_conditions);
      const Condition& driving =
          query.predicate.conditions()[static_cast<size_t>(plan.driving_condition)];
      const Index* idx = db_->FindIndex(
          query.table, static_cast<size_t>(driving.column));
      MSCM_CHECK_MSG(idx != nullptr, "no index for plan");
      const KeyRange range = driving.Range();
      const std::span<const RowId> row_ids = idx->Lookup(range.lo, range.hi);
      exec.intermediate_rows = row_ids.size();
      exec.work.init_ops += idx->TreeHeight();
      // Leaf directory pages scanned sequentially…
      exec.work.sequential_pages +=
          std::ceil(static_cast<double>(row_ids.size()) / 256.0);
      // …then random heap-page fetches. Within one scan, rows sharing a page
      // hit the same frame, so the I/O demand is the number of *distinct*
      // pages touched (cross-query reuse is the buffer pool's job in the
      // cost simulator).
      exec.work.random_pages +=
          static_cast<double>(DistinctPages(*table, row_ids));
      exec.work.tuples_read += static_cast<double>(row_ids.size());
      exec.work.predicate_evals += static_cast<double>(
          row_ids.size() * std::max<size_t>(1, num_conditions - 1));
      exec.result_rows =
          Select(*table, query.predicate, row_ids, plan.driving_condition)
              .size();
      break;
    }
  }

  exec.work.result_tuples += static_cast<double>(exec.result_rows);
  exec.work.result_bytes += static_cast<double>(exec.result_rows) *
                            static_cast<double>(exec.result_tuple_bytes);
  return exec;
}

JoinExecution Executor::ExecuteJoin(const JoinQuery& query,
                                    const JoinPlan& plan) const {
  const Table* left = db_->FindTable(query.left_table);
  const Table* right = db_->FindTable(query.right_table);
  MSCM_CHECK_MSG(left != nullptr && right != nullptr, "unknown join table");

  JoinExecution exec;
  exec.method = plan.method;
  exec.left_rows = left->num_rows();
  exec.right_rows = right->num_rows();
  exec.left_tuple_bytes = left->schema().TupleBytes();
  exec.right_tuple_bytes = right->schema().TupleBytes();

  // Result tuple width from the projection (both sides when empty).
  if (query.projection.empty()) {
    exec.result_tuple_bytes = exec.left_tuple_bytes + exec.right_tuple_bytes;
  } else {
    int bytes = 0;
    for (auto [side, col] : query.projection) {
      const Table* t = side == 0 ? left : right;
      bytes += t->schema().column(static_cast<size_t>(col)).byte_width;
    }
    exec.result_tuple_bytes = bytes;
  }

  // Qualify both sides (every method scans / filters its inputs; the filter
  // work is charged below per method).
  const std::vector<RowId> left_ids = Select(*left, query.left_predicate);
  const std::vector<RowId> right_ids = Select(*right, query.right_predicate);
  exec.left_qualified = left_ids.size();
  exec.right_qualified = right_ids.size();

  // Real result cardinality (independent of the costed join method — the
  // answer is the same).
  exec.result_rows = JoinMatches(
      {*left, static_cast<size_t>(query.left_column), left_ids},
      {*right, static_cast<size_t>(query.right_column), right_ids});

  const double nl = static_cast<double>(left_ids.size());
  const double nr = static_cast<double>(right_ids.size());
  const double left_pages = static_cast<double>(left->NumPages());
  const double right_pages = static_cast<double>(right->NumPages());
  const double lconds = static_cast<double>(
      std::max<size_t>(1, query.left_predicate.conditions().size()));
  const double rconds = static_cast<double>(
      std::max<size_t>(1, query.right_predicate.conditions().size()));

  switch (plan.method) {
    case JoinMethod::kBlockNestedLoop: {
      const bool left_outer = plan.outer_side == 0;
      const double outer_pages = left_outer ? left_pages : right_pages;
      const double inner_pages = left_outer ? right_pages : left_pages;
      const double blocks = std::max(
          1.0, std::ceil(outer_pages / 63.0));  // one page reserved for inner
      exec.work.sequential_pages += outer_pages + blocks * inner_pages;
      exec.work.tuples_read +=
          static_cast<double>(left->num_rows() + right->num_rows());
      exec.work.predicate_evals +=
          static_cast<double>(left->num_rows()) * lconds +
          static_cast<double>(right->num_rows()) * rconds;
      exec.work.compare_ops += nl * nr;  // join-condition evaluations
      break;
    }
    case JoinMethod::kIndexNestedLoop: {
      const bool left_outer = plan.outer_side == 0;
      const Table* outer_t = left_outer ? left : right;
      const Table* inner_t = left_outer ? right : left;
      const std::vector<RowId>& outer_ids = left_outer ? left_ids : right_ids;
      const Index* inner_idx = db_->FindIndex(
          inner_t->name(),
          static_cast<size_t>(left_outer ? query.right_column
                                         : query.left_column));
      MSCM_CHECK_MSG(inner_idx != nullptr, "index NL join without inner index");
      const double outer_pages =
          static_cast<double>(outer_t->NumPages());
      exec.work.sequential_pages += outer_pages;
      exec.work.tuples_read += static_cast<double>(outer_t->num_rows());
      exec.work.predicate_evals +=
          static_cast<double>(outer_t->num_rows()) *
          (left_outer ? lconds : rconds);
      // One index descent + matching-row fetches per outer tuple.
      exec.work.init_ops += 0.0;  // descents counted as random I/O below
      const double height = inner_idx->TreeHeight();
      double inner_fetches = 0.0;
      const std::vector<int64_t>& outer_keys = outer_t->column(static_cast<size_t>(
          left_outer ? query.left_column : query.right_column));
      for (RowId id : outer_ids) {
        const int64_t key = outer_keys[id];
        inner_fetches += static_cast<double>(inner_idx->CountRange(key, key));
      }
      exec.work.random_pages +=
          static_cast<double>(outer_ids.size()) * height + inner_fetches;
      exec.work.tuples_read += inner_fetches;
      exec.work.predicate_evals +=
          inner_fetches * (left_outer ? rconds : lconds);
      break;
    }
    case JoinMethod::kSortMerge: {
      exec.work.sequential_pages += left_pages + right_pages;
      // External-sort runs: write + re-read both qualified inputs.
      const double lq_pages = std::ceil(
          nl / static_cast<double>(left->RowsPerPage()));
      const double rq_pages = std::ceil(
          nr / static_cast<double>(right->RowsPerPage()));
      exec.work.sequential_pages += 2.0 * (lq_pages + rq_pages);
      exec.work.tuples_read +=
          static_cast<double>(left->num_rows() + right->num_rows());
      exec.work.predicate_evals +=
          static_cast<double>(left->num_rows()) * lconds +
          static_cast<double>(right->num_rows()) * rconds;
      exec.work.compare_ops +=
          nl * Log2Safe(nl) + nr * Log2Safe(nr) + nl + nr;
      break;
    }
    case JoinMethod::kHashJoin: {
      exec.work.sequential_pages += left_pages + right_pages;
      exec.work.tuples_read +=
          static_cast<double>(left->num_rows() + right->num_rows());
      exec.work.predicate_evals +=
          static_cast<double>(left->num_rows()) * lconds +
          static_cast<double>(right->num_rows()) * rconds;
      exec.work.hash_ops += nl + nr;
      // Grace partitioning spill when the build side exceeds memory budget
      // (charged as re-write + re-read of both qualified inputs).
      const double build = std::min(nl, nr);
      constexpr double kInMemoryBuildRows = 200'000.0;
      if (build > kInMemoryBuildRows) {
        const double lq_pages = std::ceil(
            nl / static_cast<double>(left->RowsPerPage()));
        const double rq_pages = std::ceil(
            nr / static_cast<double>(right->RowsPerPage()));
        exec.work.sequential_pages += 2.0 * (lq_pages + rq_pages);
      }
      break;
    }
  }

  exec.work.result_tuples += static_cast<double>(exec.result_rows);
  exec.work.result_bytes += static_cast<double>(exec.result_rows) *
                            static_cast<double>(exec.result_tuple_bytes);
  return exec;
}

size_t Executor::NaiveSelectCount(const SelectQuery& query) const {
  const Table* table = db_->FindTable(query.table);
  MSCM_CHECK(table != nullptr);
  size_t matches = 0;
  for (size_t row = 0; row < table->num_rows(); ++row) {
    if (query.predicate.Matches(*table, row)) ++matches;
  }
  return matches;
}

size_t Executor::NaiveJoinCount(const JoinQuery& query) const {
  const Table* left = db_->FindTable(query.left_table);
  const Table* right = db_->FindTable(query.right_table);
  MSCM_CHECK(left != nullptr && right != nullptr);
  const size_t lcol = static_cast<size_t>(query.left_column);
  const size_t rcol = static_cast<size_t>(query.right_column);
  size_t matches = 0;
  for (size_t l = 0; l < left->num_rows(); ++l) {
    if (!query.left_predicate.Matches(*left, l)) continue;
    const int64_t key = left->value(l, lcol);
    for (size_t r = 0; r < right->num_rows(); ++r) {
      if (right->value(r, rcol) == key &&
          query.right_predicate.Matches(*right, r)) {
        ++matches;
      }
    }
  }
  return matches;
}

}  // namespace mscm::engine
