#include "engine/predicate.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/str_util.h"

namespace mscm::engine {

KeyRange Condition::Range() const {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (op) {
    case CompareOp::kEq:
      return {lo, lo};
    case CompareOp::kLt:
      return lo == kMin ? KeyRange::Empty() : KeyRange{kMin, lo - 1};
    case CompareOp::kLe:
      return {kMin, lo};
    case CompareOp::kGt:
      return lo == kMax ? KeyRange::Empty() : KeyRange{lo + 1, kMax};
    case CompareOp::kGe:
      return {lo, kMax};
    case CompareOp::kBetween:
      return lo > hi ? KeyRange::Empty() : KeyRange{lo, hi};
  }
  return KeyRange::Empty();
}

std::string Condition::ToString(const Schema& schema) const {
  const std::string& name =
      schema.column(static_cast<size_t>(column)).name;
  switch (op) {
    case CompareOp::kEq:
      return Format("%s = %lld", name.c_str(), static_cast<long long>(lo));
    case CompareOp::kLt:
      return Format("%s < %lld", name.c_str(), static_cast<long long>(lo));
    case CompareOp::kLe:
      return Format("%s <= %lld", name.c_str(), static_cast<long long>(lo));
    case CompareOp::kGt:
      return Format("%s > %lld", name.c_str(), static_cast<long long>(lo));
    case CompareOp::kGe:
      return Format("%s >= %lld", name.c_str(), static_cast<long long>(lo));
    case CompareOp::kBetween:
      return Format("%s between %lld and %lld", name.c_str(),
                    static_cast<long long>(lo), static_cast<long long>(hi));
  }
  return "?";
}

int Predicate::FindCondition(int column) const {
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (conditions_[i].column == column) return static_cast<int>(i);
  }
  return -1;
}

std::string Predicate::ToString(const Schema& schema) const {
  if (conditions_.empty()) return "true";
  std::vector<std::string> parts;
  parts.reserve(conditions_.size());
  for (const Condition& c : conditions_) parts.push_back(c.ToString(schema));
  return Join(parts, " and ");
}

bool Predicate::Matches(const Table& table, size_t row) const {
  for (const Condition& c : conditions_) {
    if (!c.Matches(table.value(row, static_cast<size_t>(c.column)))) {
      return false;
    }
  }
  return true;
}

namespace {

// The selection-vector scan behind both Select overloads; `candidate(j)`
// is the j-th of `count` candidate row ids.
template <typename Candidate>
std::vector<RowId> SelectFrom(const Table& table, const Predicate& pred,
                              size_t count, Candidate candidate, int skip) {
  std::vector<RowId> sel(count);
  size_t kept = count;
  bool scanned = false;
  const std::vector<Condition>& conds = pred.conditions();
  for (size_t c = 0; c < conds.size(); ++c) {
    if (static_cast<int>(c) == skip) continue;
    const Condition& cond = conds[c];
    MSCM_CHECK(cond.column >= 0 &&
               static_cast<size_t>(cond.column) < table.schema().num_columns());
    const KeyRange range = cond.Range();
    if (range.empty()) return {};
    // Membership as one unsigned compare: v - lo wraps above hi - lo
    // exactly when v lies outside [lo, hi].
    const uint64_t lo = static_cast<uint64_t>(range.lo);
    const uint64_t width = static_cast<uint64_t>(range.hi) - lo;
    const int64_t* values = table.column(static_cast<size_t>(cond.column)).data();
    size_t n = 0;
    if (!scanned) {
      for (size_t j = 0; j < count; ++j) {
        const RowId id = candidate(j);
        sel[n] = id;
        n += static_cast<uint64_t>(values[id]) - lo <= width;
      }
      scanned = true;
    } else {
      for (size_t j = 0; j < kept; ++j) {
        const RowId id = sel[j];
        sel[n] = id;
        n += static_cast<uint64_t>(values[id]) - lo <= width;
      }
    }
    kept = n;
  }
  if (!scanned) {
    for (size_t j = 0; j < count; ++j) sel[j] = candidate(j);
  }
  sel.resize(kept);
  return sel;
}

}  // namespace

std::vector<RowId> Select(const Table& table, const Predicate& pred) {
  return SelectFrom(table, pred, table.num_rows(),
                    [](size_t j) { return static_cast<RowId>(j); }, -1);
}

std::vector<RowId> Select(const Table& table, const Predicate& pred,
                          std::span<const RowId> candidates, int skip) {
  return SelectFrom(table, pred, candidates.size(),
                    [candidates](size_t j) { return candidates[j]; }, skip);
}

double EstimateConditionSelectivity(const Table& table,
                                    const Condition& cond) {
  MSCM_CHECK(table.has_stats());
  const KeyRange range = cond.Range();
  if (range.empty()) return 0.0;
  const ColumnStats& s =
      table.column_stats(static_cast<size_t>(cond.column));
  const double span = static_cast<double>(s.max - s.min) + 1.0;
  if (span <= 1.0) return 1.0;
  if (cond.op == CompareOp::kEq) {
    if (s.distinct <= 0) return 0.0;
    return 1.0 / static_cast<double>(s.distinct);
  }
  const double clamped_lo =
      std::max(static_cast<double>(range.lo), static_cast<double>(s.min));
  const double clamped_hi =
      std::min(static_cast<double>(range.hi), static_cast<double>(s.max));
  if (clamped_hi < clamped_lo) return 0.0;
  double sel = (clamped_hi - clamped_lo + 1.0) / span;
  return std::clamp(sel, 0.0, 1.0);
}

double EstimatePredicateSelectivity(const Table& table,
                                    const Predicate& pred) {
  double sel = 1.0;
  for (const Condition& c : pred.conditions()) {
    sel *= EstimateConditionSelectivity(table, c);
  }
  return sel;
}

}  // namespace mscm::engine
