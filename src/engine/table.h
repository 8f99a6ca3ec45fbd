// In-memory column-store heap table with page-layout accounting.
//
// Each column is one contiguous vector of values, so a scan reads only the
// columns its predicate names, in order. The page accounting is that of a
// row-major heap file: the engine never touches a real disk; instead every
// table knows how many fixed-size pages its rows would occupy, and the
// executor counts sequential and random page accesses. The cost simulator
// (src/sim) later converts those counts into elapsed time under the current
// contention level.

#ifndef MSCM_ENGINE_TABLE_H_
#define MSCM_ENGINE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/schema.h"

namespace mscm::engine {

// Disk page size assumed by the layout accounting.
inline constexpr int kPageBytes = 8192;

// Position of a row in its table; tables hold fewer than 2^32 rows.
using RowId = uint32_t;

struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
  // Estimated number of distinct values (exact for generated tables).
  int64_t distinct = 0;
};

class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // Appends one row, given as one value per schema column.
  void AddRow(const Row& row);
  void Reserve(size_t n);

  size_t num_rows() const { return num_rows_; }
  int64_t value(size_t row, size_t col) const {
    MSCM_DCHECK(row < num_rows_);
    return column(col)[row];
  }
  // Every value of column `col`, indexed by row id.
  const std::vector<int64_t>& column(size_t col) const {
    MSCM_DCHECK(col < columns_.size());
    return columns_[col];
  }

  // Rows that fit one page given the declared tuple width (at least 1).
  size_t RowsPerPage() const;

  // Pages occupied by the table (at least 1 for a non-empty table).
  size_t NumPages() const;

  // Page number holding row `i` under the sequential heap layout.
  size_t PageOfRow(size_t i) const { return i / RowsPerPage(); }

  // Recomputes per-column min/max/distinct statistics from the data.
  void RecomputeStats();

  const ColumnStats& column_stats(size_t col) const {
    MSCM_DCHECK(col < stats_.size());
    return stats_[col];
  }
  bool has_stats() const { return !stats_.empty(); }

  // Physically sorts the rows by `col`, stably (used to build a clustered
  // index).
  void SortByColumn(size_t col);

  // Column the rows are physically sorted by, or -1.
  int sorted_by() const { return sorted_by_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::vector<int64_t>> columns_;
  size_t num_rows_ = 0;
  std::vector<ColumnStats> stats_;
  int sorted_by_ = -1;
};

}  // namespace mscm::engine

#endif  // MSCM_ENGINE_TABLE_H_
