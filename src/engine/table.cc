#include "engine/table.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace mscm::engine {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(schema_.num_columns()) {}

void Table::AddRow(const Row& row) {
  MSCM_DCHECK(row.size() == columns_.size());
  MSCM_CHECK(num_rows_ < std::numeric_limits<RowId>::max());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(row[c]);
  ++num_rows_;
}

void Table::Reserve(size_t n) {
  for (std::vector<int64_t>& column : columns_) column.reserve(n);
}

size_t Table::RowsPerPage() const {
  const int tuple_bytes = schema_.TupleBytes();
  MSCM_CHECK(tuple_bytes > 0);
  const size_t per_page = static_cast<size_t>(kPageBytes / tuple_bytes);
  return per_page == 0 ? 1 : per_page;
}

size_t Table::NumPages() const {
  if (num_rows_ == 0) return 0;
  const size_t per_page = RowsPerPage();
  return (num_rows_ + per_page - 1) / per_page;
}

void Table::RecomputeStats() {
  stats_.assign(columns_.size(), ColumnStats{});
  if (num_rows_ == 0) return;
  std::vector<int64_t> sorted;
  for (size_t c = 0; c < columns_.size(); ++c) {
    sorted = columns_[c];
    std::sort(sorted.begin(), sorted.end());
    ColumnStats& s = stats_[c];
    s.min = sorted.front();
    s.max = sorted.back();
    s.distinct = std::unique(sorted.begin(), sorted.end()) - sorted.begin();
  }
}

void Table::SortByColumn(size_t col) {
  MSCM_CHECK(col < columns_.size());
  // Sorting (key, row id) pairs orders equal keys by their old position,
  // which is the order a stable sort of the rows gives.
  std::vector<std::pair<int64_t, RowId>> order(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    order[i] = {columns_[col][i], static_cast<RowId>(i)};
  }
  std::sort(order.begin(), order.end());
  std::vector<int64_t> permuted(num_rows_);
  for (std::vector<int64_t>& column : columns_) {
    for (size_t i = 0; i < num_rows_; ++i) permuted[i] = column[order[i].second];
    column.swap(permuted);
  }
  sorted_by_ = static_cast<int>(col);
}

}  // namespace mscm::engine
