#include "engine/index.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mscm::engine {

Index::Index(const Table& table, size_t col, bool clustered)
    : column_(col), clustered_(clustered) {
  MSCM_CHECK(col < table.schema().num_columns());
  if (clustered) {
    MSCM_CHECK_MSG(table.sorted_by() == static_cast<int>(col),
                   "clustered index requires physically sorted table");
  }
  const std::vector<int64_t>& values = table.column(col);
  std::vector<std::pair<int64_t, RowId>> entries(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    entries[i] = {values[i], static_cast<RowId>(i)};
  }
  std::sort(entries.begin(), entries.end());
  keys_.reserve(entries.size());
  row_ids_.reserve(entries.size());
  for (const auto& [key, id] : entries) {
    keys_.push_back(key);
    row_ids_.push_back(id);
  }
}

std::span<const RowId> Index::Lookup(int64_t lo, int64_t hi) const {
  if (lo > hi) return {};
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  const auto last = std::upper_bound(first, keys_.end(), hi);
  return std::span<const RowId>(row_ids_).subspan(
      static_cast<size_t>(first - keys_.begin()),
      static_cast<size_t>(last - first));
}

int Index::TreeHeight() const {
  if (keys_.empty()) return 1;
  constexpr double kFanout = 256.0;
  const double h =
      std::ceil(std::log(static_cast<double>(keys_.size())) /
                std::log(kFanout));
  return std::max(1, static_cast<int>(h));
}

}  // namespace mscm::engine
