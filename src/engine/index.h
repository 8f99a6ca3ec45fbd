// Secondary index structures.
//
// An index is a sorted (key, row-id) directory over one column. A *clustered*
// index additionally promises the table's rows are physically sorted by the
// key, so a range scan touches contiguous pages; a *non-clustered* index
// yields one random page access per matching row (modulo buffering, which the
// cost simulator models). Index height accounting feeds the initialization
// cost term of the simulated DBMS.

#ifndef MSCM_ENGINE_INDEX_H_
#define MSCM_ENGINE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/table.h"

namespace mscm::engine {

class Index {
 public:
  // Builds an index over `table.column(col)`. If `clustered`, the caller must
  // have physically sorted the table by `col` beforehand (Database enforces
  // this).
  Index(const Table& table, size_t col, bool clustered);

  size_t column() const { return column_; }
  bool clustered() const { return clustered_; }

  // Row ids whose key falls in [lo, hi], in key order (empty when lo > hi).
  // The view lives as long as the index.
  std::span<const RowId> Lookup(int64_t lo, int64_t hi) const;

  // Number of entries with key in [lo, hi] without materializing them.
  size_t CountRange(int64_t lo, int64_t hi) const {
    return Lookup(lo, hi).size();
  }

  // Approximate B+-tree height for the directory (fan-out 256); contributes
  // to per-query initialization work.
  int TreeHeight() const;

  size_t num_entries() const { return keys_.size(); }

 private:
  size_t column_;
  bool clustered_;
  // Entries sorted by key, then row id: entry i is (keys_[i], row_ids_[i]).
  std::vector<int64_t> keys_;
  std::vector<RowId> row_ids_;
};

}  // namespace mscm::engine

#endif  // MSCM_ENGINE_INDEX_H_
