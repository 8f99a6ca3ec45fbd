// Relational schema for the synthetic local databases.
//
// Tables hold 64-bit integer columns (the paper's experiment tables contain
// "tuples of random numbers"). Each column declares a storage byte width so
// tuple lengths vary across tables — tuple length is one of the secondary
// explanatory variables of the cost models (paper Table 3).

#ifndef MSCM_ENGINE_SCHEMA_H_
#define MSCM_ENGINE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace mscm::engine {

struct Column {
  std::string name;
  // Declared storage width in bytes (>= 8 for the int payload; wider values
  // emulate padded char/decimal columns so tuple lengths differ per table).
  int byte_width = 8;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const {
    MSCM_DCHECK(i < columns_.size());
    return columns_[i];
  }
  const std::vector<Column>& columns() const { return columns_; }

  // Index of the column with the given name; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  // Total declared tuple width in bytes.
  int TupleBytes() const { return tuple_bytes_; }

 private:
  std::vector<Column> columns_;
  int tuple_bytes_ = 0;  // summed once: a schema has no mutator
};

// A tuple is one value per schema column.
using Row = std::vector<int64_t>;

}  // namespace mscm::engine

#endif  // MSCM_ENGINE_SCHEMA_H_
