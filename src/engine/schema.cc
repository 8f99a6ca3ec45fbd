#include "engine/schema.h"

#include <utility>

namespace mscm::engine {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (const Column& c : columns_) tuple_bytes_ += c.byte_width;
}

int Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace mscm::engine
