#include "engine/table_generator.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace mscm::engine {
namespace {

// Declared byte widths cycled across tables so tuple lengths differ (tuple
// length is a secondary explanatory variable in the paper's Table 3).
constexpr int kWidthChoices[] = {8, 12, 16, 20, 24, 32};

}  // namespace

size_t PaperCardinality(int i) {
  // 12 cardinalities spanning 3,000 … 250,000 as in the paper.
  static const size_t kCards[12] = {3000,  6000,   10000,  15000,
                                    25000, 40000,  50000,  75000,
                                    100000, 150000, 200000, 250000};
  MSCM_CHECK(i >= 1);
  return kCards[(i - 1) % 12];
}

Database GenerateDatabase(const TableGeneratorConfig& config, Rng& rng) {
  Database db;
  for (int t = 1; t <= config.num_tables; ++t) {
    const size_t rows = std::max<size_t>(
        64, static_cast<size_t>(
                std::llround(static_cast<double>(PaperCardinality(t)) *
                             config.scale)));

    // 5–9 columns, widths varying by table and column.
    const int num_cols = 5 + (t % 5);
    std::vector<Column> columns;
    columns.reserve(static_cast<size_t>(num_cols));
    for (int c = 0; c < num_cols; ++c) {
      columns.push_back(Column{
          Format("a%d", c + 1),
          kWidthChoices[static_cast<size_t>((t + c) % 6)]});
    }

    Table table(Format("R%d", t), Schema(std::move(columns)));
    table.Reserve(rows);

    // Column value ranges chosen so different columns give different
    // selectivities: a1 spans ~2x cardinality (nearly unique), a2 spans the
    // cardinality, a3 a fixed 10k domain, a4 a small 100-value domain, the
    // rest mid-size domains. Join columns (a2) share the same domain shape
    // across tables so equijoins produce non-trivial results.
    std::vector<int64_t> ranges(static_cast<size_t>(num_cols));
    for (int c = 0; c < num_cols; ++c) {
      switch (c) {
        case 0:
          ranges[0] = static_cast<int64_t>(rows) * 2;
          break;
        case 1:
          ranges[1] = static_cast<int64_t>(rows);
          break;
        case 2:
          ranges[2] = 10'000;
          break;
        case 3:
          ranges[3] = 100;
          break;
        default:
          ranges[static_cast<size_t>(c)] = 1'000 * (c + 1);
          break;
      }
    }

    Row row(static_cast<size_t>(num_cols));
    for (size_t r = 0; r < rows; ++r) {
      for (int c = 0; c < num_cols; ++c) {
        row[static_cast<size_t>(c)] =
            rng.UniformInt(0, ranges[static_cast<size_t>(c)] - 1);
      }
      table.AddRow(row);
    }
    db.AddTable(std::move(table));

    const std::string name = Format("R%d", t);
    if (config.clustered_indexes) {
      db.CreateIndex(name, 0, /*clustered=*/true);
    }
    if (config.nonclustered_indexes) {
      db.CreateIndex(name, 1, /*clustered=*/false);
      db.CreateIndex(name, 2, /*clustered=*/false);
    }
  }
  return db;
}

void AddProbingTable(Database& db, Rng& rng) {
  // A small fixed-shape table: the probing workload runs one moderately
  // selective sequential scan plus one selective non-clustered index range
  // over it, so the observed probing cost registers contention on *all*
  // resources a real query touches — CPU, sequential I/O, and random I/O
  // through the buffer pool. Small cost, but large enough to register the
  // contention level (the paper notes queries with extremely small cost
  // make poor probes).
  constexpr size_t kRows = 2000;
  Table table("P0", Schema({{"p1", 8}, {"p2", 8}, {"p3", 16}}));
  table.Reserve(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    table.AddRow(Row{rng.UniformInt(0, 9999), rng.UniformInt(0, 999),
                     rng.UniformInt(0, 99)});
  }
  db.AddTable(std::move(table));
  db.CreateIndex("P0", /*col=*/1, /*clustered=*/false);
}

}  // namespace mscm::engine
