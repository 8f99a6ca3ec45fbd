// Compact, wire-stable serialization of RuntimeStatsSnapshot for the
// StatsResponse frame.
//
// The encoding is self-describing key/value, not positional: each entry is
// (key string, type tag, 8-byte value). New counters can be appended server
// side without breaking old clients (unknown keys are simply extra entries),
// and old servers without breaking new clients (missing keys decode to
// zero). The key names come from runtime::StatsCounterFields() — the
// MSCM_RUNTIME_COUNTERS table, one row per counter, in row order — then
// StatsGaugeFields() and StatsHistogramFields(); the append-only contract
// lives there, next to the struct. The server appends its MSCM_NET_COUNTERS
// rows as "net.<name>" extra counters.
//
// Histograms flatten to scalar sub-keys: "<name>.count" (u64) and
// "<name>.mean_s" / ".p50_s" / ".p90_s" / ".p99_s" / ".max_s" (f64).

#ifndef MSCM_NET_STATS_CODEC_H_
#define MSCM_NET_STATS_CODEC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/runtime_stats.h"

namespace mscm::net {

// A decoded stats payload: every entry by key, typed. Unknown keys are
// preserved so `mscm_loadgen --stats` prints whatever the server sends.
struct WireStats {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;

  std::string ToString() const;
};

// `extra_counters` lets a serving layer append its own keys (the server
// adds "net.*" wire counters); they decode like any other entry.
std::vector<uint8_t> EncodeStats(
    const runtime::RuntimeStatsSnapshot& snap,
    const std::map<std::string, uint64_t>& extra_counters = {});

// nullopt on any structural violation (truncation, oversized key, unknown
// type tag, entry count past kMaxStatsEntries, trailing bytes).
std::optional<WireStats> DecodeStatsPayload(
    const std::vector<uint8_t>& payload);

// Rebuilds a snapshot from decoded entries (missing keys stay zero).
// EncodeStats → DecodeStatsPayload → ToSnapshot round-trips every scalar
// field bit-for-bit.
runtime::RuntimeStatsSnapshot ToSnapshot(const WireStats& stats);

}  // namespace mscm::net

#endif  // MSCM_NET_STATS_CODEC_H_
