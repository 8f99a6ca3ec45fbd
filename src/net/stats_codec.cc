#include "net/stats_codec.h"

#include <iterator>

#include "common/str_util.h"
#include "net/wire_format.h"

namespace mscm::net {

namespace {

constexpr uint8_t kTagU64 = 0;
constexpr uint8_t kTagF64 = 1;

struct HistSubField {
  const char* suffix;
  double runtime::LatencyHistogram::Snapshot::*field;
};

const HistSubField kHistSubFields[] = {
    {".mean_s", &runtime::LatencyHistogram::Snapshot::mean_seconds},
    {".p50_s", &runtime::LatencyHistogram::Snapshot::p50_seconds},
    {".p90_s", &runtime::LatencyHistogram::Snapshot::p90_seconds},
    {".p99_s", &runtime::LatencyHistogram::Snapshot::p99_seconds},
    {".max_s", &runtime::LatencyHistogram::Snapshot::max_bucket_seconds},
};

void PutCounter(WireWriter& w, const std::string& key, uint64_t value) {
  w.PutString(key);
  w.PutU8(kTagU64);
  w.PutU64(value);
}

void PutGauge(WireWriter& w, const std::string& key, double value) {
  w.PutString(key);
  w.PutU8(kTagF64);
  w.PutF64(value);
}

}  // namespace

std::string WireStats::ToString() const {
  std::string out;
  for (const auto& [key, value] : counters) {
    out += Format("%s=%llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
  }
  for (const auto& [key, value] : gauges) {
    out += Format("%s=%g\n", key.c_str(), value);
  }
  return out;
}

std::vector<uint8_t> EncodeStats(
    const runtime::RuntimeStatsSnapshot& snap,
    const std::map<std::string, uint64_t>& extra_counters) {
  WireWriter w;
  // A histogram is its count plus one scalar sub-key per kHistSubFields.
  const size_t entries =
      runtime::StatsCounterFields().size() +
      runtime::StatsGaugeFields().size() +
      runtime::StatsHistogramFields().size() * (1 + std::size(kHistSubFields)) +
      extra_counters.size();
  w.PutU32(static_cast<uint32_t>(entries));
  for (const auto& field : runtime::StatsCounterFields()) {
    PutCounter(w, field.name, snap.*(field.field));
  }
  for (const auto& field : runtime::StatsGaugeFields()) {
    // Signed gauges ride the f64 slot: every gauge in the snapshot is far
    // inside the 53-bit exact-integer range of a double.
    PutGauge(w, field.name, static_cast<double>(snap.*(field.field)));
  }
  for (const auto& hist : runtime::StatsHistogramFields()) {
    const auto& h = snap.*(hist.field);
    PutCounter(w, std::string(hist.name) + ".count", h.count);
    for (const auto& sub : kHistSubFields) {
      PutGauge(w, std::string(hist.name) + sub.suffix, h.*(sub.field));
    }
  }
  for (const auto& [key, value] : extra_counters) PutCounter(w, key, value);
  return w.Take();
}

std::optional<WireStats> DecodeStatsPayload(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  const uint32_t count = r.TakeU32();
  if (!r.ok() || count > kMaxStatsEntries) return std::nullopt;
  WireStats stats;
  for (uint32_t i = 0; i < count; ++i) {
    const std::string key = r.TakeString(kMaxStatsKeyBytes);
    const uint8_t tag = r.TakeU8();
    if (!r.ok() || key.empty()) return std::nullopt;
    if (tag == kTagU64) {
      stats.counters[key] = r.TakeU64();
    } else if (tag == kTagF64) {
      stats.gauges[key] = r.TakeF64();
    } else {
      return std::nullopt;
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.AtEnd()) return std::nullopt;
  return stats;
}

runtime::RuntimeStatsSnapshot ToSnapshot(const WireStats& stats) {
  runtime::RuntimeStatsSnapshot snap;
  auto counter = [&stats](const std::string& key) -> uint64_t {
    auto it = stats.counters.find(key);
    return it == stats.counters.end() ? 0 : it->second;
  };
  auto gauge = [&stats](const std::string& key) -> double {
    auto it = stats.gauges.find(key);
    return it == stats.gauges.end() ? 0.0 : it->second;
  };
  for (const auto& field : runtime::StatsCounterFields()) {
    snap.*(field.field) = counter(field.name);
  }
  for (const auto& field : runtime::StatsGaugeFields()) {
    snap.*(field.field) = static_cast<int64_t>(gauge(field.name));
  }
  for (const auto& hist : runtime::StatsHistogramFields()) {
    auto& h = snap.*(hist.field);
    h.count = counter(std::string(hist.name) + ".count");
    for (const auto& sub : kHistSubFields) {
      h.*(sub.field) = gauge(std::string(hist.name) + sub.suffix);
    }
  }
  return snap;
}

}  // namespace mscm::net
