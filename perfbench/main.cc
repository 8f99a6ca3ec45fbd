// perfbench — the repository benchmark's binary (run.py builds and
// invokes it).
//
//   perfbench --workload serve_point|serve_batch|serve_feedback|derive
//             --seed N --seconds S --trace 0|1 --served PATH/mscm_served
//             [--trace-dir DIR] [--describe]
//
// Prints human-readable notes, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer the workload does not exercise reads 0). Exits 0
// only when every output check passed; 2 on bad arguments (no result).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

std::string DescribeServing(const Options& options);

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"very_good_frac", "frac"},
    {"good_frac", "frac"},
    {"peak_rss_mb", "MiB"},
    {"cpu_us_per_op", "us"},
    {"ok_frac", "frac"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.encode_ns", "ns"},
    {"net.decode_response_ns", "ns"},
    {"net.assemble_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.encode_response_ns", "ns"},
    {"net.roundtrip_p50_us", "us"},
    {"net.roundtrip_p99_us", "us"},
    {"net.transport_us", "us"},
    {"net.bytes_per_op", "B"},
    {"net.wire_efficiency_x", "x"},
    {"runtime.estimate_ns", "ns"},
    {"runtime.cache_hit_frac", "frac"},
    {"runtime.batch_ns_per_item", "ns"},
    {"core.evaluate_ns", "ns"},
    {"runtime.server_estimate_p50_us", "us"},
    {"runtime.record_ns", "ns"},
    {"runtime.drain_us_per_report", "us"},
    {"stats.rls_update_ns", "ns"},
    {"runtime.adaptations_per_s", "1/s"},
    {"runtime.publish_lag_ms", "ms"},
    {"runtime.cache_invalidations_per_kop", "1/kop"},
    {"runtime.feedback_accepted_frac", "frac"},
    {"runtime.rederivations", "count"},
    {"core.sample_ms_per_model", "ms"},
    {"mdbs.draw_us", "us"},
    {"mdbs.probe_us", "us"},
    {"core.build_ms_per_model", "ms"},
    {"stats.fit_us", "us"},
    {"core.validate_ms_per_model", "ms"},
    {"core.observations_per_model", "count"},
    {"core.states_per_model", "count"},
    {"trace.overhead_frac", "frac"},
};

bool ParseArgs(int argc, char** argv, Options* o, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      o->describe = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w.has_value()) {
        *error = "unknown workload " + value;
        return false;
      }
      o->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      o->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o->seconds = std::stod(value);
    } else if (flag == "--trace") {
      o->trace = value != "0";
    } else if (flag == "--served") {
      o->served_path = value;
    } else if (flag == "--trace-dir") {
      o->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  if (!(o->seconds > 0.0)) *error = "--seconds must be positive";
  if (o->workload != Workload::kDerive && o->served_path.empty() &&
      !o->describe) {
    *error = "--served is required for serving workloads";
  }
  return error->empty();
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

enum class MetricSet { kEndToEnd, kPerLayer, kAsMeasured };

// Prints the notes, then the result object as the last line.
void PrintResult(Result& result, MetricSet set) {
  std::map<std::string, double> measured;
  for (const Metric& m : result.metrics) measured[m.name] = m.value;

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = measured.find(spec.name);
    double value = it == measured.end() ? 0.0 : it->second;
    if (it == measured.end() && required) {
      result.FailCheck(std::string("metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      if (required) {
        result.FailCheck(std::string("metric ") + spec.name + " is not finite");
      }
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  switch (set) {
    case MetricSet::kEndToEnd:
      for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
      break;
    case MetricSet::kPerLayer:
      for (const MetricSpec& spec : kPerLayer) emit(spec, false);
      break;
    case MetricSet::kAsMeasured:
      for (const Metric& m : result.metrics) {
        emit(MetricSpec{m.name.c_str(), m.unit.c_str()}, true);
      }
      break;
  }
  if (result.attempted == 0) result.FailCheck("no operation was attempted");

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (options.trace && !options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
  }
  if (options.describe && options.workload != Workload::kDerive) {
    std::printf("%s\n", DescribeServing(options).c_str());
    return 0;
  }
  Result result = options.workload == Workload::kDerive ? RunDerive(options)
                                                        : RunServing(options);
  PrintResult(result, options.describe ? MetricSet::kAsMeasured
                      : options.trace  ? MetricSet::kPerLayer
                                       : MetricSet::kEndToEnd);
  return result.correct ? 0 : 1;
}
