// Shared types of the benchmark binary: run options, the result a workload
// reports, and small measurement helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct Options {
  Workload workload = Workload::kServePoint;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // --describe: print the generated inputs (and, for derive, the outcome
  // of one round) instead of measuring; the seed test compares these.
  bool describe = false;
  std::string served_path;  // the mscm_served binary
  std::string trace_dir;    // where the traced mode writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the result object.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Records a failed output check on an operation already counted in
  // attempted and failed: the run is not correct.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  // Records a failed check that is no counted operation (a server
  // invariant, a clean exit): it counts as one more failed operation.
  void FailCheck(const std::string& why) {
    ++attempted;
    ++failed;
    Fail(why);
  }
};

Result RunServing(const Options& options);
Result RunDerive(const Options& options);

// Median of a small sample (copies it).
double Median(std::vector<double> values);

// Peak resident set of a process in MiB (VmHWM), or of this process when
// pid is 0; 0 when unreadable.
double PeakRssMb(int pid);

// Seconds between a start and an end reading of steady_clock, in ns.
inline double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
