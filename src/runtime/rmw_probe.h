// Thread-local tally of *shared* atomic read-modify-write operations: the
// cross-thread cache-line traffic that kills multi-core scale-out. Every
// runtime primitive that still performs an RMW on a line another thread may
// touch (shared_ptr refcount bumps, overflow-shard fetch_adds, mutex
// fallbacks) calls RmwProbe::Count at that site; per-thread single-writer
// paths do not. bench/micro_runtime samples Current() around its timed
// loops to report `shared_rmw_per_request` — the acceptance gate is zero on
// the single-estimate, hot-loop and degraded rows.
//
// This is bookkeeping, not detection: it counts the sites we know about.
// Its value is that the hot path is audited — a new RMW sneaking into the
// estimate path shows up as a nonzero bench counter.

#ifndef MSCM_RUNTIME_RMW_PROBE_H_
#define MSCM_RUNTIME_RMW_PROBE_H_

#include <cstdint>

namespace mscm::runtime {

class RmwProbe {
 public:
  static void Count(uint64_t n = 1) { tally_ += n; }

  // Cumulative shared-RMW count for the calling thread.
  static uint64_t Current() { return tally_; }

 private:
  static inline thread_local uint64_t tally_ = 0;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_RMW_PROBE_H_
