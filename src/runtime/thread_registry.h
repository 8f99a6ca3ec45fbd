// Process-wide registry of small dense thread slots, the backbone of every
// per-thread hot-path structure in src/runtime (RuntimeCounters stripes,
// LatencyHistogram stripes, EpochDomain reader slots).
//
// Each live thread owns at most one slot in [0, kMaxSlots). Slots are unique
// among live threads, stable for the thread's lifetime, and returned to a
// free pool when the thread exits — so a structure indexed by slot is
// single-writer while the owning thread lives, and a successor thread that
// reuses the slot is ordered after the previous owner by the registry mutex
// (release on exit, acquire on assignment). Cumulative structures (counters,
// histograms) therefore never reset a slot on release: the successor simply
// keeps adding and aggregation stays conserved across thread churn.
//
// When more than kMaxSlots threads are alive at once, the excess threads get
// slot -1 and every per-thread structure falls back to a shared overflow
// path (real atomic RMWs, counted by RmwProbe).

#ifndef MSCM_RUNTIME_THREAD_REGISTRY_H_
#define MSCM_RUNTIME_THREAD_REGISTRY_H_

namespace mscm::runtime {

class ThreadRegistry {
 public:
  static constexpr int kMaxSlots = 256;

  // The calling thread's slot: assigned on first call, unique among live
  // threads, released at thread exit. -1 when more than kMaxSlots threads
  // are alive (callers must fall back to their shared overflow path).
  static int CurrentSlot();

  // Slots currently assigned (diagnostics / tests).
  static int LiveSlots();
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_THREAD_REGISTRY_H_
