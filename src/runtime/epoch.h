// Epoch-based reclamation for the estimate hot path: readers publish an
// epoch into a per-thread slot and then dereference raw pointers; writers
// swap the pointer, bump the global epoch, and retire the old object until
// every in-flight reader has moved past it. An estimate therefore pins the
// catalog / tracker-map / stale-set snapshots and each site tracker's
// published probe reading with two plain seq_cst *stores* to its own slot —
// zero shared atomic RMWs — where the shared_ptr path paid two refcount
// RMWs per snapshot per request, and the tracker mutex two more per site.
//
// Protocol (all seq_cst, deliberately: the reader-publish / writer-scan
// pair is a Dekker-style flag handshake, and seq_cst keeps it both correct
// and visible to ThreadSanitizer without annotations):
//
//   reader (EpochGuard):   e = global_epoch; slot[i] = e; ... ptr.load() ...
//                          slot[i] = 0 on release (0 = idle)
//   writer (Publish):      ptr.store(next); stamp = ++global_epoch;
//                          retire(old, stamp)
//   reclaim:               free a retired record iff every non-idle slot
//                          epoch >= its stamp
//
// Why that is safe: a reader pinned with epoch e < stamp may have loaded
// the pointer before the writer's swap, so it blocks the record. A reader
// pinned with e >= stamp read the global epoch *after* the writer's
// increment (seq_cst makes the increment and the pointer store globally
// ordered), so its pointer loads observe the new value. Fresh pins always
// read the current global epoch, which is >= every stamp already retired —
// new readers can never resurrect an old record.
//
// Threads without a registry slot (beyond ThreadRegistry::kMaxSlots) fall
// back to holding a shared_mutex in shared mode for the guard's lifetime;
// Reclaim try_locks it exclusively (blocking only at domain drain), so the
// overflow path is correct but pays counted RMWs.
//
// Retired objects are kept alive by type-erased shared_ptr keepalives, so
// the domain composes with every snapshot the runtime already publishes as
// shared_ptr (catalog, tracker map, stale-key set, probe reading): cold
// readers copy the owning reference under the slot's mutex
// (EpochPublished::load()), hot readers use the raw epoch read, and the
// object dies only when both the keepalive chain and the grace period
// agree.
//
// A keepalive's destructor may itself destroy an EpochPublished — a retired
// tracker map can hold the last reference to a site tracker, whose reading
// is one — and that destructor drains the domain again. Reclaim therefore
// frees records outside every domain lock, and the nested drain waits only
// for readers: no code path holds an EpochGuard while it drops the last
// reference to a publisher, so the drain never waits on its own thread.

#ifndef MSCM_RUNTIME_EPOCH_H_
#define MSCM_RUNTIME_EPOCH_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "runtime/rmw_probe.h"
#include "runtime/thread_registry.h"

namespace mscm::runtime {

class EpochGuard;

class EpochDomain {
 public:
  // The process-wide domain every EpochPublished slot and EpochGuard uses.
  // Leaked at shutdown (readers in late-exiting threads must never observe
  // a destroyed domain); retired records themselves are drained by each
  // EpochPublished destructor, so nothing user-visible leaks.
  static EpochDomain& Global();

  EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // Hands `keepalive` to the domain, stamped with a fresh epoch; it is
  // destroyed once every reader pinned before the stamp has released.
  // Opportunistically reclaims.
  void Retire(std::shared_ptr<const void> keepalive);

  // Frees every retired record whose grace period has passed. With
  // `wait_for_readers`, blocks until every reader pinned before the records
  // already retired at entry has released — slotted readers are waited out
  // by rescanning, overflow (slotless) readers by a blocking exclusive
  // acquisition — instead of skipping reclamation. Used when draining a
  // domain whose objects must not outlive the caller (EpochPublished
  // destructor); records retired concurrently after entry are not waited
  // for.
  void Reclaim(bool wait_for_readers = false);

  // Retired records not yet freed (diagnostics / tests).
  size_t RetiredCount() const;

 private:
  friend class EpochGuard;

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{0};  // 0 = idle
  };

  struct Retired {
    uint64_t stamp = 0;
    std::shared_ptr<const void> keepalive;
  };

  std::atomic<uint64_t> global_epoch_{1};
  ReaderSlot slots_[ThreadRegistry::kMaxSlots];
  // Overflow readers (no registry slot) hold this shared for the guard's
  // lifetime; Reclaim acquires it exclusively to rule them out.
  mutable std::shared_mutex overflow_readers_;
  mutable std::mutex retired_mutex_;
  std::vector<Retired> retired_;
};

// RAII reader pin. Re-entrant per thread: nested guards piggyback on the
// outermost pin. Pinning is two seq_cst stores to the thread's own slot —
// no shared RMW (overflow threads without a slot pay a counted
// shared_mutex acquisition instead).
class EpochGuard {
 public:
  EpochGuard();
  ~EpochGuard();

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  int slot_;
  bool outermost_;
};

// A published pointer with two read paths: a raw epoch-protected load for
// the hot path (zero shared RMWs under an EpochGuard) and a shared_ptr
// copy for cold callers that need to hold the snapshot past any guard.
// Publish() is writer-serialized by the caller (every publisher in this
// codebase already holds a writer/control mutex).
template <typename T>
class EpochPublished {
 public:
  EpochPublished() : live_(nullptr) {}

  explicit EpochPublished(std::shared_ptr<const T> initial)
      : live_(initial.get()), keepalive_(std::move(initial)) {}

  EpochPublished(const EpochPublished&) = delete;
  EpochPublished& operator=(const EpochPublished&) = delete;

  ~EpochPublished() {
    // Unpublish and drain: after this, no reader of *this* slot can be
    // in-flight (callers destroy readers first), but the domain may still
    // hold our previous values — retire the final one and wait out the
    // grace period (including readers pinned on *other* published slots,
    // whose pins block the whole domain) so keepalives never outlive the
    // slot's owner.
    live_.store(nullptr, std::memory_order_seq_cst);
    if (keepalive_) {
      EpochDomain::Global().Retire(std::move(keepalive_));
    }
    EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
  }

  // Hot read: raw pointer, valid while `guard` is alive. Null only if
  // nothing was ever published.
  const T* Read(const EpochGuard& guard) const {
    (void)guard;
    return live_.load(std::memory_order_seq_cst);
  }

  // Cold read: owning snapshot, valid past any guard (a mutex and a
  // refcount RMW).
  std::shared_ptr<const T> load() const {
    RmwProbe::Count(2);
    std::lock_guard<std::mutex> lock(keepalive_mutex_);
    return keepalive_;
  }

  // Publishes `next` and retires the previous value into the epoch domain.
  // Caller serializes writers.
  void Publish(std::shared_ptr<const T> next) {
    RmwProbe::Count(2);
    const T* raw = next.get();
    {
      std::lock_guard<std::mutex> lock(keepalive_mutex_);
      keepalive_.swap(next);
    }
    live_.store(raw, std::memory_order_seq_cst);
    // `next` now holds the previous value; the domain frees it once the
    // readers pinned before this publish have released.
    if (next) {
      EpochDomain::Global().Retire(
          std::shared_ptr<const void>(std::move(next)));
    }
  }

 private:
  std::atomic<const T*> live_;  // hot path, epoch-protected
  // The currently published value: the cold path's owning reference, and
  // the pin that keeps `live_` valid between Publish calls. The mutex
  // orders load() copies against Publish's swap; the destructor needs no
  // lock (no reader or publisher may outlive the slot).
  mutable std::mutex keepalive_mutex_;
  std::shared_ptr<const T> keepalive_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_EPOCH_H_
