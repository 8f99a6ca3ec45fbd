// Concurrency wrapper around the MDBS global catalog (copy-on-write with
// atomically swapped immutable snapshots).
//
// core::GlobalCatalog::Find() hands out raw pointers that a concurrent
// Register() for the same key would invalidate. Here, writers never mutate a
// published catalog: Register() copies the current catalog, applies the
// change, and atomically publishes the copy as a new
// std::shared_ptr<const GlobalCatalog>. Readers grab the current snapshot
// with one atomic shared_ptr load — no lock, and every Find() /
// FindCompiled() pointer stays valid for as long as the reader holds the
// snapshot, no matter how many registrations happen meanwhile. Because each
// registered CostModel carries its core::CompiledEquations serving table,
// publishing a snapshot *is* publishing the compiled form: the runtime's
// estimate paths call FindCompiled() on a pinned snapshot and evaluate the
// immutable table directly. Writers serialize on a mutex (publication is
// rare: once per derived, rebuilt or adapted model), and every edit — a
// registration, a site's retirement, an adaptation's row swap — is one
// snapshot publication. Nothing downstream keys on which snapshot priced an
// estimate: a reader sees whatever is published when it pins.

#ifndef MSCM_RUNTIME_SNAPSHOT_CATALOG_H_
#define MSCM_RUNTIME_SNAPSHOT_CATALOG_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/catalog.h"
#include "runtime/epoch.h"

namespace mscm::runtime {

class SnapshotCatalog {
 public:
  using Snapshot = std::shared_ptr<const core::GlobalCatalog>;

  SnapshotCatalog() : current_(std::make_shared<const core::GlobalCatalog>()) {}

  SnapshotCatalog(const SnapshotCatalog&) = delete;
  SnapshotCatalog& operator=(const SnapshotCatalog&) = delete;

  // The current immutable snapshot. Never null; cheap (one atomic refcount
  // bump); safe from any thread. Cold path — hot readers use Read().
  Snapshot snapshot() const { return current_.load(); }

  // Epoch-protected raw read for the estimate hot path: valid while `guard`
  // is alive, zero shared atomic RMWs. Never null (a catalog is published
  // at construction).
  const core::GlobalCatalog* Read(const EpochGuard& guard) const {
    return current_.Read(guard);
  }

  // Copy-on-write registration of (site, model.class_id()) → model.
  void Register(const std::string& site, core::CostModel model);

  // General copy-on-write edit for multi-entry updates (e.g. dropping a
  // site, bulk-loading a persisted catalog): `mutate` receives a private
  // copy of the current catalog, which is then published as one snapshot.
  void Update(const std::function<void(core::GlobalCatalog&)>& mutate);

  // Number of snapshots published (0 for a freshly constructed catalog).
  uint64_t version() const { return version_.load(std::memory_order_relaxed); }

  size_t size() const { return snapshot()->size(); }

 private:
  std::mutex writer_mutex_;
  // Old snapshots are retired into the global epoch domain when replaced:
  // cold holders (Snapshot shared_ptrs) and in-flight epoch readers both
  // keep them alive until released.
  EpochPublished<core::GlobalCatalog> current_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_SNAPSHOT_CATALOG_H_
