#include "runtime/snapshot_catalog.h"

#include <mutex>
#include <utility>

namespace mscm::runtime {

void SnapshotCatalog::Register(const std::string& site, core::CostModel model) {
  Update([&site, &model](core::GlobalCatalog& catalog) {
    catalog.Register(site, std::move(model));
  });
}

void SnapshotCatalog::Update(
    const std::function<void(core::GlobalCatalog&)>& mutate) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Copy the published catalog, edit the copy, publish. Readers holding the
  // old snapshot keep it alive through their shared_ptr.
  auto next = std::make_shared<core::GlobalCatalog>(*current_.load());
  mutate(*next);
  current_.Publish(Snapshot(std::move(next)));
  version_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mscm::runtime
