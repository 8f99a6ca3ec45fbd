#include "runtime/estimate_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <utility>

#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

// Slots a key can land in within its shard: enough to ride out a few hash
// collisions, small enough that a miss stays a handful of compares.
constexpr size_t kProbeWindow = 4;

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;  // FNV-1a prime
  return h;
}

uint64_t QuantizeFeature(double f, double quantum) {
  if (quantum > 0.0) {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::llround(f / quantum)));
  }
  return std::bit_cast<uint64_t>(f);
}

// Finalizer (murmur3 fmix64): FNV-1a's closing multiply leaves the low bits
// poorly diffused, and the slot index comes from the low bits — without this,
// near-identical feature vectors cluster into the same slots and thrash.
// Never 0, which marks a free slot.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h == 0 ? 1 : h;
}

uint64_t HashKey(const std::string& site, int class_id,
                 const std::vector<double>& features, double quantum) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = Mix(h, std::hash<std::string>{}(site));
  h = Mix(h, static_cast<uint64_t>(class_id));
  for (double f : features) h = Mix(h, QuantizeFeature(f, quantum));
  return Avalanche(h);
}

}  // namespace

EstimateCache::EstimateCache(const EstimateCacheConfig& config) {
  if (config.capacity_per_thread == 0) return;
  slots_per_thread_ = NextPow2(std::max<size_t>(1, config.capacity_per_thread));
  slot_mask_ = slots_per_thread_ - 1;
  feature_quantum_ = config.feature_quantum;
}

EstimateCache::~EstimateCache() {
  // Collect every pinned tracker before releasing any: dropping a tracker's
  // last reference joins its prober thread, whose state-change callback may
  // call InvalidateSite on this cache — so the version cells (members,
  // destroyed after this body) must still be intact while the joins run.
  std::vector<std::shared_ptr<ContentionTracker>> retired;
  for (auto& slot : shards_) {
    ThreadShard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (Pin& pin : shard->pins) {
      if (pin.tracker != nullptr) retired.push_back(std::move(pin.tracker));
    }
    delete shard;
  }
  retired.clear();
}

EstimateCache::ThreadShard* EstimateCache::LocalShard(bool create) {
  const int slot = ThreadRegistry::CurrentSlot();
  if (slot < 0) return nullptr;  // overflow threads bypass the cache
  ThreadShard* shard = shards_[slot].load(std::memory_order_acquire);
  if (shard == nullptr && create) {
    shard = new ThreadShard();
    shard->tags.resize(slots_per_thread_);
    shard->slots.resize(slots_per_thread_);
    shards_[slot].store(shard, std::memory_order_release);
  }
  return shard;
}

EstimateCache::SiteRecord& EstimateCache::RecordFor(const std::string& site,
                                                    ThreadShard& shard) {
  if (shard.last_record != nullptr && shard.last_record->site == site) {
    return *shard.last_record;
  }
  std::unique_ptr<SiteRecord>& record = shard.records[site];
  if (record == nullptr) {
    record = std::make_unique<SiteRecord>();
    record->site = site;
    RmwProbe::Count();  // cells_mutex_ — first insert for a site per thread
    std::lock_guard<std::mutex> lock(cells_mutex_);
    auto& owned = site_cells_[site];
    if (owned == nullptr) owned = std::make_unique<VersionCell>(0);
    record->cell = owned.get();
  }
  shard.last_record = record.get();
  return *record;
}

const EstimateCache::VersionCell* EstimateCache::StateCellFor(
    SiteRecord& record, int state) {
  const auto index = static_cast<size_t>(state);
  if (index >= record.state_cells.size()) {
    record.state_cells.resize(index + 1, nullptr);
  }
  const VersionCell*& cell = record.state_cells[index];
  if (cell == nullptr) {
    RmwProbe::Count();  // cells_mutex_ — first insert for (site, state)
    std::lock_guard<std::mutex> lock(cells_mutex_);
    auto& owned = site_state_cells_[{record.site, state}];
    if (owned == nullptr) owned = std::make_unique<VersionCell>(0);
    cell = owned.get();
  }
  return cell;
}

EstimateCache::Pin* EstimateCache::PinFor(
    const std::shared_ptr<ContentionTracker>& tracker, SiteRecord& record,
    ThreadShard& shard) {
  if (record.pin != nullptr && record.pin->tracker == tracker) {
    return record.pin;
  }
  Pin* pin = nullptr;
  Pin* empty = nullptr;
  for (Pin& candidate : shard.pins) {
    if (candidate.tracker == tracker) {
      pin = &candidate;
      break;
    }
    if (empty == nullptr && candidate.tracker == nullptr) empty = &candidate;
  }
  if (pin == nullptr) {
    pin = empty != nullptr ? empty : &shard.pins.emplace_back();
    RmwProbe::Count();  // the shard's one reference to this tracker
    pin->tracker = tracker;
  }
  record.pin = pin;
  return pin;
}

std::shared_ptr<ContentionTracker> EstimateCache::Vacate(size_t index,
                                                         ThreadShard& shard) {
  Pin* const pin = shard.tags[index].pin;
  shard.tags[index] = Tag{};
  if (pin == nullptr || --pin->entries > 0) return nullptr;
  RmwProbe::Count();  // the shard's reference drops with the caller's copy
  return std::move(pin->tracker);
}

bool EstimateCache::Lookup(const std::string& site, int class_id,
                           const std::vector<double>& features, uint64_t epoch,
                           EstimateResponse* response) {
  if (!enabled() || features.size() > kMaxKeyFeatures) return false;
  ThreadShard* shard = LocalShard(/*create=*/false);
  if (shard == nullptr) return false;
  const uint64_t hash = HashKey(site, class_id, features, feature_quantum_);
  for (size_t i = 0; i < kProbeWindow; ++i) {
    const size_t index = (hash + i) & slot_mask_;
    const Tag& tag = shard->tags[index];
    if (tag.hash != hash) continue;
    const Slot& slot = shard->slots[index];
    if (slot.class_id != class_id) continue;
    if (slot.num_features != features.size()) continue;
    if (slot.record->site != site) continue;
    bool equal = true;
    for (size_t j = 0; j < features.size(); ++j) {
      if (slot.feature_bits[j] !=
          QuantizeFeature(features[j], feature_quantum_)) {
        equal = false;
        break;
      }
    }
    if (!equal) continue;
    // Key matches — validity: the lazy invalidation cells, the catalog
    // epoch, then the lock-free probe against the tracker. All loads; the
    // only RMWs below are on the retire path (invalidation events, never
    // the steady-state hit).
    const bool cell_dead =
        slot.record->cell->load(std::memory_order_acquire) !=
            slot.site_version ||
        slot.state_cell->load(std::memory_order_acquire) !=
            slot.state_cell_version;
    const ContentionTracker& tracker = *tag.pin->tracker;
    const double cost = tracker.published_probing_cost();
    if (cell_dead || slot.epoch != epoch ||
        tracker.state_version() != slot.state_version ||
        !(cost > slot.state_lo && cost <= slot.state_hi)) {
      if (cell_dead || slot.epoch == epoch) {
        // Dead for good (invalidated, or state moved under the current
        // catalog): retire now so the tracker pin is released promptly.
        // An entry that merely belongs to an older catalog epoch is left
        // for natural clobbering — a concurrent reader of an older epoch
        // may still hit it.
        const std::shared_ptr<ContentionTracker> released =
            Vacate(index, *shard);
        RmwProbe::Count();  // invalidation counter
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      continue;
    }
    *response = slot.response;
    return true;
  }
  return false;
}

void EstimateCache::Insert(const std::string& site, int class_id,
                           const std::vector<double>& features, uint64_t epoch,
                           const InsertContext& context,
                           const EstimateResponse& response) {
  // An entry validates against its response's state cell, so a response
  // without a state is not stored (the service never offers one).
  if (!enabled() || context.tracker == nullptr ||
      *context.tracker == nullptr || features.size() > kMaxKeyFeatures ||
      response.state < 0) {
    return;
  }
  ThreadShard* shard = LocalShard(/*create=*/true);
  if (shard == nullptr) return;
  const uint64_t hash = HashKey(site, class_id, features, feature_quantum_);
  const size_t n = features.size();
  uint64_t bits[kMaxKeyFeatures];
  for (size_t j = 0; j < n; ++j) {
    bits[j] = QuantizeFeature(features[j], feature_quantum_);
  }
  SiteRecord& record = RecordFor(site, *shard);
  Pin* const pin = PinFor(*context.tracker, record, *shard);
  const VersionCell* const state_cell = StateCellFor(record, response.state);

  // Reuse the same key's slot or a free one in the window; otherwise clobber
  // the key's home slot (direct-mapped replacement — no LRU bookkeeping on
  // the hot path).
  size_t victim = hash & slot_mask_;
  for (size_t i = 0; i < kProbeWindow; ++i) {
    const size_t index = (hash + i) & slot_mask_;
    const uint64_t tag_hash = shard->tags[index].hash;
    if (tag_hash == 0) {
      victim = index;
      break;
    }
    const Slot& slot = shard->slots[index];
    if (tag_hash == hash && slot.class_id == class_id &&
        slot.record == &record && slot.num_features == n &&
        std::equal(bits, bits + n, slot.feature_bits)) {
      victim = index;
      break;
    }
  }
  // Count the new entry before the victim's ends: they may share the pin,
  // whose count must not touch zero in between.
  ++pin->entries;
  const std::shared_ptr<ContentionTracker> released = Vacate(victim, *shard);

  shard->tags[victim] = Tag{hash, pin};
  Slot& slot = shard->slots[victim];
  slot.num_features = static_cast<uint8_t>(n);
  slot.class_id = class_id;
  slot.epoch = epoch;
  slot.state_version = context.state_version;
  slot.state_lo = context.state_lo;
  slot.state_hi = context.state_hi;
  slot.record = &record;
  slot.site_version = record.cell->load(std::memory_order_acquire);
  slot.state_cell = state_cell;
  slot.state_cell_version = state_cell->load(std::memory_order_acquire);
  std::copy(bits, bits + n, slot.feature_bits);
  slot.response = response;
  // `released`, if this was the last entry on the victim's tracker, drops
  // here with the shard consistent again.
}

void EstimateCache::InvalidateSite(const std::string& site) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(cells_mutex_);
  auto& cell = site_cells_[site];
  if (cell == nullptr) cell = std::make_unique<VersionCell>(0);
  cell->fetch_add(1, std::memory_order_release);
}

void EstimateCache::InvalidateSiteState(const std::string& site, int state) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(cells_mutex_);
  auto& cell = site_state_cells_[{site, state}];
  if (cell == nullptr) cell = std::make_unique<VersionCell>(0);
  cell->fetch_add(1, std::memory_order_release);
}

void EstimateCache::InvalidateAll() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(cells_mutex_);
  // Every occupied entry recorded a cell at insert, so bumping every cell
  // reaches every entry.
  for (auto& [site, cell] : site_cells_) {
    cell->fetch_add(1, std::memory_order_release);
  }
}

}  // namespace mscm::runtime
