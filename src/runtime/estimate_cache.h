// State-keyed memo of estimate responses (paper §3.1 made operational): a
// cost estimate is a pure function of (model, features, contention state) —
// the probing cost enters the regression only through the qualitative
// variable, i.e. through StateOf(probing_cost). So a response stays exactly
// correct for as long as (a) the catalog that priced it is still the
// published one and (b) the site's probing cost still maps to the same state
// under that model. The cache keys on (site, class, quantized features,
// catalog epoch) and validates (b) per hit with two lock-free loads from the
// site's ContentionTracker: the state version, and the published probing
// cost checked against the state's own partition interval. No clock reads,
// no snapshot acquisition, no model walk on a hit.
//
// Concurrency: the table is sharded per thread — each live thread
// (ThreadRegistry slot) owns a private slot array that only it reads or
// writes, so lookups and inserts take no lock and perform zero shared
// atomic RMWs. Threads warm their own working sets (an entry inserted by
// one thread is not visible to another), which is the right trade for a
// serving stack where each worker sees the full key distribution.
// Threads beyond the registry capacity bypass the cache entirely.
//
// Invalidation is lazy, via per-site version cells: every entry records the
// value of its site's cell at insert time, and InvalidateSite/InvalidateAll
// bump cells (never touching another thread's shard). An entry whose cell,
// catalog epoch, or tracker validity probe mismatches is retired by its
// owning thread on the next lookup that meets it.
//
// An insert allocates nothing and performs no shared atomic RMW once its
// shard has met the site and the tracker. Entries store their quantized
// features inline, up to kMaxKeyFeatures; a wider vector is priced but never
// cached. Entries point at a shard-private record per site (its name, its
// version cell and its per-state cells), so an insert copies no string and
// searches no shared map. And entries keep their tracker alive through a
// shard-private pin: the shard takes one reference per tracker, counts the
// entries that use it with a plain integer, and drops the reference when the
// last of them is retired or clobbered. Validation atomics therefore stay
// dereferenceable after RegisterSite replaces the site's tracker (the
// service stops a replaced tracker's prober eagerly), and a replaced or
// retired tracker lives no longer than its last entry.

#ifndef MSCM_RUNTIME_ESTIMATE_CACHE_H_
#define MSCM_RUNTIME_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/explanatory.h"
#include "runtime/contention_tracker.h"
#include "runtime/estimate_types.h"
#include "runtime/thread_registry.h"

namespace mscm::runtime {

struct EstimateCacheConfig {
  // Cached responses *per estimate thread* (rounded up to a power of two);
  // 0 disables the cache (every lookup misses, inserts are dropped). Total
  // footprint is live-estimate-threads × this, since each thread owns a
  // private shard. Deliberately NOT named `capacity`: that knob meant
  // *total* responses under the old spinlocked-shard design, and a silent
  // reinterpretation would have multiplied existing configs' memory by the
  // thread count — renaming makes stale configs fail to compile instead.
  size_t capacity_per_thread = 0;
  // Feature quantization grid. 0 keys features on their exact bit patterns
  // (a hit requires identical features — always exact). Positive values key
  // on round(feature / quantum), trading a bounded feature perturbation for
  // hits across near-identical feature vectors.
  double feature_quantum = 0.0;
};

class EstimateCache {
 public:
  explicit EstimateCache(const EstimateCacheConfig& config);
  ~EstimateCache();

  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  bool enabled() const { return slots_per_thread_ > 0; }

  // The widest feature vector an entry keys on: the paper's widest
  // explanatory-variable set (the join class, Table 3). Longer vectors are
  // neither looked up nor inserted.
  static constexpr size_t kMaxKeyFeatures = core::VariableSet::kMaxSize;

  // Everything Insert needs beyond the key and the response to make the
  // entry self-validating on later lookups.
  struct InsertContext {
    // The site's tracker, as the caller holds it for the call (the pricing
    // pass's epoch guard pins the tracker map it points into). The shard
    // pins the tracker itself the first time it meets it.
    const std::shared_ptr<ContentionTracker>* tracker = nullptr;
    // Tracker state version loaded *before* the reading that produced the
    // response was taken — if anything moved in between, the entry is born
    // invalid rather than wrongly valid.
    uint64_t state_version = 0;
    // The response state's partition interval (lo, hi] under the model that
    // priced it (±infinity at the ends). The entry stays value-correct while
    // the published probing cost lies inside it.
    double state_lo = 0.0;
    double state_hi = 0.0;
  };

  // Fills `response` and returns true when a currently valid entry matches.
  // Invalid entries encountered are retired in passing. Touches only the
  // calling thread's shard: zero locks, zero shared atomic RMWs.
  // A feature vector longer than kMaxKeyFeatures always misses.
  bool Lookup(const std::string& site, int class_id,
              const std::vector<double>& features, uint64_t epoch,
              EstimateResponse* response);

  // Stores a response in the calling thread's shard: in the key's own slot
  // or a free one in its probe window, else over the key's home slot. A
  // feature vector longer than kMaxKeyFeatures is not stored.
  void Insert(const std::string& site, int class_id,
              const std::vector<double>& features, uint64_t epoch,
              const InsertContext& context, const EstimateResponse& response);

  // Marks every entry for `site` / every entry invalid by bumping version
  // cells; each owning thread retires its dead entries on its next lookups.
  void InvalidateSite(const std::string& site);
  void InvalidateAll();

  // Marks only the entries priced in `state` for `site` invalid — the
  // adaptation swap path, where one state's coefficient row changed and
  // every other state's row is bit-identical (entries for those states stay
  // value-correct and survive).
  void InvalidateSiteState(const std::string& site, int state);

  // Entries retired after being invalidated (by a version-cell bump, a
  // catalog epoch they can no longer match, or a failed tracker validity
  // probe). Counted when the owning thread retires the entry, so this
  // trails InvalidateSite/InvalidateAll until lookups touch the dead slots.
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  using VersionCell = std::atomic<uint64_t>;

  // A shard's one reference to a tracker, shared by every entry of the
  // shard priced from it. `entries` counts them; at zero the reference
  // drops, and the empty pin is free for the next tracker.
  struct Pin {
    std::shared_ptr<ContentionTracker> tracker;
    size_t entries = 0;
  };

  // A shard's record of one site: its name, its invalidation cell, its
  // per-state cells (indexed by state, null until first needed) and the pin
  // of the tracker it last inserted under. Records are never freed before
  // the cache; a pin may have been recycled since, so `pin` is only a hint,
  // checked against the tracker.
  struct SiteRecord {
    std::string site;
    const VersionCell* cell = nullptr;
    std::vector<const VersionCell*> state_cells;
    Pin* pin = nullptr;
  };

  struct Slot {
    uint8_t num_features = 0;
    int class_id = 0;
    uint64_t epoch = 0;
    uint64_t state_version = 0;
    double state_lo = 0.0;
    double state_hi = 0.0;
    // The entry's site: its name and invalidation cell. The cell's value at
    // insert time is kept; a bumped cell invalidates the entry lazily.
    const SiteRecord* record = nullptr;
    uint64_t site_version = 0;
    // Finer-grained twin keyed by (site, response state): bumped by
    // InvalidateSiteState when an adaptation swap changes that state's row.
    const VersionCell* state_cell = nullptr;
    uint64_t state_cell_version = 0;
    uint64_t feature_bits[kMaxKeyFeatures] = {};
    EstimateResponse response;
  };

  // What a slot search reads: the entry's key hash (0 = free slot) and its
  // tracker pin.
  struct Tag {
    uint64_t hash = 0;
    Pin* pin = nullptr;
  };

  // One thread's private table, site records and tracker pins. The tags sit
  // apart from the slots, densely, so a lookup that misses reads one cache
  // line, and an insert only writes its slot.
  struct ThreadShard {
    std::vector<Tag> tags;  // tags[i] describes slots[i]
    std::vector<Slot> slots;
    std::unordered_map<std::string, std::unique_ptr<SiteRecord>> records;
    SiteRecord* last_record = nullptr;  // inserts come in runs per site
    std::deque<Pin> pins;               // stable addresses
  };

  // The calling thread's shard, lazily created (nullptr when `create` is
  // false and none exists yet, or the thread has no registry slot).
  ThreadShard* LocalShard(bool create);

  // The shard's record for `site`, created (with its version cell) on first
  // use.
  SiteRecord& RecordFor(const std::string& site, ThreadShard& shard);

  // The (site, state) version cell (stable address), creating it if needed.
  const VersionCell* StateCellFor(SiteRecord& record, int state);

  // The shard's pin on `tracker`, taken on first use.
  Pin* PinFor(const std::shared_ptr<ContentionTracker>& tracker,
              SiteRecord& record, ThreadShard& shard);

  // Ends the entry in slot `index`. Returns the tracker reference its pin
  // dropped, if this was the pin's last entry: the caller releases it after
  // the shard is consistent again (a tracker's destructor joins its prober,
  // whose callback may call InvalidateSite).
  static std::shared_ptr<ContentionTracker> Vacate(size_t index,
                                                   ThreadShard& shard);

  size_t slots_per_thread_ = 0;
  uint64_t slot_mask_ = 0;
  double feature_quantum_ = 0.0;
  // Owner-created (release store), freed only by the destructor.
  std::atomic<ThreadShard*> shards_[ThreadRegistry::kMaxSlots] = {};
  mutable std::mutex cells_mutex_;
  // node-stable: cell addresses survive rehash/insert.
  std::map<std::string, std::unique_ptr<VersionCell>> site_cells_;
  std::map<std::pair<std::string, int>, std::unique_ptr<VersionCell>>
      site_state_cells_;
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ESTIMATE_CACHE_H_
