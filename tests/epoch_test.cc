// Tests of the epoch-based reclamation protocol behind the estimate hot
// path (runtime/epoch.h): a pinned reader keeps a retired object alive, a
// released reader lets it die, fresh pins can never resurrect an old
// record, and the concurrent publish/read hammer stays clean under the
// tier-2 sanitizers.

#include "runtime/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace mscm::runtime {
namespace {

// An object whose constructor/destructor maintain a live count, so tests
// can observe exactly when the domain frees a retired record.
struct Tracked {
  explicit Tracked(std::atomic<int>* live, int value = 0)
      : live_count(live), value(value) {
    live_count->fetch_add(1);
  }
  ~Tracked() { live_count->fetch_sub(1); }
  std::atomic<int>* live_count;
  int value;
};

TEST(EpochTest, ReadSeesLatestPublishedValue) {
  std::atomic<int> live{0};
  {
    EpochPublished<Tracked> published;
    {
      EpochGuard guard;
      EXPECT_EQ(published.Read(guard), nullptr);  // nothing published yet
    }
    published.Publish(std::make_shared<const Tracked>(&live, 1));
    published.Publish(std::make_shared<const Tracked>(&live, 2));
    EpochGuard guard;
    const Tracked* current = published.Read(guard);
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->value, 2);
    EXPECT_EQ(published.load()->value, 2);  // cold path agrees
  }
  EXPECT_EQ(live.load(), 0);  // destructor drained every retired record
}

TEST(EpochTest, PinnedReaderBlocksReclamationUntilReleased) {
  std::atomic<int> live{0};
  {
    EpochPublished<Tracked> published;
    published.Publish(std::make_shared<const Tracked>(&live, 1));
    {
      EpochGuard guard;
      const Tracked* old = published.Read(guard);
      ASSERT_NE(old, nullptr);
      // Retire the value this reader holds. The pin predates the retire
      // stamp, so reclamation must keep it alive — and dereferenceable.
      published.Publish(std::make_shared<const Tracked>(&live, 2));
      EpochDomain::Global().Reclaim();
      EXPECT_EQ(live.load(), 2);
      EXPECT_EQ(old->value, 1);
    }
    // Reader released: the grace period has passed for the old record.
    EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
    EXPECT_EQ(live.load(), 1);
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, FreshPinCannotResurrectARetiredRecord) {
  std::atomic<int> live{0};
  {
    EpochPublished<Tracked> published;
    published.Publish(std::make_shared<const Tracked>(&live, 1));
    published.Publish(std::make_shared<const Tracked>(&live, 2));
    // A guard taken after the retire reads the current epoch, which is past
    // the retire stamp: it sees only the new value and does not block the
    // old record's reclamation.
    EpochGuard guard;
    EXPECT_EQ(published.Read(guard)->value, 2);
    EpochDomain::Global().Reclaim();
    EXPECT_EQ(live.load(), 1);
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedGuardsPiggybackOnTheOutermostPin) {
  std::atomic<int> live{0};
  EpochPublished<Tracked> published;
  published.Publish(std::make_shared<const Tracked>(&live, 7));
  EpochGuard outer;
  {
    EpochGuard inner;
    EXPECT_EQ(published.Read(inner)->value, 7);
  }
  // The inner guard's release must not unpin the outer one.
  const Tracked* held = published.Read(outer);
  published.Publish(std::make_shared<const Tracked>(&live, 8));
  EpochDomain::Global().Reclaim();
  EXPECT_EQ(held->value, 7);  // still alive under the outer pin
  EXPECT_EQ(live.load(), 2);
}

// Concurrent hammer for the tier-2 sanitizers: hot readers dereference raw
// pointers under guards and cold readers hold owning load() snapshots
// across later publishes, while a publisher continuously swaps and retires.
// Every read must observe a fully-constructed value with its canary intact.
TEST(EpochTest, ConcurrentReadersSurvivePublishStorm) {
  std::atomic<int> live{0};
  constexpr int kCanary = 0x5ca1ab1e;
  {
    EpochPublished<Tracked> published;
    published.Publish(std::make_shared<const Tracked>(&live, kCanary));
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          EpochGuard guard;
          const Tracked* current = published.Read(guard);
          ASSERT_NE(current, nullptr);
          ASSERT_EQ(current->value, kCanary);
        }
      });
    }
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        std::vector<std::shared_ptr<const Tracked>> held;
        while (!stop.load(std::memory_order_relaxed)) {
          held.push_back(published.load());
          ASSERT_NE(held.back(), nullptr);
          if (held.size() == 8) {
            for (const auto& snapshot : held) {
              ASSERT_EQ(snapshot->value, kCanary);
            }
            held.clear();
          }
        }
      });
    }
    for (int i = 0; i < 3000; ++i) {
      published.Publish(std::make_shared<const Tracked>(&live, kCanary));
    }
    stop.store(true);
    for (auto& r : readers) r.join();
    // With every reader gone, a draining reclaim leaves only the current
    // value alive.
    EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
    EXPECT_EQ(live.load(), 1);
  }
  EXPECT_EQ(live.load(), 0);
}

// Regression for the reclaim ordering race: publishers are only serialized
// per-object, so two objects retire into the domain concurrently, and each
// Retire runs Reclaim. The old Reclaim scanned reader slots *before*
// snapshotting the retired list, so a record retired by the other publisher
// after the scan could be freed against a scan that missed its readers —
// a use-after-free the sanitizer jobs catch here. Readers continuously pin
// and dereference both objects while both publishers storm.
TEST(EpochTest, ConcurrentPublishersCannotFreeAPinnedRecord) {
  std::atomic<int> live{0};
  constexpr int kCanary = 0x0ddba11;
  {
    EpochPublished<Tracked> first;
    EpochPublished<Tracked> second;
    first.Publish(std::make_shared<const Tracked>(&live, kCanary));
    second.Publish(std::make_shared<const Tracked>(&live, kCanary));
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          EpochGuard guard;
          const Tracked* a = first.Read(guard);
          const Tracked* b = second.Read(guard);
          ASSERT_NE(a, nullptr);
          ASSERT_NE(b, nullptr);
          ASSERT_EQ(a->value, kCanary);
          ASSERT_EQ(b->value, kCanary);
        }
      });
    }
    std::thread first_publisher([&] {
      for (int i = 0; i < 2000; ++i) {
        first.Publish(std::make_shared<const Tracked>(&live, kCanary));
      }
    });
    std::thread second_publisher([&] {
      for (int i = 0; i < 2000; ++i) {
        second.Publish(std::make_shared<const Tracked>(&live, kCanary));
      }
    });
    first_publisher.join();
    second_publisher.join();
    stop.store(true);
    for (auto& r : readers) r.join();
    EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
    EXPECT_EQ(live.load(), 2);  // only the two current values survive
  }
  EXPECT_EQ(live.load(), 0);
}

// Regression for the drain guarantee: a slotted reader pinned on one
// published slot blocks the whole domain, so destroying a *different*
// EpochPublished must wait that reader out — its keepalive may not survive
// the destructor (the old drain only waited for overflow readers).
TEST(EpochTest, DrainWaitsOutSlottedReadersPinnedOnOtherObjects) {
  std::atomic<int> live_held{0};
  std::atomic<int> live_dying{0};
  {
    EpochPublished<Tracked> held;
    held.Publish(std::make_shared<const Tracked>(&live_held, 1));
    auto dying = std::make_unique<EpochPublished<Tracked>>();
    dying->Publish(std::make_shared<const Tracked>(&live_dying, 2));

    std::atomic<bool> pinned{false};
    std::atomic<bool> release{false};
    std::thread reader([&] {
      EpochGuard guard;
      const Tracked* value = held.Read(guard);
      ASSERT_NE(value, nullptr);
      pinned.store(true);
      while (!release.load()) std::this_thread::yield();
      ASSERT_EQ(value->value, 1);  // still dereferenceable under the pin
    });
    while (!pinned.load()) std::this_thread::yield();

    // Destroy the other object while the reader is pinned. Its final retire
    // stamp postdates the reader's pin, so the drain must block until the
    // reader releases.
    std::thread destroyer([&] { dying.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(live_dying.load(), 1);  // pinned reader still blocks the free
    release.store(true);
    reader.join();
    destroyer.join();
    // The destructor has returned, so the keepalive did not outlive it.
    EXPECT_EQ(live_dying.load(), 0);
  }
  EXPECT_EQ(live_held.load(), 0);
}

}  // namespace
}  // namespace mscm::runtime
