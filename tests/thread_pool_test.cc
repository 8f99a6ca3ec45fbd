#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace mscm::runtime {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int ran = 0;
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // inline: visible immediately, same thread
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 200);
}

}  // namespace
}  // namespace mscm::runtime
