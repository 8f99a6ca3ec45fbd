// A small fixed-size worker pool: the ModelRefreshDaemon's background
// re-derivations run on it. Deliberately minimal: a FIFO queue of
// std::function tasks, and inline execution when constructed with zero
// workers (Submit degenerates to a plain call — handy for deterministic
// tests).

#ifndef MSCM_RUNTIME_THREAD_POOL_H_
#define MSCM_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mscm::runtime {

class ThreadPool {
 public:
  // `num_threads` < 0 → std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task. With zero workers the task runs inline.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_THREAD_POOL_H_
