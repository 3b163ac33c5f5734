#ifndef CCE_COMMON_THREAD_POOL_H_
#define CCE_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cce {

/// A fixed-size worker pool for embarrassingly parallel batch work (e.g.
/// explaining many instances against a read-only context). Tasks are plain
/// std::function<void()>; Wait() blocks until the queue drains and all
/// in-flight tasks finish.
///
/// Not reentrant: submitting from inside a task deadlocks Wait()-based
/// drains and is a programmer error — enforced with a CHECK. Use a second
/// pool (or restructure into a flat task list) instead.
class ThreadPool {
 public:
  /// `num_threads` = 0 uses the hardware concurrency (at least 1).
  /// `queue_capacity` = 0 leaves the queue unbounded (the historical
  /// behaviour); a positive capacity bounds the number of *queued* (not yet
  /// running) tasks, at which point Submit blocks and TrySubmit rejects —
  /// backpressure instead of unbounded memory growth under a slow consumer.
  explicit ThreadPool(size_t num_threads = 0, size_t queue_capacity = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  /// Enqueues a task; blocks while the queue is at capacity.
  void Submit(std::function<void()> task);

  /// Enqueues a task unless the queue is at capacity; returns false (and
  /// does not enqueue) when full. Never blocks.
  bool TrySubmit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }

  /// Tasks queued but not yet picked up by a worker.
  size_t queued() const;

  /// Runs fn(i) for i in [0, count) across the pool and waits. Work is
  /// chunked into contiguous ranges (~4 tasks per worker) rather than one
  /// task per item, so per-task overhead never dominates a small loop body
  /// and a bounded-queue pool never blocks the producer on huge counts.
  /// Within a chunk, indices run in order on one worker.
  template <typename Fn>
  void ParallelFor(size_t count, Fn&& fn) {
    if (count == 0) return;
    const size_t max_tasks = std::max<size_t>(1, num_threads()) * 4;
    const size_t chunk = (count + max_tasks - 1) / max_tasks;
    for (size_t begin = 0; begin < count; begin += chunk) {
      const size_t end = std::min(count, begin + chunk);
      Submit([&fn, begin, end] {
        for (size_t i = begin; i < end; ++i) fn(i);
      });
    }
    Wait();
  }

 private:
  void WorkerLoop();

  /// CHECK-fails when called from one of this pool's own workers.
  void CheckNotWorkerThread() const;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  size_t queue_capacity_ = 0;  // 0 = unbounded
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::condition_variable space_available_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace cce

#endif  // CCE_COMMON_THREAD_POOL_H_
