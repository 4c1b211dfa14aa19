// Thread-pool runner for independent simulation tasks.
//
// The sweep harness fans one task per (config point x replica) across a
// pool of std::jthread workers pulling from a shared queue. Tasks are
// indexed; each task writes only its own output slot, so the set of
// results is independent of scheduling and thread count — determinism is
// re-established when the caller merges slots in index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wavesim::harness {

/// Fixed-size pool of std::jthread workers over a FIFO task queue.
/// submit() may be called from any thread; wait_idle() blocks until every
/// submitted task has finished. The first exception thrown by a task is
/// captured and rethrown from wait_idle().
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  void submit(std::function<void()> task);

  /// Block until the queue is empty and no task is running; rethrows the
  /// first captured task exception (subsequent tasks still ran).
  void wait_idle();

  /// Run fn(i) for every i in [0, n) on the pool and wait. Equivalent to
  /// n submit() calls + wait_idle().
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Like for_each_index, but fn returns false to request early exit:
  /// indices not yet started are skipped (already-running calls finish).
  /// Indices are handed out in ascending order by one task per worker, so
  /// the queue does not grow with n.
  /// Which indices ran may depend on scheduling — callers needing
  /// determinism must tolerate extra completed indices past the first
  /// false (the scenario checker re-ranks results by index afterwards).
  void for_each_index_until(std::size_t n,
                            const std::function<bool(std::size_t)>& fn);

 private:
  void worker_loop(std::stop_token stop);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  std::exception_ptr error_;
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

/// One-shot convenience: run fn(i) for i in [0, n) on a transient pool of
/// `threads` workers (0 = hardware concurrency) and wait. Exceptions from
/// tasks propagate to the caller.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                 unsigned threads = 0);

}  // namespace wavesim::harness
