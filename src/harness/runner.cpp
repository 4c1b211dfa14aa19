#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>

#include "engine/pool.hpp"

namespace wavesim::harness {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = engine::resolve_engine_threads(threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  work_ready_.notify_all();
  // jthread destructors join.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop(std::stop_token stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [&] { return !queue_.empty() || stop.stop_requested(); });
      if (queue_.empty()) return;  // stop requested and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, i] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::for_each_index_until(
    std::size_t n, const std::function<bool(std::size_t)>& fn) {
  // One task per worker pulling indices in order, so the queue holds
  // size() entries however large n is.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  for (unsigned w = 0; w < size(); ++w) {
    submit([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        if (!fn(i)) stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  wait_idle();
}

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                 unsigned threads) {
  if (n == 0) return;
  const unsigned workers = std::min<unsigned>(
      engine::resolve_engine_threads(threads), static_cast<unsigned>(n));
  ThreadPool pool(workers);
  pool.for_each_index(n, fn);
}

}  // namespace wavesim::harness
