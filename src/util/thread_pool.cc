#include "util/thread_pool.h"

#include <algorithm>

namespace gdr {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::ResolveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // More chunks than threads smooths imbalance between tasks of very
  // different sizes; each chunk is a fixed contiguous index range, so the
  // work a given index performs is identical however chunks land on
  // threads.
  const std::size_t chunks = std::min(n, (size() + 1) * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  // One driver task per worker, plus the calling thread, each claiming
  // chunks until none are left.
  auto run_chunks = [n, chunk_size, cursor, &fn] {
    for (;;) {
      const std::size_t chunk = cursor->fetch_add(1);
      const std::size_t begin = chunk * chunk_size;
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk_size);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(size());
  for (std::size_t t = 0; t < size(); ++t) {
    futures.push_back(Submit(run_chunks));
  }
  // The caller works too. Whatever happens, every future must be waited on
  // before returning — the submitted tasks reference `fn` and `cursor`.
  std::exception_ptr caller_error;
  try {
    run_chunks();
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!worker_error) worker_error = std::current_exception();
    }
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

}  // namespace gdr
