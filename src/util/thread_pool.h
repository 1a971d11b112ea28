#ifndef GDR_UTIL_THREAD_POOL_H_
#define GDR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gdr {

/// Fixed-size worker pool for embarrassingly parallel phases (VOI group
/// scoring, future sharded scans). Tasks are plain callables; Submit
/// returns a std::future so callers can collect results or propagate
/// exceptions. Workers are started once in the constructor and joined in
/// the destructor — no dynamic resizing, no task priorities.
///
/// Determinism contract: the pool never reorders *results*. Helpers like
/// ParallelFor assign each index a fixed output slot, so which worker runs
/// which chunk cannot affect what the caller observes.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers; pending tasks are drained before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// The library-wide num_threads convention: 0 means "use the hardware",
  /// any other value is taken literally (1 = serial, no pool needed).
  static std::size_t ResolveThreadCount(std::size_t requested);

  /// Tasks currently queued and not yet picked up by a worker (a point-in-
  /// time sample; another thread may dequeue immediately after). Together
  /// with tasks_completed() this makes pool saturation observable — the
  /// server `stats` reply and the sweep bench surface both.
  std::size_t queue_depth() const;

  /// Total submitted tasks that have finished executing on a worker since
  /// construction. Counts Submit()ed callables (including the per-slot
  /// drivers ParallelFor* submits); chunks the *calling* thread drives
  /// in-place are not separate tasks and are not counted. Monotonic.
  std::uint64_t tasks_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Enqueues `task` and returns a future for its result. The future's
  /// get() rethrows any exception the task raised.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace_back([packaged] { (*packaged)(); });
    }
    ready_.notify_one();
    return future;
  }

  /// Runs fn(i) for every i in [0, n) and blocks until all calls finished.
  /// Indices are grouped into contiguous chunks handed out dynamically;
  /// the calling thread participates, so a 1-worker pool still makes
  /// progress while the caller helps. fn must be safe to invoke
  /// concurrently from multiple threads for distinct indices. The first
  /// exception thrown by fn is rethrown on the caller.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// As ParallelFor, but fn also receives the executor slot: slots
  /// [0, size()) are the pool workers, slot size() is the calling thread.
  /// Each slot is driven by exactly one thread for the duration of the
  /// call, so per-slot scratch state (e.g. a reusable HypotheticalBatch)
  /// needs no synchronization. Slot-to-chunk assignment is dynamic; only
  /// the slot's single-threadedness is guaranteed, not which indices land
  /// on which slot.
  void ParallelForWithSlot(
      std::size_t n,
      const std::function<void(std::size_t slot, std::size_t i)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::atomic<std::uint64_t> completed_{0};
  bool stop_ = false;
};

}  // namespace gdr

#endif  // GDR_UTIL_THREAD_POOL_H_
