#ifndef VALMOD_COMMON_PARALLEL_H_
#define VALMOD_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace valmod {

/// A persistent pool of worker threads for the library's fork-join regions.
///
/// The VALMOD certification loop dispatches many small recompute batches per
/// length; spawning and joining `std::thread`s for each batch costs tens of
/// microseconds per thread — comparable to the batch's useful work. The pool
/// keeps workers parked on a condition variable between regions, so a region
/// dispatch is one notify instead of N thread creations.
///
/// Work is expressed as `chunks`: `Run(num_chunks, fn)` invokes
/// `fn(chunk_index)` exactly once for every index in [0, num_chunks),
/// spread over the pool workers plus the calling thread, and returns when
/// all chunks are done. Chunks are claimed dynamically from a shared
/// counter, so which thread runs which chunk is unspecified; `fn` must be
/// safe to call concurrently for distinct indices. A chunk that throws
/// does not stop the others: every chunk still runs, and `Run` rethrows the
/// first exception on the calling thread once all of them have finished.
///
/// The pool grows on demand up to `kMaxThreads` (a region with N chunks
/// wants N - 1 helpers; the caller executes chunks too) and never shrinks;
/// threads are created at most once per slot for the lifetime of the pool.
/// A `Run` issued from inside a pool worker executes inline, so nested
/// parallel regions cannot deadlock. Only one region is dispatched to the
/// pool at a time; a concurrent top-level caller executes its chunks
/// inline on its own thread instead of waiting.
class ThreadPool {
 public:
  /// Upper bound on pool threads; far above any sensible num_threads and
  /// small enough that the parked threads cost nothing measurable.
  static constexpr std::size_t kMaxThreads = 64;

  ThreadPool() = default;
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by ParallelFor. Created on first use.
  static ThreadPool& Shared() {
    static ThreadPool pool;
    return pool;
  }

  /// Number of worker threads currently parked in or running on the pool.
  std::size_t worker_count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
  }

  /// Total threads this pool has ever created. Monotone; stable across
  /// regions once the pool has warmed up to the requested width — the
  /// observable guarantee that regions reuse threads instead of spawning.
  std::uint64_t threads_created() const {
    return threads_created_.load(std::memory_order_relaxed);
  }

  /// Runs `fn(c)` once for every c in [0, num_chunks), blocking until all
  /// chunks complete. The calling thread participates. Rethrows the first
  /// exception a chunk threw, after every chunk has finished.
  void Run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
    if (num_chunks == 0) return;
    if (num_chunks == 1 || InParallelRegion()) {
      for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
      return;
    }

    // One dispatched region at a time. A caller arriving while another
    // region is in flight runs its chunks inline instead of blocking: a
    // concurrent library caller keeps making progress on its own thread
    // rather than stalling for the whole duration of the other region.
    std::unique_lock<std::mutex> region_lock(region_mutex_, std::try_to_lock);
    if (!region_lock.owns_lock()) {
      for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
      return;
    }
    auto region = std::make_shared<Region>();
    region->fn = &fn;
    region->chunks = num_chunks;
    region->binding = trace::CurrentBinding();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      EnsureWorkersLocked(std::min(num_chunks - 1, kMaxThreads));
      current_ = region;
      ++generation_;
    }
    work_cv_.notify_all();

    // The caller executes chunks too, and is flagged as inside the region
    // while it does: a chunk that itself calls Run (nested ParallelFor)
    // must execute inline — re-entering the dispatch path would deadlock
    // on region_mutex_, which this thread already holds.
    InParallelRegion() = true;
    Drain(*region);
    InParallelRegion() = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return region->completed.load(std::memory_order_acquire) ==
             region->chunks;
    });
    current_.reset();
    lock.unlock();
    if (region->error) std::rethrow_exception(region->error);
  }

 private:
  /// One fork-join dispatch. Workers hold a shared_ptr, so a straggler that
  /// wakes after the region completed only touches the (monotone) claim
  /// counter of its own region — it can never claim chunks of, or call the
  /// function of, a later region.
  struct Region {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t chunks = 0;
    /// The dispatching thread's trace binding, re-installed on each worker
    /// while it drains this region: spans opened inside the chunks attach
    /// to the request that forked the region, not to whatever the worker
    /// last ran. Safe because Run() blocks the dispatcher until the region
    /// completes, so the bound context outlives every worker's use of it.
    trace::Binding binding;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    /// The first exception a chunk threw; written before that chunk counts
    /// as completed, so the dispatcher reads it after the wait without a
    /// lock.
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  /// True while this thread is executing chunks of some region — pool
  /// workers always, the dispatching caller while it participates.
  static bool& InParallelRegion() {
    thread_local bool in_region = false;
    return in_region;
  }

  void EnsureWorkersLocked(std::size_t want) {
    while (workers_.size() < want) {
      workers_.emplace_back([this] { WorkerLoop(); });
      threads_created_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Drain(Region& region) {
    for (;;) {
      const std::size_t c =
          region.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= region.chunks) return;
      try {
        (*region.fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(region.error_mutex);
        if (!region.error) region.error = std::current_exception();
      }
      if (region.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          region.chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void WorkerLoop() {
    InParallelRegion() = true;
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Region> region;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] {
          return stop_ || (generation_ != seen_generation && current_);
        });
        if (stop_) return;
        seen_generation = generation_;
        region = current_;
      }
      const trace::ScopedBinding bind(region->binding);
      Drain(*region);
    }
  }

  std::mutex region_mutex_;  // serializes concurrent top-level regions

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Region> current_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> threads_created_{0};
};

/// Runs `fn(index)` for every index in [begin, end), statically partitioned
/// into contiguous chunks across up to `threads` workers of the shared
/// persistent pool (the partitioning — and therefore which indices share a
/// chunk — is identical to the historical spawn-per-call implementation).
/// `fn` must be safe to call concurrently for distinct indices. With
/// `threads <= 1` (or a tiny range) the loop runs inline.
inline void ParallelFor(std::size_t begin, std::size_t end, int threads,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t count = end > begin ? end - begin : 0;
  const std::size_t workers = std::min<std::size_t>(
      threads > 1 ? static_cast<std::size_t>(threads) : 1, count);
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunk = (count + workers - 1) / workers;
  ThreadPool::Shared().Run(workers, [&](std::size_t w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

/// Status-returning variant: runs every index (no early abort across
/// workers) and reports the error of the lowest failing index, so the
/// outcome is deterministic regardless of thread interleaving.
inline Status ParallelForWithStatus(
    std::size_t begin, std::size_t end, int threads,
    const std::function<Status(std::size_t)>& fn) {
  std::mutex mutex;
  std::size_t first_bad = end;
  Status first_error;
  ParallelFor(begin, end, threads, [&](std::size_t i) {
    Status status = fn(i);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      if (i < first_bad) {
        first_bad = i;
        first_error = std::move(status);
      }
    }
  });
  return first_error;
}

}  // namespace valmod

#endif  // VALMOD_COMMON_PARALLEL_H_
