#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace hics {

namespace {

std::size_t ResolveThreads(std::size_t num_threads) {
  return num_threads == 0 ? DefaultNumThreads() : num_threads;
}

}  // namespace

std::size_t ParallelWorkerCount(std::size_t count, std::size_t num_threads) {
  std::size_t workers = std::min(ResolveThreads(num_threads),
                                 ThreadPool::kMaxParallelism);
  workers = std::min(workers, std::max<std::size_t>(count, 1));
  return std::max<std::size_t>(workers, 1);
}

void ParallelForWorker(
    std::size_t begin, std::size_t end, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  HICS_CHECK_LE(begin, end);
  const std::size_t count = end - begin;
  if (count == 0) return;
  const std::size_t workers = ParallelWorkerCount(count, num_threads);
  if (workers <= 1 || count == 1 || ThreadPool::InParallelRegion()) {
    for (std::size_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }
  // Chunked self-scheduling: ~8 chunks per slot amortizes the shared-cursor
  // contention while still balancing uneven per-index cost.
  const std::size_t chunk = std::max<std::size_t>(1, count / (workers * 8));
  std::atomic<std::size_t> cursor{begin};
  ThreadPool::Global().Run(workers, [&](std::size_t slot) {
    for (;;) {
      const std::size_t lo =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) fn(i, slot);
    }
  });
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t num_threads,
                 const std::function<void(std::size_t)>& fn) {
  ParallelForWorker(begin, end, num_threads,
                    [&fn](std::size_t i, std::size_t) { fn(i); });
}

Status ParallelTryForWorker(
    std::size_t begin, std::size_t end, std::size_t num_threads,
    const std::function<Status(std::size_t, std::size_t)>& fn,
    const std::function<bool()>& should_stop) {
  HICS_CHECK_LE(begin, end);
  const std::size_t count = end - begin;
  if (count == 0) return Status::OK();

  // First error wins by *index*, not by wall-clock arrival. Workers claim
  // indices one at a time in ascending order off a shared cursor, and a
  // claimed index runs only while it is below the smallest failing index
  // recorded so far. Every index below the globally smallest failing one
  // was therefore claimed before it and runs (all of them succeed), which
  // makes the returned error deterministic under any thread count or
  // scheduling.
  std::mutex error_mutex;
  Status first_error;
  std::atomic<std::size_t> first_error_index{
      std::numeric_limits<std::size_t>::max()};
  std::atomic<bool> stop{false};  // cooperative wind-down, not an error
  std::atomic<std::size_t> cursor{begin};

  auto run_claimed = [&](std::size_t slot) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      if (i >= first_error_index.load(std::memory_order_relaxed)) return;
      if (stop.load(std::memory_order_relaxed)) return;
      if (should_stop && should_stop()) {
        stop.store(true, std::memory_order_relaxed);
        return;
      }
      Status st = fn(i, slot);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index.load(std::memory_order_relaxed)) {
          first_error = std::move(st);
          first_error_index.store(i, std::memory_order_relaxed);
        }
        return;
      }
    }
  };

  const std::size_t workers = ParallelWorkerCount(count, num_threads);
  if (workers <= 1 || count == 1 || ThreadPool::InParallelRegion()) {
    run_claimed(0);
  } else {
    // One index per claim, not chunks: a slow index (a high-dimensional
    // subspace, a kd-tree rejected by its probe) never holds back indices
    // queued behind it, and after an error each other worker finishes at
    // most the one call it already claimed (see header).
    ThreadPool::Global().Run(workers, run_claimed);
  }
  return first_error;
}

Status ParallelTryFor(std::size_t begin, std::size_t end,
                      std::size_t num_threads,
                      const std::function<Status(std::size_t)>& fn,
                      const std::function<bool()>& should_stop) {
  return ParallelTryForWorker(
      begin, end, num_threads,
      [&fn](std::size_t i, std::size_t) { return fn(i); }, should_stop);
}

std::size_t DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace hics
