#ifndef HICS_COMMON_PARALLEL_H_
#define HICS_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace hics {

/// Runs fn(i) for every i in [begin, end) using up to `num_threads` worker
/// slots of the persistent process-wide ThreadPool. num_threads = 0 means
/// hardware concurrency; with num_threads == 1 (or when called from inside
/// another parallel region) the loop runs inline on the calling thread.
/// `fn` must be safe to call concurrently for distinct indices.
///
/// Work distribution is chunked self-scheduling: slots repeatedly claim
/// contiguous chunks off a shared cursor, so uneven per-index cost (kNN
/// queries, varying subspace dimensionality) balances automatically.
/// Iteration order within a chunk is ascending; across chunks unspecified.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t num_threads,
                 const std::function<void(std::size_t)>& fn);

/// ParallelFor variant for per-thread scratch: fn(i, worker_id) with
/// worker_id a dense slot index in [0, ParallelWorkerCount(end - begin,
/// num_threads)). Concurrent calls always see distinct worker ids, so
/// indexing a pre-sized scratch array by worker_id is race-free; the
/// inline path always uses worker_id 0.
void ParallelForWorker(
    std::size_t begin, std::size_t end, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// Fallible variant: runs fn(i) like ParallelFor but stops scheduling new
/// iterations as soon as any call returns a non-OK Status, and returns the
/// error of the *smallest failing index* — deterministic regardless of
/// thread count or scheduling. Iterations already in flight on other
/// workers finish; iterations never started are skipped. Returns OK when
/// every executed call returned OK.
///
/// Distribution is self-scheduled one index at a time: slots claim the
/// next index off a shared cursor, so a slow index never holds back the
/// ones after it. Claims are made in ascending index order, and a claimed
/// index at or above a recorded failure is skipped, so once the failing
/// call returns each other worker finishes at most the one call it had
/// already claimed.
///
/// `should_stop`, when provided, is polled before each iteration; returning
/// true makes remaining iterations wind down without producing an error
/// (the caller knows why it asked to stop — see RunContext).
Status ParallelTryFor(std::size_t begin, std::size_t end,
                      std::size_t num_threads,
                      const std::function<Status(std::size_t)>& fn,
                      const std::function<bool()>& should_stop = nullptr);

/// ParallelTryFor with worker slot ids, for fallible loops that reuse
/// per-thread scratch (the HiCS contrast lattice). Same error and
/// wind-down semantics as ParallelTryFor; same worker_id contract as
/// ParallelForWorker.
Status ParallelTryForWorker(
    std::size_t begin, std::size_t end, std::size_t num_threads,
    const std::function<Status(std::size_t, std::size_t)>& fn,
    const std::function<bool()>& should_stop = nullptr);

/// Number of distinct worker slots the Parallel*Worker entry points may use
/// for a loop of `count` iterations at the given num_threads setting (>= 1;
/// callers size per-worker scratch arrays with this).
std::size_t ParallelWorkerCount(std::size_t count, std::size_t num_threads);

/// Default worker count: hardware concurrency, at least 1.
std::size_t DefaultNumThreads();

}  // namespace hics

#endif  // HICS_COMMON_PARALLEL_H_
