// Reference neighbor queries: the all-kNN table built from one per-query
// QueryKnn call per object, and the radius neighborhood by an exhaustive
// scan of the projected rows. The backends' batched QueryAllKnn kernels
// and their CountRadius are compared against these. Header-only so tests
// and benches share one oracle.

#ifndef HICS_TESTS_KNN_ORACLE_H_
#define HICS_TESTS_KNN_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/dataset.h"
#include "common/parallel.h"
#include "common/subspace.h"
#include "index/distance.h"
#include "index/neighbor_searcher.h"

namespace hics {

/// Row q = searcher.QueryKnn(q, k): min(k, N - 1) neighbors, ascending
/// (distance, id). Worker-parallel over queries; identical for any
/// `num_threads`.
inline void PerQueryAllKnn(const NeighborSearcher& searcher, std::size_t k,
                           KnnResultTable* out, std::size_t num_threads = 1) {
  const std::size_t n = searcher.num_objects();
  const std::size_t kcap = n == 0 ? 0 : std::min(k, n - 1);
  out->Reset(n, kcap);
  if (kcap == 0) return;
  std::vector<std::vector<Neighbor>> buffers(
      ParallelWorkerCount(n, num_threads));
  ParallelForWorker(0, n, num_threads, [&](std::size_t q, std::size_t worker) {
    std::vector<Neighbor>& buffer = buffers[worker];
    searcher.QueryKnn(q, k, &buffer);
    std::copy(buffer.begin(), buffer.end(), out->MutableRow(q));
    *out->MutableCount(q) = buffer.size();
  });
}

/// Every object but `query` within `radius` of it in `subspace`, ascending
/// (distance, id), with the canonical SquaredDistance the backends use.
inline std::vector<Neighbor> OracleQueryRadius(const Dataset& dataset,
                                               const Subspace& subspace,
                                               std::size_t query,
                                               double radius) {
  const auto project = [&](std::size_t i) {
    std::vector<double> row;
    for (std::size_t a : subspace) row.push_back(dataset.Get(i, a));
    return row;
  };
  const std::vector<double> q = project(query);
  std::vector<Neighbor> result;
  for (std::size_t i = 0; i < dataset.num_objects(); ++i) {
    if (i == query) continue;
    const double d2 = SquaredDistance(q.data(), project(i).data(), q.size());
    if (d2 <= radius * radius) result.push_back({i, std::sqrt(d2)});
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace hics

#endif  // HICS_TESTS_KNN_ORACLE_H_
