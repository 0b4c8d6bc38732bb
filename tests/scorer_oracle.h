// Reference neighbor scores: a brute-force kNN table from per-query
// exhaustive scans, and the LOF (Breunig et al.), k-th-distance and
// mean-distance formulas written out directly over it. The library's
// scorers compute the same quantities from cached, batched, possibly
// kd-tree tables (OutlierScorer::ScoreSubspacePrepared); every backend
// returns the same table and both sides sum in row order, so the scores
// must agree bit for bit. Neighborhood sizes clamp to N - 1 as the
// scorers clamp them. Header-only so every test shares one oracle.

#ifndef HICS_TESTS_SCORER_ORACLE_H_
#define HICS_TESTS_SCORER_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"
#include "index/neighbor_searcher.h"
#include "knn_oracle.h"

namespace hics {

/// Row q = the min(k, N - 1) nearest neighbors of object q in `subspace`,
/// ascending (distance, id), object q excluded.
inline KnnResultTable OracleKnnTable(const Dataset& dataset,
                                     const Subspace& subspace,
                                     std::size_t k) {
  const std::size_t n = dataset.num_objects();
  KnnResultTable table;
  PerQueryAllKnn(*MakeBruteForceSearcher(dataset, subspace),
                 std::min(k, n - 1), &table);
  return table;
}

/// LOF's per-object densities over a neighbor table: k-distance(p), the
/// distance to p's farthest kept neighbor, and
/// lrd(p) = |N_k(p)| / sum_{o in N_k(p)} max(k-distance(o), d(p, o)),
/// inf when that sum is 0 (duplicates). Every row must be non-empty.
struct LofDensities {
  std::vector<double> k_distance;
  std::vector<double> lrd;
};

inline LofDensities OracleLofDensities(const KnnResultTable& table) {
  const std::size_t n = table.num_queries();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LofDensities densities{std::vector<double>(n), std::vector<double>(n)};
  for (std::size_t p = 0; p < n; ++p) {
    densities.k_distance[p] = table.Row(p).back().distance;
  }
  for (std::size_t p = 0; p < n; ++p) {
    double sum_reach = 0.0;
    for (const Neighbor& o : table.Row(p)) {
      sum_reach += std::max(densities.k_distance[o.id], o.distance);
    }
    densities.lrd[p] =
        sum_reach > 0.0 ? static_cast<double>(table.Row(p).size()) / sum_reach
                        : kInf;
  }
  return densities;
}

/// LOF(p) = mean_{o in N_k(p)} lrd(o) / lrd(p) over OracleLofDensities of
/// the oracle table.
/// Duplicates: an object with infinite lrd scores 1, and neighbors with
/// infinite lrd drop out of the mean (1 when none is left).
inline std::vector<double> OracleLofScores(const Dataset& dataset,
                                           const Subspace& subspace,
                                           std::size_t min_pts) {
  const std::size_t n = dataset.num_objects();
  if (n < 2) return std::vector<double>(n, 1.0);
  const KnnResultTable table = OracleKnnTable(dataset, subspace, min_pts);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> lrd = OracleLofDensities(table).lrd;
  std::vector<double> lof(n, 1.0);
  for (std::size_t p = 0; p < n; ++p) {
    if (lrd[p] == kInf) continue;
    double sum_ratio = 0.0;
    std::size_t terms = 0;
    for (const Neighbor& o : table.Row(p)) {
      if (lrd[o.id] == kInf) continue;
      sum_ratio += lrd[o.id] / lrd[p];
      ++terms;
    }
    if (terms > 0) lof[p] = sum_ratio / static_cast<double>(terms);
  }
  return lof;
}

/// score(p) = distance to the k-th nearest neighbor; 0 when N < 2.
inline std::vector<double> OracleKthDistanceScores(const Dataset& dataset,
                                                   const Subspace& subspace,
                                                   std::size_t k) {
  const std::size_t n = dataset.num_objects();
  std::vector<double> scores(n, 0.0);
  if (n < 2) return scores;
  const KnnResultTable table = OracleKnnTable(dataset, subspace, k);
  for (std::size_t p = 0; p < n; ++p) {
    scores[p] = table.Row(p).back().distance;
  }
  return scores;
}

/// score(p) = mean distance to the k nearest neighbors; 0 when N < 2.
inline std::vector<double> OracleMeanDistanceScores(const Dataset& dataset,
                                                    const Subspace& subspace,
                                                    std::size_t k) {
  const std::size_t n = dataset.num_objects();
  std::vector<double> scores(n, 0.0);
  if (n < 2) return scores;
  const KnnResultTable table = OracleKnnTable(dataset, subspace, k);
  for (std::size_t p = 0; p < n; ++p) {
    double sum = 0.0;
    for (const Neighbor& o : table.Row(p)) sum += o.distance;
    scores[p] = sum / static_cast<double>(table.Row(p).size());
  }
  return scores;
}

}  // namespace hics

#endif  // HICS_TESTS_SCORER_ORACLE_H_
