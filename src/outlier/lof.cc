#include "outlier/lof.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/parallel.h"
#include "index/neighbor_searcher.h"
#include "outlier/subspace_ranker.h"

namespace hics {

std::vector<double> LofScorer::ScoreSubspacePrepared(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  return FitSubspace(prepared, subspace).scores;
}

FittedSubspace LofScorer::FitSubspace(const PreparedDataset& prepared,
                                      const Subspace& subspace) const {
  const std::size_t n = prepared.num_objects();
  FittedSubspace fit;
  fit.state.channels.resize(2);
  if (n == 0) return fit;
  const std::size_t k = ClampNeighborhoodSize(params_.min_pts, n, "lof");
  const std::size_t num_threads = params_.num_threads == 0
                                      ? DefaultNumThreads()
                                      : params_.num_threads;
  // Pass 1 (the quadratic part): the n*k table through the batched
  // all-kNN engine. It is read only here, so it dies with this call.
  const KnnResultTable table =
      prepared.cache().ComputeKnnTable(subspace, k, num_threads);
  std::vector<double>& lrd = fit.state.channels[1];
  ComputeDensities(table, n, num_threads, &fit.state.channels[0], &lrd);
  fit.scores = RatiosFromDensities(table, lrd, num_threads);
  return fit;
}

void LofScorer::ComputeDensities(const KnnResultTable& table, std::size_t n,
                                 std::size_t num_threads,
                                 std::vector<double>* k_distance,
                                 std::vector<double>* lrd) const {
  k_distance->assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = table.Row(i);
    (*k_distance)[i] = row.empty() ? 0.0 : row.back().distance;
  }

  // Pass 2: local reachability densities. Reads only pass-1 output, so the
  // objects are independent and the pass parallelizes directly.
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  lrd->assign(n, 0.0);
  ParallelFor(0, n, num_threads, [&](std::size_t i) {
    const auto nbrs = table.Row(i);
    if (nbrs.empty()) {
      (*lrd)[i] = kInfinity;
      return;
    }
    double sum_reach = 0.0;
    for (const Neighbor& nb : nbrs) {
      sum_reach += std::max((*k_distance)[nb.id], nb.distance);
    }
    // All-zero reachability (duplicate points): infinite density.
    (*lrd)[i] = sum_reach > 0.0
                    ? static_cast<double>(nbrs.size()) / sum_reach
                    : kInfinity;
  });
}

std::vector<double> LofScorer::ScoreFromTable(const KnnResultTable& table,
                                              std::size_t n,
                                              std::size_t num_threads) const {
  std::vector<double> k_distance;
  std::vector<double> lrd;
  ComputeDensities(table, n, num_threads, &k_distance, &lrd);
  return RatiosFromDensities(table, lrd, num_threads);
}

std::vector<double> LofScorer::RatiosFromDensities(
    const KnnResultTable& table, const std::vector<double>& lrd,
    std::size_t num_threads) const {
  const std::size_t n = lrd.size();
  std::vector<double> scores(n, 1.0);
  constexpr double kInfinity = std::numeric_limits<double>::infinity();

  // Pass 3: LOF = mean neighbor lrd ratio; independent per object like
  // pass 2.
  ParallelFor(0, n, num_threads, [&](std::size_t i) {
    const auto nbrs = table.Row(i);
    if (nbrs.empty()) {
      scores[i] = 1.0;
      return;
    }
    if (lrd[i] == kInfinity) {
      // Duplicate-heavy neighborhoods: object is at least as dense as its
      // neighbors, LOF defined as 1 (Breunig et al. §4 duplicate handling).
      scores[i] = 1.0;
      return;
    }
    double sum_ratio = 0.0;
    std::size_t finite_terms = 0;
    for (const Neighbor& nb : nbrs) {
      if (lrd[nb.id] == kInfinity) {
        // Neighbor infinitely denser: contributes the maximal ratio; clamp
        // by skipping and using the remaining terms (conservative).
        continue;
      }
      sum_ratio += lrd[nb.id] / lrd[i];
      ++finite_terms;
    }
    scores[i] = finite_terms > 0
                    ? sum_ratio / static_cast<double>(finite_terms)
                    : 1.0;
  });
  return scores;
}

double LofScorer::ScoreOutOfSample(std::span<const double> projected,
                                   std::span<const Neighbor> neighbors,
                                   const TrainedScorerState& state) const {
  (void)projected;
  HICS_CHECK_EQ(state.channels.size(), 2u);
  const std::vector<double>& k_distance = state.channels[0];
  const std::vector<double>& lrd = state.channels[1];
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  if (neighbors.empty()) return 1.0;

  // The query's own lrd from its reachability against the trained
  // neighborhoods, then the usual mean lrd ratio — the same duplicate
  // handling as the in-sample pass 3 (infinite densities clamp to 1).
  double sum_reach = 0.0;
  for (const Neighbor& nb : neighbors) {
    HICS_DCHECK(nb.id < k_distance.size());
    sum_reach += std::max(k_distance[nb.id], nb.distance);
  }
  const double lrd_q =
      sum_reach > 0.0 ? static_cast<double>(neighbors.size()) / sum_reach
                      : kInfinity;
  if (lrd_q == kInfinity) return 1.0;
  double sum_ratio = 0.0;
  std::size_t finite_terms = 0;
  for (const Neighbor& nb : neighbors) {
    if (lrd[nb.id] == kInfinity) continue;
    sum_ratio += lrd[nb.id] / lrd_q;
    ++finite_terms;
  }
  return finite_terms > 0 ? sum_ratio / static_cast<double>(finite_terms)
                          : 1.0;
}

}  // namespace hics
