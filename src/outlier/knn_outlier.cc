#include "outlier/knn_outlier.h"

#include <algorithm>

#include "index/neighbor_searcher.h"

namespace hics {

namespace {

std::vector<double> KthDistanceFromTable(const KnnResultTable& table,
                                         std::size_t n) {
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = table.Row(i);
    scores[i] = row.empty() ? 0.0 : row.back().distance;
  }
  return scores;
}

std::vector<double> MeanDistanceFromTable(const KnnResultTable& table,
                                          std::size_t n) {
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = table.Row(i);
    if (row.empty()) continue;
    double sum = 0.0;
    for (const Neighbor& nb : row) sum += nb.distance;
    scores[i] = sum / static_cast<double>(row.size());
  }
  return scores;
}

}  // namespace

std::vector<double> KnnDistanceScorer::ScoreSubspacePrepared(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  const std::size_t n = prepared.num_objects();
  if (n < 2) return std::vector<double>(n, 0.0);
  const std::size_t k = ClampNeighborhoodSize(k_, n, name().c_str());
  return KthDistanceFromTable(
      prepared.cache().ComputeKnnTable(subspace, k, num_threads_), n);
}

double KnnDistanceScorer::ScoreOutOfSample(
    std::span<const double> projected, std::span<const Neighbor> neighbors,
    const TrainedScorerState& state) const {
  (void)projected;
  (void)state;
  return neighbors.empty() ? 0.0 : neighbors.back().distance;
}

std::vector<double> KnnAverageScorer::ScoreSubspacePrepared(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  const std::size_t n = prepared.num_objects();
  if (n < 2) return std::vector<double>(n, 0.0);
  const std::size_t k = ClampNeighborhoodSize(k_, n, name().c_str());
  return MeanDistanceFromTable(
      prepared.cache().ComputeKnnTable(subspace, k, num_threads_), n);
}

double KnnAverageScorer::ScoreOutOfSample(
    std::span<const double> projected, std::span<const Neighbor> neighbors,
    const TrainedScorerState& state) const {
  (void)projected;
  (void)state;
  if (neighbors.empty()) return 0.0;
  double sum = 0.0;
  for (const Neighbor& nb : neighbors) sum += nb.distance;
  return sum / static_cast<double>(neighbors.size());
}

}  // namespace hics
