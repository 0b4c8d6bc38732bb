#ifndef HICS_OUTLIER_KNN_OUTLIER_H_
#define HICS_OUTLIER_KNN_OUTLIER_H_

#include <string>
#include <vector>

#include "outlier/outlier_scorer.h"

namespace hics {

/// k-distance outlier score (Ramaswamy-style): score(x) = distance to the
/// k-th nearest neighbor in the subspace. Simple, global density proxy;
/// provided as an alternative instantiation of the ranking step.
///
/// `num_threads` parallelizes the per-object kNN queries like
/// LofParams::num_threads (1 = serial, 0 = hardware concurrency); scores
/// are identical for any value.
class KnnDistanceScorer : public OutlierScorer {
 public:
  explicit KnnDistanceScorer(std::size_t k = 10, std::size_t num_threads = 1)
      : k_(k), num_threads_(num_threads) {}

  /// The n*k neighborhood table is computed through the artifact cache
  /// (ArtifactCache::ComputeKnnTable) and dropped once scored.
  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const override;

  std::string name() const override { return "knn-dist"; }

  /// k is the only score-affecting parameter.
  std::string cache_key() const override {
    return "knn-dist:k=" + std::to_string(k_);
  }

  /// Out-of-sample support (src/serve): the score is the distance to the
  /// k-th nearest *training* object, so no trained state is needed beyond
  /// the searcher.
  bool SupportsOutOfSample() const override { return true; }
  std::size_t NeighborhoodSize() const override { return k_; }
  double ScoreOutOfSample(std::span<const double> projected,
                          std::span<const Neighbor> neighbors,
                          const TrainedScorerState& state) const override;

 private:
  std::size_t k_;
  std::size_t num_threads_;
};

/// Average-kNN-distance score (Angiulli-Pizzuti style): score(x) = mean
/// distance to the k nearest neighbors. Slightly more robust than the pure
/// k-distance. `num_threads` as in KnnDistanceScorer.
class KnnAverageScorer : public OutlierScorer {
 public:
  explicit KnnAverageScorer(std::size_t k = 10, std::size_t num_threads = 1)
      : k_(k), num_threads_(num_threads) {}

  /// Neighborhood table computed through the artifact cache, as for
  /// KnnDistanceScorer.
  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const override;

  std::string name() const override { return "knn-avg"; }

  /// k is the only score-affecting parameter.
  std::string cache_key() const override {
    return "knn-avg:k=" + std::to_string(k_);
  }

  /// Out-of-sample support (src/serve): mean distance to the k nearest
  /// training objects; stateless like knn-dist.
  bool SupportsOutOfSample() const override { return true; }
  std::size_t NeighborhoodSize() const override { return k_; }
  double ScoreOutOfSample(std::span<const double> projected,
                          std::span<const Neighbor> neighbors,
                          const TrainedScorerState& state) const override;

 private:
  std::size_t k_;
  std::size_t num_threads_;
};

}  // namespace hics

#endif  // HICS_OUTLIER_KNN_OUTLIER_H_
