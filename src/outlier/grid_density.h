#ifndef HICS_OUTLIER_GRID_DENSITY_H_
#define HICS_OUTLIER_GRID_DENSITY_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/grid.h"
#include "common/status.h"
#include "outlier/outlier_scorer.h"

namespace hics {

struct GridDensityParams {
  /// Equi-width bins per subspace axis.
  std::size_t bins_per_dim = 16;
  /// Von Neumann smoothing: a point's density is its cell count plus the
  /// 2|S| face-adjacent cells', damping bin-edge discretization at the
  /// cost of 2|S| extra O(1) probes per point.
  bool smooth = false;
  /// Parallelism of the binning/gather passes (1 = serial, 0 = hardware
  /// concurrency); never changes scores.
  std::size_t num_threads = 1;
};

/// O(N) histogram density scorer — the third scoring backend tier. One
/// pass bins every projected point into the equi-width SubspaceGrid
/// (src/cluster/grid.h), a point's density estimate f_i is its cell's
/// occupancy (optionally neighbor-smoothed), and its score is the
/// Z-score of *sparsity*:
///
///   score_i = (mean(f) - f_i) / stddev(f)
///
/// Points in sparse cells score high. The Z-standardization is the
/// dimensionality normalization (after arXiv 2004.13550): raw occupancy
/// shrinks as bins^|S| grows, but standardized scores stay comparable
/// across subspaces of different dimensionality — exactly what
/// HiCS-style averaging across subspaces needs.
///
/// Complexity: O(N·|S|) fit, O(1) per in-sample point, O(|S| + log C)
/// per out-of-sample query (C = occupied cells) — no neighbor search
/// anywhere, which is why the backend chooser hands large-N subspaces to
/// this tier (ChooseScoringBackend, bench_density_backends).
///
/// Determinism: binning runs the canonical SIMD bin_index kernel, the
/// moments run the canonical sum/sum_sq_dev kernels, and cell counts are
/// exact integers, so scores are bit-identical across SIMD tiers, thread
/// counts, dense/sparse grid layouts, and cache states.
class GridDensityScorer : public OutlierScorer {
 public:
  /// Trained-state channel layout (FitSubspace):
  ///   0: meta [dims, bins, smooth, total, mean, sigma, lo..., width...]
  ///   1: occupied cell keys, ascending, as (low32, high32) double pairs
  ///   2: occupied cell counts, aligned with channel 1
  static constexpr std::size_t kStateChannels = 3;

  explicit GridDensityScorer(const GridDensityParams& params = {});

  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const override;

  /// Exact histogram merge (DESIGN.md §5i): every shard builds its grid
  /// against the sharded plane's GLOBAL attribute ranges, so per-point
  /// cell keys match the unsharded grid's; the per-shard cell counts are
  /// then summed (SubspaceGrid::MergeShards) and the usual
  /// gather/moments/Z-score pass runs over the full dataset. Cell counts
  /// are additive integers, so the result is bit-identical to
  /// ScoreSubspacePrepared on the full dataset for any shard count.
  bool SupportsExactShardedMerge() const override { return true; }
  std::vector<double> ScoreSubspaceSharded(
      const ShardPlane& sharded, const Subspace& subspace) const override;

  std::string cache_key() const override;

  /// Out-of-sample support without neighbors (NeighborhoodSize() stays
  /// 0): a query is binned into the trained histogram and scored from its
  /// cell count and the training moments, O(|S| + log C).
  bool SupportsOutOfSample() const override { return true; }

  /// Scores and state from the one cached grid ScoreSubspacePrepared
  /// reads: the scores equal ScoreSubspacePrepared's bit for bit.
  FittedSubspace FitSubspace(const PreparedDataset& prepared,
                             const Subspace& subspace) const override;

  double ScoreOutOfSample(std::span<const double> projected,
                          std::span<const Neighbor> neighbors,
                          const TrainedScorerState& state) const override;

  /// Structural validation of a deserialized trained state for a
  /// `dims`-attribute subspace over `num_objects` training objects:
  /// channel count/lengths, ascending keys, positive counts summing to
  /// the training total, finite meta. The serving layer calls this on
  /// load so a tampered or truncated model file fails closed.
  static Status ValidateTrainedState(const TrainedScorerState& state,
                                     std::size_t dims,
                                     std::size_t num_objects);

  std::string name() const override { return "grid-density"; }

  const GridDensityParams& params() const { return params_; }

 private:
  /// The keyless grid of `subspace` over `dataset`, binned against
  /// `ranges` (whose bits `grid_key` encodes), from `cache` or built and
  /// published there.
  std::shared_ptr<const SubspaceGrid> CachedGrid(
      ArtifactCache& cache, const std::string& grid_key,
      const Dataset& dataset, const Subspace& subspace,
      std::span<const std::pair<double, double>> ranges) const;

  /// The keyless grid of `subspace` binned against `prepared`'s attribute
  /// ranges, through CachedGrid.
  std::shared_ptr<const SubspaceGrid> PreparedGrid(
      const PreparedDataset& prepared, const Subspace& subspace) const;

  std::vector<double> ScoreWithGrid(const Dataset& dataset,
                                    const Subspace& subspace,
                                    const SubspaceGrid& grid) const;

  /// (mean - density) / sigma per object; all zero when sigma is not
  /// positive.
  static std::vector<double> ZScores(const std::vector<double>& density,
                                     double mean, double sigma);

  GridDensityParams params_;
};

}  // namespace hics

#endif  // HICS_OUTLIER_GRID_DENSITY_H_
