#ifndef HICS_OUTLIER_LOF_H_
#define HICS_OUTLIER_LOF_H_

#include <string>
#include <vector>

#include "index/neighbor_searcher.h"
#include "outlier/outlier_scorer.h"

namespace hics {

/// LOF configuration.
struct LofParams {
  /// Neighborhood size (the paper's MinPts). Breunig et al. recommend
  /// 10-50; the experiments here use one shared value for all competitors,
  /// as the paper requires for comparability.
  std::size_t min_pts = 10;
  /// Worker threads for the kNN pass (the quadratic part). 1 = serial,
  /// 0 = hardware concurrency. Scores are identical for any value.
  std::size_t num_threads = 1;
};

/// Local Outlier Factor (Breunig et al., SIGMOD 2000), restricted to an
/// arbitrary subspace as proposed by Lazarevic & Kumar (feature bagging)
/// and used by the HiCS paper.
///
/// LOF(p) = mean_{o in N_k(p)} lrd(o) / lrd(p) where
/// lrd(p) = 1 / mean_{o in N_k(p)} reach-dist_k(p, o) and
/// reach-dist_k(p, o) = max(k-distance(o), d(p, o)).
/// Scores near 1 mean inlier; larger means stronger local density drop.
///
/// Neighborhoods come from the searcher ResolveKnnSearcher picks per
/// subspace, queried through the batched all-kNN engine; every backend
/// returns identical tables, so only the wall clock depends on the pick.
class LofScorer : public OutlierScorer {
 public:
  explicit LofScorer(LofParams params = {}) : params_(params) {}

  /// FitSubspace's scores: the n*k neighborhood table is computed through
  /// `prepared`'s artifact cache (which serves a shelved searcher or
  /// resolves one it does not keep), then the pass-2/3 density math of
  /// ScoreFromTable runs over it. Bit-identical for every backend, thread
  /// count and cache state.
  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const override;

  std::string name() const override { return "lof"; }

  /// MinPts is the only score-affecting parameter; the thread count is a
  /// perf knob pinned bit-identical by the kNN engine tests.
  std::string cache_key() const override {
    return "lof:minpts=" + std::to_string(params_.min_pts);
  }

  /// Out-of-sample support (src/serve): the trained state stores every
  /// training object's k-distance and lrd, and a query is scored as
  /// LOF(q) = mean_{o in N_k(q)} lrd(o) / lrd(q) with lrd(q) derived from
  /// the query's reachability against the trained neighborhoods — the
  /// standard novelty-detection LOF extension. Duplicate/degenerate
  /// handling mirrors the in-sample path (infinite densities clamp to 1).
  bool SupportsOutOfSample() const override { return true; }
  std::size_t NeighborhoodSize() const override { return params_.min_pts; }
  /// One kNN table yields both halves: the state [k_distance, lrd] is
  /// the pass-1/2 output the pass-3 scores are computed from.
  FittedSubspace FitSubspace(const PreparedDataset& prepared,
                             const Subspace& subspace) const override;
  double ScoreOutOfSample(std::span<const double> projected,
                          std::span<const Neighbor> neighbors,
                          const TrainedScorerState& state) const override;

  const LofParams& params() const { return params_; }

  /// Passes 2-3 (lrd + LOF ratio) over an already-computed neighborhood
  /// table of `n` rows; public so a table from any source (e.g. the
  /// per-query reference table of tests/knn_oracle.h) can be scored
  /// directly.
  std::vector<double> ScoreFromTable(const KnnResultTable& table,
                                     std::size_t n,
                                     std::size_t num_threads) const;

 private:
  /// Passes 1-2 (k-distance + lrd); FitSubspace keeps them as the
  /// trained state, so it is bit-identical to the densities the
  /// in-sample score used.
  void ComputeDensities(const KnnResultTable& table, std::size_t n,
                        std::size_t num_threads,
                        std::vector<double>* k_distance,
                        std::vector<double>* lrd) const;

  /// Pass 3: each object's mean neighbor lrd ratio.
  std::vector<double> RatiosFromDensities(const KnnResultTable& table,
                                          const std::vector<double>& lrd,
                                          std::size_t num_threads) const;

  LofParams params_;
};

}  // namespace hics

#endif  // HICS_OUTLIER_LOF_H_
