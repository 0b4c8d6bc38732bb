// Cross-scorer agreement tests: the density-based scorers share the "low
// density relative to the neighborhood" assumption (§III-A), so on clean
// single-cluster data their *rankings* must largely agree -- which is
// exactly the property that makes them interchangeable in the decoupled
// pipeline. Uses the rank-correlation utilities from eval/.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "eval/roc.h"
#include "outlier/knn_outlier.h"
#include "outlier/lof.h"
#include "rank_correlation.h"

namespace hics {
namespace {

/// One Gaussian cluster plus a ring of clear outliers.
Dataset ClusterWithOutliers(std::size_t n, std::size_t num_outliers,
                            std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, 2);
  std::vector<bool> labels(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    ds.Set(i, 0, rng.Gaussian(0.5, 0.04));
    ds.Set(i, 1, rng.Gaussian(0.5, 0.04));
  }
  for (std::size_t o = 0; o < num_outliers; ++o) {
    const std::size_t id = o * (n / num_outliers);
    const double angle =
        2.0 * 3.14159265358979 * static_cast<double>(o) /
        static_cast<double>(num_outliers);
    ds.Set(id, 0, 0.5 + 0.4 * std::cos(angle));
    ds.Set(id, 1, 0.5 + 0.4 * std::sin(angle));
    labels[id] = true;
  }
  HICS_CHECK(ds.SetLabels(labels).ok());
  return ds;
}

TEST(ScorerAgreementTest, AllScorersSeparateClearOutliers) {
  const Dataset ds = ClusterWithOutliers(400, 8, 1);
  const LofScorer lof({.min_pts = 12});
  const KnnDistanceScorer knn_dist(12);
  const KnnAverageScorer knn_avg(12);
  const OutlierScorer* scorers[] = {&lof, &knn_dist, &knn_avg};
  for (const OutlierScorer* scorer : scorers) {
    const auto scores = scorer->ScoreFullSpace(ds);
    const double auc = *ComputeAuc(scores, ds.labels());
    EXPECT_GT(auc, 0.95) << scorer->name();
  }
}

TEST(ScorerAgreementTest, KnnVariantsRankConsistently) {
  const Dataset ds = ClusterWithOutliers(300, 6, 2);
  const KnnDistanceScorer knn_dist(10);
  const KnnAverageScorer knn_avg(10);
  const auto a = knn_dist.ScoreFullSpace(ds);
  const auto b = knn_avg.ScoreFullSpace(ds);
  EXPECT_GT(*SpearmanRankCorrelation(a, b), 0.95);
  EXPECT_GT(*KendallTauB(a, b), 0.85);
}

TEST(ScorerAgreementTest, LofAgreesWithKnnOnTopOutliers) {
  const Dataset ds = ClusterWithOutliers(300, 10, 3);
  const LofScorer lof({.min_pts = 12});
  const KnnAverageScorer knn(12);
  const auto a = lof.ScoreFullSpace(ds);
  const auto b = knn.ScoreFullSpace(ds);
  // Different score scales, same top set.
  EXPECT_GE(*TopKJaccard(a, b, 10), 0.8);
}

TEST(ScorerAgreementTest, DisagreementOnLocalDensityStructure) {
  // Where LOF and global kNN-distance legitimately differ: two clusters of
  // very different density plus an outlier near the dense one. The global
  // kNN score ranks sparse-cluster members above that outlier; the LOCAL
  // scorer (LOF) does not -- the classic motivation for local density
  // ratios (Breunig et al.), worth pinning as behaviour.
  Rng rng(4);
  Dataset ds(321, 2);
  std::vector<bool> labels(321, false);
  for (std::size_t i = 0; i < 200; ++i) {  // dense cluster
    ds.Set(i, 0, rng.Gaussian(0.3, 0.01));
    ds.Set(i, 1, rng.Gaussian(0.3, 0.01));
  }
  for (std::size_t i = 200; i < 320; ++i) {  // sparse cluster
    ds.Set(i, 0, rng.Gaussian(0.8, 0.08));
    ds.Set(i, 1, rng.Gaussian(0.8, 0.08));
  }
  ds.Set(320, 0, 0.36);  // close to the dense cluster, clearly outside it
  ds.Set(320, 1, 0.36);
  labels[320] = true;
  HICS_CHECK(ds.SetLabels(labels).ok());

  const LofScorer lof({.min_pts = 10});
  const auto lof_scores = lof.ScoreFullSpace(ds);
  // LOF: the local outlier beats every sparse-cluster member.
  double max_sparse = 0.0;
  for (std::size_t i = 200; i < 320; ++i) {
    max_sparse = std::max(max_sparse, lof_scores[i]);
  }
  EXPECT_GT(lof_scores[320], max_sparse);

  const KnnDistanceScorer knn(10);
  const auto knn_scores = knn.ScoreFullSpace(ds);
  // Global kNN distance: some sparse member outranks the local outlier.
  double max_sparse_knn = 0.0;
  for (std::size_t i = 200; i < 320; ++i) {
    max_sparse_knn = std::max(max_sparse_knn, knn_scores[i]);
  }
  EXPECT_GT(max_sparse_knn, knn_scores[320]);
}

}  // namespace
}  // namespace hics
