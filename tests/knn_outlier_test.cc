#include "outlier/knn_outlier.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/prepared_dataset.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "scorer_oracle.h"

namespace hics {
namespace {

Dataset LineWithGap() {
  // Points at 0.0 .. 0.9 step 0.1 plus an isolated point at 5.0.
  Dataset ds(11, 1);
  for (std::size_t i = 0; i < 10; ++i) ds.Set(i, 0, 0.1 * (double)i);
  ds.Set(10, 0, 5.0);
  return ds;
}

TEST(KnnDistanceTest, IsolatedPointHasLargestKDistance) {
  Dataset ds = LineWithGap();
  KnnDistanceScorer scorer(2);
  const auto scores = scorer.ScoreFullSpace(ds);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_GT(scores[10], scores[i]);
  // Exact value: 2nd NN of 5.0 is 0.8 -> distance 4.2.
  EXPECT_NEAR(scores[10], 4.2, 1e-12);
}

TEST(KnnDistanceTest, InteriorPointExactValue) {
  Dataset ds = LineWithGap();
  KnnDistanceScorer scorer(2);
  const auto scores = scorer.ScoreFullSpace(ds);
  // Object 5 at 0.5: neighbors 0.4/0.6 at 0.1, 2nd NN distance 0.1.
  EXPECT_NEAR(scores[5], 0.1, 1e-12);
}

TEST(KnnAverageTest, AveragesNeighborDistances) {
  Dataset ds = LineWithGap();
  KnnAverageScorer scorer(2);
  const auto scores = scorer.ScoreFullSpace(ds);
  // Object 5: distances 0.1 and 0.1 -> mean 0.1.
  EXPECT_NEAR(scores[5], 0.1, 1e-12);
  // Object 10: distances 4.1 and 4.2 -> mean 4.15.
  EXPECT_NEAR(scores[10], 4.15, 1e-12);
}

TEST(KnnScorersTest, TinyDatasetsSafe) {
  Dataset empty(0, 1);
  Dataset one(1, 1);
  KnnDistanceScorer kdist(3);
  KnnAverageScorer kavg(3);
  EXPECT_TRUE(kdist.ScoreFullSpace(empty).empty());
  EXPECT_EQ(kdist.ScoreFullSpace(one)[0], 0.0);
  EXPECT_EQ(kavg.ScoreFullSpace(one)[0], 0.0);
}

TEST(KnnScorersTest, SubspaceRestriction) {
  Rng rng(3);
  Dataset ds(60, 2);
  for (std::size_t i = 0; i < 60; ++i) {
    ds.Set(i, 0, rng.Gaussian(0.5, 0.01));
    ds.Set(i, 1, rng.UniformDouble() * 10.0);
  }
  ds.Set(59, 0, 2.0);  // outlier in attr 0 only
  KnnDistanceScorer scorer(5);
  const auto sub = scorer.ScoreSubspace(ds, Subspace({0}));
  for (std::size_t i = 0; i < 59; ++i) EXPECT_GT(sub[59], sub[i]);
}

TEST(KnnScorersTest, Names) {
  EXPECT_EQ(KnnDistanceScorer().name(), "knn-dist");
  EXPECT_EQ(KnnAverageScorer().name(), "knn-avg");
}

TEST(KnnScorersTest, ScoresByteIdenticalWhicheverBackendResolves) {
  // N = 2000 and |S| = 8 lie in the probe band: the generator's planted
  // subspace resolves to the kd-tree and uniform data to brute force.
  // Either way every neighbor-based scorer, cold or cached, must produce
  // the oracle's scores over a brute-force table.
  const std::size_t n = 2000;
  const std::size_t k = 10;
  SyntheticParams gen;
  gen.num_objects = n;
  gen.num_attributes = 8;
  gen.min_subspace_dims = 8;
  gen.max_subspace_dims = 8;
  gen.min_clusters = 8;
  gen.max_clusters = 8;
  gen.seed = 3;
  const SyntheticDataset planted = *GenerateSynthetic(gen);
  Rng rng(29);
  Dataset uniform(n, 8);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 8; ++j) uniform.Set(i, j, rng.UniformDouble());
  }
  for (const auto& [ds, resolves_to] :
       {std::pair<const Dataset*, KnnBackend>{&planted.data,
                                              KnnBackend::kKdTree},
        std::pair<const Dataset*, KnnBackend>{&uniform,
                                              KnnBackend::kBruteForce}}) {
    const Subspace subspace = ds->FullSpace();
    ASSERT_EQ(ResolveKnnSearcher(*ds, subspace, k)->backend(), resolves_to);
    const std::vector<double> kth = OracleKthDistanceScores(*ds, subspace, k);
    const std::vector<double> mean =
        OracleMeanDistanceScores(*ds, subspace, k);
    const std::vector<double> lof_oracle = OracleLofScores(*ds, subspace, k);
    const PreparedDataset prepared(*ds);
    const KnnDistanceScorer knn_distance(k);
    const KnnAverageScorer knn_average(k);
    EXPECT_EQ(knn_distance.ScoreSubspace(*ds, subspace), kth);
    EXPECT_EQ(knn_distance.ScoreSubspaceCached(prepared, subspace), kth);
    EXPECT_EQ(knn_average.ScoreSubspace(*ds, subspace), mean);
    EXPECT_EQ(knn_average.ScoreSubspaceCached(prepared, subspace), mean);
    const LofScorer lof_auto({.min_pts = k});
    EXPECT_EQ(lof_auto.ScoreSubspace(*ds, subspace), lof_oracle);
    EXPECT_EQ(lof_auto.ScoreSubspaceCached(prepared, subspace), lof_oracle);
  }
}

}  // namespace
}  // namespace hics
