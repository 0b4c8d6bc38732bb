#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/roc.h"
#include "outlier/knn_outlier.h"
#include "outlier/lof.h"

namespace hics {
namespace {

Result<SyntheticDataset> BenchmarkData(std::uint64_t seed) {
  SyntheticParams gen;
  gen.num_objects = 500;
  gen.num_attributes = 10;
  gen.min_subspace_dims = 2;
  gen.max_subspace_dims = 3;
  gen.seed = seed;
  return GenerateSynthetic(gen);
}

TEST(PipelineTest, EndToEndBeatsFullSpaceLof) {
  auto data = BenchmarkData(31);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 50;
  params.output_top_k = 20;
  LofScorer lof({.min_pts = 10});

  auto pipeline = RunHicsPipeline(data->data, params, lof);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_EQ(pipeline->scores.size(), data->data.num_objects());
  ASSERT_FALSE(pipeline->subspaces.empty());

  const double hics_auc =
      *ComputeAuc(pipeline->scores, data->data.labels());
  const double lof_auc =
      *ComputeAuc(lof.ScoreFullSpace(data->data), data->data.labels());
  EXPECT_GT(hics_auc, 0.8);
  EXPECT_GT(hics_auc, lof_auc);
}

TEST(PipelineTest, PropagatesSearchErrors) {
  Dataset degenerate(100, 1);
  LofScorer lof;
  auto result = RunHicsPipeline(degenerate, HicsParams{}, lof);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, PropagatesParamErrors) {
  auto data = BenchmarkData(32);
  ASSERT_TRUE(data.ok());
  HicsParams bad;
  bad.alpha = 2.0;
  LofScorer lof;
  EXPECT_FALSE(RunHicsPipeline(data->data, bad, lof).ok());
}

TEST(PipelineTest, WorksWithAlternativeScorers) {
  // The decoupling claim: any density-based scorer plugs into step 2.
  auto data = BenchmarkData(33);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 40;
  params.output_top_k = 15;

  const KnnDistanceScorer knn_dist(10);
  const KnnAverageScorer knn_avg(10);
  auto r1 = RunHicsPipeline(data->data, params, knn_dist);
  auto r2 = RunHicsPipeline(data->data, params, knn_avg);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(*ComputeAuc(r1->scores, data->data.labels()), 0.7);
  EXPECT_GT(*ComputeAuc(r2->scores, data->data.labels()), 0.7);
}

TEST(PipelineTest, MaxAggregationAvailable) {
  auto data = BenchmarkData(34);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 40;
  params.output_top_k = 15;
  LofScorer lof({.min_pts = 10});
  auto avg = RunHicsPipeline(data->data, params, lof, {},
                             ScoreAggregation::kAverage);
  auto mx =
      RunHicsPipeline(data->data, params, lof, {}, ScoreAggregation::kMax);
  ASSERT_TRUE(avg.ok() && mx.ok());
  // Max aggregation dominates average pointwise.
  for (std::size_t i = 0; i < avg->scores.size(); ++i) {
    EXPECT_GE(mx->scores[i], avg->scores[i] - 1e-12);
  }
}

TEST(RankingFromScoresTest, SortsDescendingWithStableTies) {
  const std::vector<double> scores = {0.5, 2.0, 1.0, 2.0};
  const auto ranking = RankingFromScores(scores);
  EXPECT_EQ(ranking, (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(RankingFromScoresTest, EmptyInput) {
  EXPECT_TRUE(RankingFromScores({}).empty());
}

}  // namespace
}  // namespace hics
