#include "outlier/subspace_ranker.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_search.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"

namespace hics {
namespace {

TEST(AggregateTest, AverageIsElementwiseMean) {
  const std::vector<std::vector<double>> scores = {
      {1.0, 2.0, 3.0},
      {3.0, 2.0, 1.0},
  };
  const auto avg = AggregateScores(scores, ScoreAggregation::kAverage);
  EXPECT_EQ(avg, (std::vector<double>{2.0, 2.0, 2.0}));
}

TEST(AggregateTest, MaxIsElementwiseMax) {
  const std::vector<std::vector<double>> scores = {
      {1.0, 5.0, 3.0},
      {4.0, 2.0, 3.0},
  };
  const auto mx = AggregateScores(scores, ScoreAggregation::kMax);
  EXPECT_EQ(mx, (std::vector<double>{4.0, 5.0, 3.0}));
}

TEST(AggregateTest, SingleVectorPassthrough) {
  const std::vector<std::vector<double>> scores = {{1.5, 2.5}};
  EXPECT_EQ(AggregateScores(scores, ScoreAggregation::kAverage),
            scores.front());
  EXPECT_EQ(AggregateScores(scores, ScoreAggregation::kMax), scores.front());
}

TEST(AggregateDeathTest, EmptyOrRaggedInputAborts) {
  EXPECT_DEATH(AggregateScores({}, ScoreAggregation::kAverage), "");
  const std::vector<std::vector<double>> ragged = {{1.0}, {1.0, 2.0}};
  EXPECT_DEATH(AggregateScores(ragged, ScoreAggregation::kAverage), "");
}

/// Dataset with one outlier visible only in {0,1} and another only in
/// {2,3} -- the paper's "multiple roles" observation.
Dataset TwoSubspaceOutliers(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 202;
  Dataset ds(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    const double c1 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    ds.Set(i, 0, c1 + rng.Gaussian(0.0, 0.02));
    ds.Set(i, 1, c1 + rng.Gaussian(0.0, 0.02));
    const double c2 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    ds.Set(i, 2, c2 + rng.Gaussian(0.0, 0.02));
    ds.Set(i, 3, c2 + rng.Gaussian(0.0, 0.02));
  }
  // Outlier A: mixes clusters in {0,1}.
  ds.Set(200, 0, 0.25);
  ds.Set(200, 1, 0.75);
  // Outlier B: mixes clusters in {2,3}.
  ds.Set(201, 2, 0.75);
  ds.Set(201, 3, 0.25);
  return ds;
}

TEST(RankWithSubspacesTest, CumulativeScoringFindsBothOutliers) {
  Dataset ds = TwoSubspaceOutliers(7);
  LofScorer lof({.min_pts = 12});
  const std::vector<Subspace> subspaces = {Subspace({0, 1}),
                                           Subspace({2, 3})};
  const auto scores = RankWithSubspaces(PreparedDataset(ds), subspaces, lof);
  ASSERT_EQ(scores.size(), ds.num_objects());
  // Both implanted outliers must outrank every regular object.
  double max_regular = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    max_regular = std::max(max_regular, scores[i]);
  }
  EXPECT_GT(scores[200], max_regular);
  EXPECT_GT(scores[201], max_regular);
}

TEST(RankWithSubspacesTest, EmptySubspaceListFallsBackToFullSpace) {
  Dataset ds = TwoSubspaceOutliers(8);
  LofScorer lof({.min_pts = 12});
  const auto fallback =
      RankWithSubspaces(PreparedDataset(ds), std::vector<Subspace>{}, lof);
  const auto full = lof.ScoreFullSpace(ds);
  EXPECT_EQ(fallback, full);
}

TEST(RankWithSubspacesTest, ScoredOverloadIgnoresScores) {
  // The sharded and streaming ScoredSubspace overloads must rank exactly
  // like their PlainSubspaces form. Three shards and an exact-merge scorer
  // put both planes on the sharded estimator.
  const Dataset ds = TwoSubspaceOutliers(9);
  GridDensityParams params;
  params.bins_per_dim = 6;
  const GridDensityScorer grid(params);
  const std::vector<ScoredSubspace> scored = {{Subspace({0, 1}), 0.9},
                                              {Subspace({2, 3}), 0.1}};
  const std::vector<Subspace> plain = PlainSubspaces(scored);
  constexpr ScoreAggregation kAvg = ScoreAggregation::kAverage;
  constexpr ShardedScoringPolicy kExact =
      ShardedScoringPolicy::kRequireExactMerge;

  const ShardedDataset sharded(ds, 3);
  ASSERT_EQ(sharded.num_shards(), 3u);
  const auto sharded_scored =
      RankWithSubspacesSharded(sharded, scored, grid, kAvg, kExact);
  const auto sharded_plain =
      RankWithSubspacesSharded(sharded, plain, grid, kAvg, kExact);
  ASSERT_TRUE(sharded_scored.ok()) << sharded_scored.status().ToString();
  ASSERT_TRUE(sharded_plain.ok()) << sharded_plain.status().ToString();
  EXPECT_EQ(*sharded_scored, *sharded_plain);

  StreamingDataset streaming(
      ds.num_attributes(), {.capacity = ds.num_objects(), .num_shards = 3});
  std::vector<std::vector<double>> rows(ds.num_objects());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < ds.num_attributes(); ++j) {
      rows[i].push_back(ds.Get(i, j));
    }
  }
  ASSERT_TRUE(streaming.Admit(rows).ok());
  ASSERT_EQ(streaming.num_shards(), 3u);
  const auto streamed_scored =
      RankWithSubspaces(streaming, scored, grid, kAvg, kExact);
  const auto streamed_plain =
      RankWithSubspacesSharded(streaming, plain, grid, kAvg, kExact);
  ASSERT_TRUE(streamed_scored.ok()) << streamed_scored.status().ToString();
  ASSERT_TRUE(streamed_plain.ok()) << streamed_plain.status().ToString();
  EXPECT_EQ(*streamed_scored, *streamed_plain);
  EXPECT_EQ(*streamed_plain, *sharded_plain);
}

TEST(RankWithSubspacesTest, IrrelevantSubspacesDiluteTheSignal) {
  // The paper's motivation for subspace *search*: adding irrelevant
  // (uncorrelated, outlier-free) subspaces to RS blurs the ranking.
  Rng rng(11);
  Dataset ds = TwoSubspaceOutliers(10);
  // Append 8 noise attributes.
  Dataset noisy(ds.num_objects(), 12);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) noisy.Set(i, j, ds.Get(i, j));
    for (std::size_t j = 4; j < 12; ++j) noisy.Set(i, j, rng.UniformDouble());
  }
  LofScorer lof({.min_pts = 12});
  const std::vector<Subspace> relevant = {Subspace({0, 1}), Subspace({2, 3})};
  std::vector<Subspace> diluted = relevant;
  for (std::size_t j = 4; j + 1 < 12; j += 2) {
    diluted.push_back(Subspace({j, j + 1}));
  }
  const PreparedDataset prepared(noisy);
  const auto good = RankWithSubspaces(prepared, relevant, lof);
  const auto blurred = RankWithSubspaces(prepared, diluted, lof);

  auto margin = [](const std::vector<double>& scores) {
    double max_regular = 0.0;
    for (std::size_t i = 0; i < 200; ++i) {
      max_regular = std::max(max_regular, scores[i]);
    }
    return std::min(scores[200], scores[201]) - max_regular;
  };
  EXPECT_GT(margin(good), margin(blurred));
}

/// A scorer that implements the in-sample seam and nothing else in-sample:
/// its score mixes a kNN table computed through the artifact cache with a
/// lazily built rank artifact, so every entry point must route through
/// ScoreSubspacePrepared with a working PreparedDataset to reproduce it. `calls` counts computations.
class SeamOnlyScorer : public OutlierScorer {
 public:
  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared,
      const Subspace& subspace) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    const KnnResultTable table =
        prepared.cache().ComputeKnnTable(subspace, 3, 1);
    std::vector<double> scores(prepared.num_objects());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      double deviation = 0.0;
      for (std::size_t a : subspace) {
        const double d =
            prepared.ColumnSpan(a)[i] - prepared.MarginalMean(a);
        deviation += d * d;
      }
      scores[i] = table.Row(i).back().distance + deviation;
    }
    return scores;
  }
  std::string name() const override { return "seam-only"; }
  std::string cache_key() const override { return "seam-only"; }

  mutable std::atomic<int> calls{0};
};

TEST(ScorerSeamTest, PreparedOnlyScorerGivesSameBitsThroughEveryEntryPoint) {
  const Dataset ds = TwoSubspaceOutliers(12);
  const std::vector<Subspace> subspaces = {Subspace({0, 1}), Subspace({2, 3}),
                                           Subspace({0, 2, 3})};
  const SeamOnlyScorer scorer;
  std::vector<std::vector<double>> direct;
  for (const Subspace& s : subspaces) {
    direct.push_back(scorer.ScoreSubspacePrepared(PreparedDataset(ds), s));
  }

  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    const Subspace& s = subspaces[i];
    EXPECT_EQ(scorer.ScoreSubspace(ds, s), direct[i]) << s.ToString();
    const PreparedDataset prepared(ds);
    EXPECT_EQ(scorer.ScoreSubspaceCached(prepared, s), direct[i]);
    const int calls_after_cold = scorer.calls.load();
    EXPECT_EQ(scorer.ScoreSubspaceCached(prepared, s), direct[i]);
    EXPECT_EQ(scorer.calls.load(), calls_after_cold);  // served warm
    const auto checked = scorer.ScoreSubspacePreparedChecked(
        PreparedDataset(ds), s, RunContext());
    ASSERT_TRUE(checked.ok()) << checked.status().ToString();
    EXPECT_EQ(*checked, direct[i]);
  }

  const std::vector<double> aggregate =
      AggregateScores(direct, ScoreAggregation::kAverage);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(RankWithSubspaces(PreparedDataset(ds), subspaces, scorer,
                                ScoreAggregation::kAverage, threads),
              aggregate)
        << "threads=" << threads;
    const DegradedRankingResult degraded = RankWithSubspacesDegraded(
        PreparedDataset(ds), subspaces, scorer, ScoreAggregation::kAverage,
        RunContext(), threads);
    EXPECT_EQ(degraded.succeeded, subspaces.size());
    EXPECT_EQ(degraded.scores, aggregate) << "threads=" << threads;
  }
}

TEST(ChooseScoringBackendTest, GridTierTakesOverAtLargeN) {
  // Exact constants are calibration-dependent (BENCH_density_backends.json);
  // the shape invariants: the grid tier is chosen at and past its floor
  // regardless of dimensionality, and below the floor the verdicts are the
  // original kNN-band choices.
  for (std::size_t d : {1u, 2u, 4u, 8u, 16u}) {
    EXPECT_EQ(ChooseScoringBackend(32768, d), ScoringBackend::kGrid) << d;
    EXPECT_EQ(ChooseScoringBackend(1u << 20, d), ScoringBackend::kGrid) << d;
    EXPECT_NE(ChooseScoringBackend(32767, d), ScoringBackend::kGrid) << d;
  }
  EXPECT_EQ(ChooseScoringBackend(10000, 2), ScoringBackend::kKdTree);
  EXPECT_EQ(ChooseScoringBackend(10000, 8), ScoringBackend::kBruteSimd);
  EXPECT_EQ(ChooseScoringBackend(100, 2), ScoringBackend::kBruteSimd);
}

TEST(ChooseScoringBackendTest, KnnDelegationNeverReturnsGrid) {
  // A caller that needs neighbors maps the grid verdict back onto the
  // better kNN backend, so large-N kNN workloads keep their KD-tree wins.
  for (std::size_t n : {10u, 1000u, 32768u, 1u << 20}) {
    for (std::size_t d : {1u, 2u, 4u, 8u, 16u}) {
      const KnnBackend choice = ChooseKnnBackend(n, d);
      EXPECT_TRUE(choice == KnnBackend::kKdTree ||
                  choice == KnnBackend::kBruteForce)
          << "n " << n << " d " << d;
    }
  }
  EXPECT_EQ(ChooseKnnBackend(1u << 20, 2), KnnBackend::kKdTree);
  EXPECT_EQ(ChooseKnnBackend(1u << 20, 16), KnnBackend::kBruteForce);
}

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

/// The paper's generator with one planted `dims`-dimensional subspace
/// spanning every attribute, holding 8 clusters. (With the default 2-4
/// clusters an 8-D cluster of 1000+ points is itself a uniform-like 8-D
/// cloud; the probe then sends it to brute force, and rightly so — the
/// tree's win there is within 10%.)
SyntheticDataset PlantedData(std::size_t n, std::size_t dims) {
  SyntheticParams gen;
  gen.num_objects = n;
  gen.num_attributes = dims;
  gen.min_subspace_dims = dims;
  gen.max_subspace_dims = dims;
  gen.min_clusters = 8;
  gen.max_clusters = 8;
  gen.seed = 5;
  return *GenerateSynthetic(gen);
}

TEST(ResolveKnnSearcherTest, ProbeSeparatesUniformFromPlantedStructure) {
  // Same (N, |S|), opposite verdicts: uniform 8-D data defeats the
  // tree's pruning, the generator's planted 8-D clusters do not. The
  // verdict counts scanned points, so it repeats exactly.
  const std::size_t n = 4000;
  ASSERT_TRUE(InKnnProbeBand(n, 8));
  const Dataset uniform = UniformData(n, 8, 17);
  const SyntheticDataset planted = PlantedData(n, 8);
  ASSERT_EQ(planted.relevant_subspaces.size(), 1u);
  const Subspace& structured = planted.relevant_subspaces[0];
  ASSERT_EQ(structured.size(), 8u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(ResolveKnnSearcher(uniform, uniform.FullSpace(), 10)->backend(),
              KnnBackend::kBruteForce);
    EXPECT_EQ(ResolveKnnSearcher(planted.data, structured, 10)->backend(),
              KnnBackend::kKdTree);
  }
}

TEST(ResolveKnnSearcherTest, ConcreteRequestsAndOutOfBandWorkloadsSkipProbe) {
  const SyntheticDataset planted = PlantedData(4000, 8);
  const Dataset uniform = UniformData(4000, 8, 19);
  // A concrete request goes through MakeSearcher and is built as asked,
  // whatever the probe would say.
  EXPECT_EQ(MakeSearcher(planted.data, planted.data.FullSpace(),
                         KnnBackend::kBruteForce)
                ->backend(),
            KnnBackend::kBruteForce);
  EXPECT_EQ(
      MakeSearcher(uniform, uniform.FullSpace(), KnnBackend::kKdTree)
          ->backend(),
      KnnBackend::kKdTree);
  // Outside the probe band the resolution is the static verdict.
  const SyntheticDataset small = PlantedData(1000, 8);
  ASSERT_FALSE(InKnnProbeBand(1000, 8));
  EXPECT_EQ(ResolveKnnSearcher(small.data, small.data.FullSpace(), 10)
                ->backend(),
            ChooseKnnBackend(1000, 8));
  ASSERT_FALSE(InKnnProbeBand(4000, 3));
  EXPECT_EQ(ResolveKnnSearcher(uniform, Subspace({0, 4, 7}), 10)->backend(),
            ChooseKnnBackend(4000, 3));
}

}  // namespace
}  // namespace hics
