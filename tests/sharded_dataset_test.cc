#include "engine/sharded_dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "common/run_context.h"
#include "core/contrast_matrix.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"
#include "serve/model_io.h"

namespace hics {
namespace {

Dataset ClusteredDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.Bernoulli(0.5) ? 0.3 : 0.7;
    for (std::size_t a = 0; a < d; ++a) {
      const double v = a < 2 ? c + rng.Gaussian(0.0, 0.03)
                             : rng.UniformDouble();
      ds.Set(i, a, v);
    }
  }
  return ds;
}

void ExpectSameScored(const std::vector<ScoredSubspace>& a,
                      const std::vector<ScoredSubspace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subspace, b[i].subspace) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameScoredBits(const std::vector<ScoredSubspace>& a,
                          const std::vector<ScoredSubspace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subspace, b[i].subspace) << "rank " << i;
    EXPECT_TRUE(SameBits(a[i].score, b[i].score))
        << "rank " << i << ": " << a[i].score << " vs " << b[i].score;
  }
}

void ExpectSameStats(const HicsRunStats& a, const HicsRunStats& b) {
  EXPECT_EQ(a.contrast_evaluations, b.contrast_evaluations);
  EXPECT_EQ(a.levels_processed, b.levels_processed);
  EXPECT_EQ(a.max_level_reached, b.max_level_reached);
  EXPECT_EQ(a.pruned_redundant, b.pruned_redundant);
  EXPECT_EQ(a.cutoff_applications, b.cutoff_applications);
  EXPECT_EQ(a.failed_contrast_evaluations, b.failed_contrast_evaluations);
  EXPECT_EQ(a.failed_shard_evaluations, b.failed_shard_evaluations);
  EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
  EXPECT_EQ(a.cancelled, b.cancelled);
}

void ExpectSameMatrixBits(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_TRUE(SameBits(a(i, j), b(i, j)))
          << "(" << i << "," << j << "): " << a(i, j) << " vs " << b(i, j);
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioning

TEST(ShardedDatasetTest, PartitionIsContiguousAndCoversEveryRow) {
  const Dataset ds = ClusteredDataset(103, 4, 3);
  const ShardedDataset sharded(ds, 4);
  ASSERT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.num_objects(), ds.num_objects());
  EXPECT_EQ(sharded.num_attributes(), ds.num_attributes());

  std::size_t covered = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const std::size_t begin = sharded.shard_begin(s);
    const std::size_t size = sharded.shard_size(s);
    EXPECT_EQ(begin, covered);  // contiguous blocks, in order
    EXPECT_EQ(sharded.shard(s).num_objects(), size);
    // Shard rows are the dataset's rows [begin, begin + size), bitwise.
    for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
      const auto& column = sharded.shard(s).dataset().Column(a);
      for (std::size_t i = 0; i < size; ++i) {
        EXPECT_EQ(column[i], ds.Column(a)[begin + i]);
      }
    }
    covered += size;
  }
  EXPECT_EQ(covered, ds.num_objects());
}

TEST(ShardedDatasetTest, ShardCountIsClampedForTinyDatasets) {
  const Dataset ds = ClusteredDataset(5, 3, 5);
  const ShardedDataset sharded(ds, 8);
  // Every shard keeps at least two rows: effective count is
  // min(requested, max(1, n / 2)).
  EXPECT_EQ(sharded.num_shards(), 2u);
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_GE(sharded.shard_size(s), 2u);
  }
}

TEST(ShardedDatasetTest, GlobalRangesMatchTheUnshardedPreparedRanges) {
  const Dataset ds = ClusteredDataset(90, 5, 7);
  const ShardedDataset sharded(ds, 3);
  const PreparedDataset prepared(ds);
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    const auto global = sharded.GlobalAttributeRange(a);
    const auto reference = prepared.AttributeRange(a);
    EXPECT_EQ(global.first, reference.first) << "attribute " << a;
    EXPECT_EQ(global.second, reference.second) << "attribute " << a;
  }
}

TEST(ShardedDatasetTest, BuildThreadsDoNotChangeThePartition) {
  const Dataset ds = ClusteredDataset(120, 4, 9);
  const ShardedDataset serial(ds, 4, /*build_threads=*/1);
  const ShardedDataset parallel(ds, 4, /*build_threads=*/4);
  ASSERT_EQ(serial.num_shards(), parallel.num_shards());
  for (std::size_t s = 0; s < serial.num_shards(); ++s) {
    EXPECT_EQ(serial.shard_begin(s), parallel.shard_begin(s));
    EXPECT_EQ(serial.shard_size(s), parallel.shard_size(s));
  }
}

TEST(ShardedStreamTest, ShardStreamsAreDistinctAndDeterministic) {
  const std::uint64_t seed = 42;
  const std::uint64_t hash = 0x123456789abcdef0ULL;
  EXPECT_EQ(ShardStreamSeed(seed, hash, 0), ShardStreamSeed(seed, hash, 0));
  EXPECT_NE(ShardStreamSeed(seed, hash, 0), ShardStreamSeed(seed, hash, 1));
  EXPECT_NE(ShardStreamSeed(seed, hash, 1), ShardStreamSeed(seed, hash, 2));
  EXPECT_NE(ShardStreamSeed(seed, hash, 0),
            ShardStreamSeed(seed + 1, hash, 0));
  EXPECT_NE(ShardStreamSeed(seed, hash, 0),
            ShardStreamSeed(seed, hash + 1, 0));
}

TEST(ShardedStreamTest, ShardIterationsSplitTheBudget) {
  // M >= S: the per-shard slices sum to exactly M, remainder to the
  // leading shards.
  EXPECT_EQ(ShardIterations(50, 4, 0), 13u);
  EXPECT_EQ(ShardIterations(50, 4, 1), 13u);
  EXPECT_EQ(ShardIterations(50, 4, 2), 12u);
  EXPECT_EQ(ShardIterations(50, 4, 3), 12u);
  std::size_t sum = 0;
  for (std::size_t s = 0; s < 4; ++s) sum += ShardIterations(50, 4, s);
  EXPECT_EQ(sum, 50u);
  // M < S: every shard still runs at least one iteration.
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(ShardIterations(3, 8, s), 1u);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity of the sharded contrast / search paths

TEST(ShardedContrastMatrixTest, BitIdenticalAcrossThreadCountsAndRuns) {
  const Dataset ds = ClusteredDataset(150, 4, 11);
  const ShardedDataset sharded(ds, 3);
  ContrastMatrixParams params;
  params.contrast.num_iterations = 15;

  params.num_threads = 1;
  const auto reference = ComputeContrastMatrix(sharded, params);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    params.num_threads = threads;
    const auto matrix = ComputeContrastMatrix(sharded, params);
    ASSERT_TRUE(matrix.ok());
    for (std::size_t i = 0; i < ds.num_attributes(); ++i) {
      for (std::size_t j = 0; j < ds.num_attributes(); ++j) {
        EXPECT_EQ((*reference)(i, j), (*matrix)(i, j))
            << "threads=" << threads << " (" << i << "," << j << ")";
      }
    }
  }
  // Repeated runs on the same sharded plane are identical too.
  const auto again = ComputeContrastMatrix(sharded, params);
  ASSERT_TRUE(again.ok());
  for (std::size_t i = 0; i < ds.num_attributes(); ++i) {
    for (std::size_t j = 0; j < ds.num_attributes(); ++j) {
      EXPECT_EQ((*reference)(i, j), (*again)(i, j));
    }
  }
}

TEST(ShardedSearchTest, BitIdenticalAcrossThreadCounts) {
  const Dataset ds = ClusteredDataset(180, 5, 13);
  const ShardedDataset sharded(ds, 4);
  HicsParams params;
  params.num_iterations = 20;
  params.output_top_k = 12;

  params.num_threads = 1;
  const auto reference = RunHicsSearch(sharded, params);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());
  // Many more workers than (subspace, shard) tasks per level maximizes
  // completion-order shuffling; the serial shard-ordinal merge must keep
  // the result bitwise stable anyway.
  for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                              std::size_t{16}}) {
    params.num_threads = threads;
    const auto scored = RunHicsSearch(sharded, params);
    ASSERT_TRUE(scored.ok());
    ExpectSameScored(*reference, *scored);
  }
}

TEST(ShardedSearchTest, RebuildingThePlaneReproducesTheSearch) {
  const Dataset ds = ClusteredDataset(140, 4, 15);
  HicsParams params;
  params.num_iterations = 15;
  const ShardedDataset first(ds, 3);
  const ShardedDataset second(ds, 3, /*build_threads=*/4);
  const auto a = RunHicsSearch(first, params);
  const auto b = RunHicsSearch(second, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameScored(*a, *b);
}

TEST(ShardedSearchTest, ShardCountIsPartOfTheEstimator) {
  // Different shard counts are different estimators: same data, same
  // seed, different partitions => (in general) different scores. Pinning
  // this prevents a regression where the shard dimension is silently
  // ignored.
  const Dataset ds = ClusteredDataset(160, 4, 17);
  HicsParams params;
  params.num_iterations = 20;
  const auto two = RunHicsSearch(ShardedDataset(ds, 2), params);
  const auto four = RunHicsSearch(ShardedDataset(ds, 4), params);
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(four.ok());
  bool any_difference = two->size() != four->size();
  for (std::size_t i = 0; !any_difference && i < two->size(); ++i) {
    any_difference = (*two)[i].subspace != (*four)[i].subspace ||
                     (*two)[i].score != (*four)[i].score;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ShardedSearchTest, OneShardPlaneIsTheUnshardedEstimator) {
  // A one-shard plane, requested or clamped, searches and scores the
  // contrast matrix exactly like the PreparedDataset over the same rows.
  const Dataset ds = ClusteredDataset(200, 4, 37);
  const Dataset tiny = ClusteredDataset(3, 3, 39);
  const ShardedDataset one(ds, 1);
  const ShardedDataset clamped(tiny, 4);
  ASSERT_EQ(one.num_shards(), 1u);
  ASSERT_EQ(clamped.num_shards(), 1u);
  const PreparedDataset prepared(ds);
  const PreparedDataset tiny_prepared(tiny);
  const std::vector<std::pair<const ShardPlane*, const PreparedDataset*>>
      cases = {{&one, &prepared}, {&clamped, &tiny_prepared}};

  for (const char* test : {"welch", "ks", "cvm"}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const auto& [sharded, unsharded] : cases) {
        SCOPED_TRACE(std::string(test) + " threads=" +
                     std::to_string(threads) + " N=" +
                     std::to_string(sharded->num_objects()));
        HicsParams params;
        params.num_iterations = 20;
        params.output_top_k = 10;
        params.statistical_test = test;
        params.num_threads = threads;
        HicsRunStats sharded_stats;
        HicsRunStats unsharded_stats;
        const auto a = RunHicsSearch(*sharded, params, {}, &sharded_stats);
        const auto b =
            RunHicsSearch(*unsharded, params, {}, &unsharded_stats);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_FALSE(a->empty());
        ExpectSameScoredBits(*a, *b);
        ExpectSameStats(sharded_stats, unsharded_stats);

        ContrastMatrixParams matrix_params;
        matrix_params.contrast.num_iterations = 20;
        matrix_params.statistical_test = test;
        matrix_params.num_threads = threads;
        const auto m = ComputeContrastMatrix(*sharded, matrix_params);
        const auto n = ComputeContrastMatrix(*unsharded, matrix_params);
        ASSERT_TRUE(m.ok());
        ASSERT_TRUE(n.ok());
        ExpectSameMatrixBits(*m, *n);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact histogram merge

TEST(ShardedGridScoringTest, MergedGridScoresMatchUnshardedByteForByte) {
  const Dataset ds = ClusteredDataset(400, 5, 19);
  const PreparedDataset prepared(ds);
  const std::vector<Subspace> subspaces = {
      Subspace{0, 1}, Subspace{2, 3}, Subspace{0, 2, 4}};
  for (const bool smooth : {false, true}) {
    const GridDensityScorer grid({.bins_per_dim = 12, .smooth = smooth});
    const std::vector<double> reference =
        RankWithSubspaces(prepared, subspaces, grid);
    for (std::size_t shards : {std::size_t{2}, std::size_t{3},
                               std::size_t{5}}) {
      const ShardedDataset sharded(ds, shards);
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto scores = RankWithSubspacesSharded(
            sharded, subspaces, grid, ScoreAggregation::kAverage,
            ShardedScoringPolicy::kRequireExactMerge, threads);
        ASSERT_TRUE(scores.ok());
        EXPECT_EQ(*scores, reference)
            << "smooth=" << smooth << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded scoring policy for non-merging scorers

TEST(ShardedScoringPolicyTest, ExactMergeRequirementRejectsKnnScorers) {
  const Dataset ds = ClusteredDataset(120, 4, 21);
  const ShardedDataset sharded(ds, 2);
  const LofScorer lof({.min_pts = 8});
  const auto result = RankWithSubspacesSharded(
      sharded, {Subspace{0, 1}}, lof, ScoreAggregation::kAverage,
      ShardedScoringPolicy::kRequireExactMerge);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("lof"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("kAllowApproximation"),
            std::string::npos)
      << result.status().message();
}

TEST(ShardedScoringPolicyTest, OneShardPlaneNeedsNoConsent) {
  // One shard is exact for every scorer: LOF ranks a one-shard plane under
  // kRequireExactMerge, byte for byte like the prepared ranking.
  const Dataset ds = ClusteredDataset(120, 4, 43);
  const Dataset tiny = ClusteredDataset(3, 3, 45);
  const LofScorer lof({.min_pts = 8});
  for (const auto& [data, requested] :
       {std::pair<const Dataset*, std::size_t>{&ds, 1},
        std::pair<const Dataset*, std::size_t>{&tiny, 4}}) {
    const ShardedDataset sharded(*data, requested);
    ASSERT_EQ(sharded.num_shards(), 1u);
    const PreparedDataset prepared(*data);
    for (const std::vector<Subspace>& subspaces :
         {std::vector<Subspace>{Subspace{0, 1}, Subspace{1, 2}},
          std::vector<Subspace>{}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto scores = RankWithSubspacesSharded(
            sharded, subspaces, lof, ScoreAggregation::kAverage,
            ShardedScoringPolicy::kRequireExactMerge, threads);
        ASSERT_TRUE(scores.ok()) << scores.status().message();
        const std::vector<double> expected = RankWithSubspaces(
            prepared, subspaces, lof, ScoreAggregation::kAverage, threads);
        ASSERT_EQ(scores->size(), expected.size());
        EXPECT_EQ(std::memcmp(scores->data(), expected.data(),
                              expected.size() * sizeof(double)),
                  0)
            << "N=" << data->num_objects() << " threads=" << threads
            << " subspaces=" << subspaces.size();
      }
    }
  }
}

TEST(ShardedScoringPolicyTest, ApproximationConcatenatesPerShardScores) {
  const Dataset ds = ClusteredDataset(150, 4, 23);
  const ShardedDataset sharded(ds, 3);
  const LofScorer lof({.min_pts = 8});
  const Subspace subspace{0, 1};

  // The documented per-shard approximation: each shard scored against its
  // own rows only, results concatenated in shard (= object id) order.
  std::vector<double> expected;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const std::vector<double> shard_scores =
        lof.ScoreSubspacePrepared(sharded.shard(s), subspace);
    expected.insert(expected.end(), shard_scores.begin(),
                    shard_scores.end());
  }

  const auto scores = RankWithSubspacesSharded(
      sharded, {subspace}, lof, ScoreAggregation::kAverage,
      ShardedScoringPolicy::kAllowApproximation);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(*scores, expected);
}

// ---------------------------------------------------------------------------
// Degraded shards

TEST(ShardedDegradedSearchTest, PoisonedShardRenormalizesIdentically) {
  const Dataset ds = ClusteredDataset(160, 4, 25);
  const ShardedDataset sharded(ds, 3);
  HicsParams params;
  params.num_iterations = 15;

  std::vector<std::vector<ScoredSubspace>> runs;
  std::vector<HicsRunStats> stats_runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    params.num_threads = threads;
    FaultInjector injector;
    // "shard.contrast" is probed with the bare shard ordinal, so arming
    // call 2 poisons shard 1 on every subspace of every level.
    injector.FailNthCall("shard.contrast", 2, Status::Internal("injected"));
    RunContext ctx;
    ctx.SetFaultInjector(&injector);
    HicsRunStats stats;
    const auto scored = RunHicsSearch(sharded, params, ctx, &stats);
    ASSERT_TRUE(scored.ok());
    ASSERT_FALSE(scored->empty());
    // Every evaluated subspace lost exactly its shard-1 slot.
    EXPECT_EQ(stats.failed_shard_evaluations,
              stats.contrast_evaluations);
    EXPECT_EQ(stats.failed_contrast_evaluations, 0u);
    runs.push_back(*scored);
    stats_runs.push_back(stats);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ExpectSameScored(runs[0], runs[r]);
    EXPECT_EQ(stats_runs[0].failed_shard_evaluations,
              stats_runs[r].failed_shard_evaluations);
  }

  // The degraded result differs from the healthy one: the surviving
  // shards' weighted average is a different estimate.
  params.num_threads = 1;
  const auto healthy = RunHicsSearch(sharded, params);
  ASSERT_TRUE(healthy.ok());
  bool any_difference = healthy->size() != runs[0].size();
  for (std::size_t i = 0; !any_difference && i < healthy->size(); ++i) {
    any_difference = (*healthy)[i].subspace != runs[0][i].subspace ||
                     (*healthy)[i].score != runs[0][i].score;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ShardedDegradedSearchTest, AllShardsPoisonedFailsEverySubspace) {
  const Dataset ds = ClusteredDataset(120, 4, 27);
  const ShardedDataset sharded(ds, 2);
  HicsParams params;
  params.num_iterations = 10;

  FaultInjector injector;
  injector.FailNthCall("shard.contrast", 1, Status::Internal("injected"));
  injector.FailNthCall("shard.contrast", 2, Status::Internal("injected"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);
  HicsRunStats stats;
  const auto scored = RunHicsSearch(sharded, params, ctx, &stats);
  ASSERT_TRUE(scored.ok());
  EXPECT_TRUE(scored->empty());
  // All six 2D subspaces of a 4-attribute dataset failed wholesale; no
  // level-3 candidates were generated.
  EXPECT_EQ(stats.failed_contrast_evaluations, 6u);
  EXPECT_EQ(stats.contrast_evaluations, 0u);
}

TEST(ShardedDegradedSearchTest, SingleEstimateFaultIsIsolatedPerShard) {
  const Dataset ds = ClusteredDataset(140, 4, 29);
  const ShardedDataset sharded(ds, 3);
  HicsParams params;
  params.num_iterations = 12;

  std::vector<std::vector<ScoredSubspace>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    params.num_threads = threads;
    FaultInjector injector;
    // "contrast.estimate" ordinals are shard-major: ordinal 5 is subspace
    // 1's shard-1 slot at level 2. Exactly that one slot drops out.
    injector.FailNthCall("contrast.estimate", 5,
                         Status::Internal("injected"));
    RunContext ctx;
    ctx.SetFaultInjector(&injector);
    HicsRunStats stats;
    const auto scored = RunHicsSearch(sharded, params, ctx, &stats);
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(stats.failed_shard_evaluations, 1u);
    EXPECT_EQ(stats.failed_contrast_evaluations, 0u);
    runs.push_back(*scored);
  }
  ExpectSameScored(runs[0], runs[1]);
}

TEST(ShardedDegradedSearchTest, OneShardPlaneFaultsLikeTheUnshardedSearch) {
  // On one shard the estimate ordinal is the unsharded one, and the
  // "shard.contrast" site is never probed: a failed estimate drops the
  // same subspace from both planes and is tallied as a failed contrast
  // evaluation, never as a failed shard.
  const Dataset ds = ClusteredDataset(160, 4, 41);
  const ShardedDataset one(ds, 1);
  const PreparedDataset prepared(ds);
  HicsParams params;
  params.num_iterations = 15;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    params.num_threads = threads;
    for (std::uint64_t k : {1u, 4u, 9u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " k=" + std::to_string(k));
      std::vector<std::vector<ScoredSubspace>> results;
      std::vector<HicsRunStats> stats_runs;
      const auto run = [&](const auto& plane) {
        FaultInjector injector;
        injector.FailNthCall("contrast.estimate", k,
                             Status::Internal("injected"));
        injector.FailNthCall("shard.contrast", 1,
                             Status::Internal("injected"));
        RunContext ctx;
        ctx.SetFaultInjector(&injector);
        HicsRunStats stats;
        const auto scored = RunHicsSearch(plane, params, ctx, &stats);
        ASSERT_TRUE(scored.ok());
        EXPECT_EQ(injector.FiredCount("contrast.estimate"), 1u);
        EXPECT_EQ(injector.FiredCount("shard.contrast"), 0u);
        EXPECT_EQ(stats.failed_contrast_evaluations, 1u);
        EXPECT_EQ(stats.failed_shard_evaluations, 0u);
        results.push_back(*scored);
        stats_runs.push_back(stats);
      };
      run(one);
      run(prepared);
      ASSERT_EQ(results.size(), 2u);
      ExpectSameScoredBits(results[0], results[1]);
      ExpectSameStats(stats_runs[0], stats_runs[1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Model fit integration

TEST(ShardedModelFitTest, ShardedFitServesAndRoundTripsNumShards) {
  const Dataset ds = ClusteredDataset(200, 4, 31);
  HicsModelConfig config;
  config.search_params.num_iterations = 15;
  config.search_params.output_top_k = 6;
  config.scorer = {ScorerKind::kGridDensity, 8};
  config.num_shards = 2;

  const auto model = HicsModel::Fit(ds, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->config().num_shards, 2u);
  ASSERT_FALSE(model->subspaces().empty());

  // Training scores are computed on the full dataset regardless of the
  // shard knob, so rescoring reproduces them bitwise.
  const auto rescored = model->RescoreTrainingSet();
  ASSERT_TRUE(rescored.ok());
  EXPECT_EQ(*rescored, model->training_scores());

  // num_shards survives serialization (format v2).
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(*model);
  const auto restored = DeserializeHicsModel(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->config().num_shards, 2u);
  EXPECT_EQ(restored->training_scores(), model->training_scores());
}

TEST(ShardedModelFitTest, ZeroShardsIsRejected) {
  const Dataset ds = ClusteredDataset(80, 3, 33);
  HicsModelConfig config;
  config.num_shards = 0;
  const auto model = HicsModel::Fit(ds, config);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedModelFitTest, ShardedFitSelectsTheShardedSearchSubspaces) {
  const Dataset ds = ClusteredDataset(220, 4, 35);
  HicsModelConfig config;
  config.search_params.num_iterations = 15;
  config.search_params.output_top_k = 6;
  config.scorer = {ScorerKind::kGridDensity, 8};
  config.num_shards = 3;

  const auto model = HicsModel::Fit(ds, config);
  ASSERT_TRUE(model.ok());
  const ShardedDataset sharded(ds, 3);
  const auto scored = RunHicsSearch(sharded, config.search_params);
  ASSERT_TRUE(scored.ok());
  ASSERT_EQ(model->subspaces().size(), scored->size());
  for (std::size_t i = 0; i < scored->size(); ++i) {
    EXPECT_EQ(model->subspaces()[i].subspace, (*scored)[i].subspace);
    EXPECT_EQ(model->subspaces()[i].contrast, (*scored)[i].score);
  }
}

}  // namespace
}  // namespace hics
