// Determinism-under-parallelism contract: the same seed must produce
// bit-identical subspace searches, outlier rankings, and degraded
// (fault-injected) pipeline runs for every num_threads setting. Per-subspace
// RNG streams make the search order-independent; pre-sized result slots and
// ordinal-based fault injection do the same for the ranking phase.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "outlier/knn_outlier.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"

namespace hics {
namespace {

// 1 = serial reference, 2 = fixed parallel, 0 = hardware concurrency.
const std::size_t kThreadCounts[] = {1, 2, 0};

Dataset MakeData(std::size_t objects, std::size_t attributes,
                 std::uint64_t seed) {
  SyntheticParams gen;
  gen.num_objects = objects;
  gen.num_attributes = attributes;
  gen.seed = seed;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data->data;
}

HicsParams BaseParams(std::size_t num_threads) {
  HicsParams params;
  params.num_iterations = 20;
  params.max_dimensionality = 3;
  params.output_top_k = 60;
  params.num_threads = num_threads;
  return params;
}

void ExpectSameSubspaces(const std::vector<ScoredSubspace>& a,
                         const std::vector<ScoredSubspace>& b,
                         std::size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "num_threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subspace, b[i].subspace)
        << "position " << i << ", num_threads=" << threads;
    // Bitwise equality: the same Monte Carlo stream must have been drawn.
    EXPECT_EQ(a[i].score, b[i].score)
        << "position " << i << ", num_threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, SearchIsIdenticalForEveryThreadCount) {
  const Dataset data = MakeData(300, 10, 71);
  HicsRunStats reference_stats;
  const auto reference =
      RunHicsSearch(data, BaseParams(1), {}, &reference_stats);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());

  for (std::size_t threads : kThreadCounts) {
    HicsRunStats stats;
    const auto result = RunHicsSearch(data, BaseParams(threads), {}, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameSubspaces(*reference, *result, threads);
    EXPECT_EQ(stats.contrast_evaluations, reference_stats.contrast_evaluations)
        << "num_threads=" << threads;
    EXPECT_EQ(stats.levels_processed, reference_stats.levels_processed);
  }
}

TEST(ParallelDeterminismTest, RankingIsIdenticalForEveryThreadCount) {
  const Dataset data = MakeData(250, 8, 72);
  const auto subspaces = RunHicsSearch(data, BaseParams(1));
  ASSERT_TRUE(subspaces.ok());
  ASSERT_GT(subspaces->size(), 4u);
  const LofScorer lof({.min_pts = 10});

  const std::vector<Subspace> plain = PlainSubspaces(*subspaces);
  const auto reference = RankWithSubspaces(PreparedDataset(data), plain, lof,
                                           ScoreAggregation::kAverage, 1);
  for (std::size_t threads : kThreadCounts) {
    const auto scores = RankWithSubspaces(PreparedDataset(data), plain, lof,
                                          ScoreAggregation::kAverage, threads);
    ASSERT_EQ(scores.size(), reference.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], reference[i])
          << "object " << i << ", num_threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, FullPipelineIsIdenticalForEveryThreadCount) {
  const Dataset data = MakeData(250, 8, 73);
  const LofScorer lof({.min_pts = 10});
  const auto reference = RunHicsPipeline(data, BaseParams(1), lof);
  ASSERT_TRUE(reference.ok());

  for (std::size_t threads : kThreadCounts) {
    const auto result = RunHicsPipeline(data, BaseParams(threads), lof);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameSubspaces(reference->subspaces, result->subspaces, threads);
    ASSERT_EQ(result->scores.size(), reference->scores.size());
    for (std::size_t i = 0; i < result->scores.size(); ++i) {
      EXPECT_EQ(result->scores[i], reference->scores[i])
          << "object " << i << ", num_threads=" << threads;
    }
  }
}

// The degraded path: faults pinned by ordinal must hit the same logical
// work items — and thus skip the same subspaces and produce the same
// aggregate — regardless of thread count.
TEST(ParallelDeterminismTest, DegradedPipelineIsIdenticalForEveryThreadCount) {
  const Dataset data = MakeData(250, 8, 74);
  const LofScorer lof({.min_pts = 10});

  auto run = [&](std::size_t threads) {
    // Fresh injector per run so call counters start from zero.
    FaultInjector injector;
    injector.FailNthCall("contrast.estimate", 3,
                         Status::Internal("injected contrast fault"));
    injector.FailNthCall("contrast.estimate", 9,
                         Status::Internal("injected contrast fault"));
    injector.FailNthCall("scorer.lof", 2,
                         Status::Internal("injected scorer crash"));
    injector.FailNthCall("scorer.lof", 5,
                         Status::Internal("injected scorer crash"));
    RunContext ctx;
    ctx.SetFaultInjector(&injector);
    auto result = RunHicsPipeline(data, BaseParams(threads), lof, ctx);
    EXPECT_EQ(injector.FiredCount("contrast.estimate"), 2u)
        << "num_threads=" << threads;
    EXPECT_EQ(injector.FiredCount("scorer.lof"), 2u)
        << "num_threads=" << threads;
    return result;
  };

  const auto reference = run(1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(reference->diagnostics.degraded());
  EXPECT_EQ(reference->diagnostics.skipped_subspaces, 2u);

  for (std::size_t threads : kThreadCounts) {
    const auto result = run(threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameSubspaces(reference->subspaces, result->subspaces, threads);
    EXPECT_EQ(result->diagnostics.skipped_subspaces,
              reference->diagnostics.skipped_subspaces)
        << "num_threads=" << threads;
    EXPECT_EQ(result->diagnostics.scored_subspaces,
              reference->diagnostics.scored_subspaces);
    ASSERT_EQ(result->diagnostics.failures.size(),
              reference->diagnostics.failures.size());
    for (std::size_t i = 0; i < result->diagnostics.failures.size(); ++i) {
      EXPECT_EQ(result->diagnostics.failures[i].subspace,
                reference->diagnostics.failures[i].subspace)
          << "failure " << i << ", num_threads=" << threads;
    }
    ASSERT_EQ(result->scores.size(), reference->scores.size());
    for (std::size_t i = 0; i < result->scores.size(); ++i) {
      EXPECT_EQ(result->scores[i], reference->scores[i])
          << "object " << i << ", num_threads=" << threads;
    }
  }
}

// Slice-level faults use ordinal (evaluation - 1) * M + iteration + 1, so a
// fault landing mid-contrast fails the same subspace everywhere.
TEST(ParallelDeterminismTest, SliceFaultHitsTheSameSubspaceEverywhere) {
  const Dataset data = MakeData(200, 8, 75);

  auto run = [&](std::size_t threads) {
    FaultInjector injector;
    // M = 20: ordinal 130 is evaluation 7, iteration 9.
    injector.FailNthCall("contrast.slice", 130,
                         Status::Internal("injected slice fault"));
    RunContext ctx;
    ctx.SetFaultInjector(&injector);
    HicsRunStats stats;
    auto result = RunHicsSearch(data, BaseParams(threads), ctx, &stats);
    EXPECT_EQ(stats.failed_contrast_evaluations, 1u)
        << "num_threads=" << threads;
    return result;
  };

  const auto reference = run(1);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : kThreadCounts) {
    const auto result = run(threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameSubspaces(*reference, *result, threads);
  }
}

TEST(ParallelDeterminismTest, ScorersAreThreadCountInvariant) {
  const Dataset data = MakeData(300, 6, 76);
  const Subspace subspace{0, 2, 4};

  const LofScorer lof_serial({.min_pts = 10, .num_threads = 1});
  const auto lof_reference = lof_serial.ScoreSubspace(data, subspace);
  const KnnDistanceScorer dist_serial(10, 1);
  const auto dist_reference = dist_serial.ScoreSubspace(data, subspace);
  const KnnAverageScorer avg_serial(10, 1);
  const auto avg_reference = avg_serial.ScoreSubspace(data, subspace);

  for (std::size_t threads : kThreadCounts) {
    const LofScorer lof({.min_pts = 10, .num_threads = threads});
    EXPECT_EQ(lof.ScoreSubspace(data, subspace), lof_reference)
        << "num_threads=" << threads;
    const KnnDistanceScorer dist(10, threads);
    EXPECT_EQ(dist.ScoreSubspace(data, subspace), dist_reference)
        << "num_threads=" << threads;
    const KnnAverageScorer avg(10, threads);
    EXPECT_EQ(avg.ScoreSubspace(data, subspace), avg_reference)
        << "num_threads=" << threads;
  }
}

}  // namespace
}  // namespace hics
