// Integration tests of the degraded-execution contract: injected scorer and
// contrast faults are isolated (the pipeline keeps ranking with the
// surviving ensemble members), deadlines interrupt the search with partial
// results instead of errors, and only total failure surfaces a Status.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "engine/sharded_dataset.h"
#include "outlier/lof.h"
#include "rank_correlation.h"

namespace hics {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

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

HicsParams FastParams() {
  HicsParams params;
  params.num_iterations = 20;
  params.max_dimensionality = 3;
  params.output_top_k = 100;
  return params;
}

// ------------------------------------------- degraded pipeline execution --

TEST(FaultInjectionPipelineTest, SkippedScorersKeepRankingIntact) {
  const Dataset data = MakeData(300, 10, 41);
  const HicsParams params = FastParams();
  const LofScorer lof({.min_pts = 10});

  // Fault-free reference run.
  const auto clean = RunHicsPipeline(data, params, lof);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_GT(clean->subspaces.size(), 10u);
  EXPECT_FALSE(clean->diagnostics.degraded());
  EXPECT_EQ(clean->diagnostics.skipped_subspaces, 0u);
  EXPECT_EQ(clean->diagnostics.scored_subspaces,
            clean->diagnostics.requested_subspaces);

  // Fail k of the subspace scorer calls (k < number of subspaces).
  const std::size_t k = 7;
  FaultInjector injector;
  for (std::size_t i = 0; i < k; ++i) {
    // Spread the failures across the call sequence: calls 2, 5, 8, ...
    injector.FailNthCall("scorer.lof", 2 + 3 * i,
                         Status::Internal("injected scorer crash"));
  }
  ASSERT_LT(2 + 3 * (k - 1), clean->subspaces.size());
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const auto faulty = RunHicsPipeline(data, params, lof, ctx);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  // Full ranking, k recorded skips, correct tallies.
  EXPECT_EQ(faulty->scores.size(), data.num_objects());
  EXPECT_EQ(faulty->diagnostics.skipped_subspaces, k);
  EXPECT_EQ(faulty->diagnostics.scored_subspaces,
            faulty->diagnostics.requested_subspaces - k);
  EXPECT_TRUE(faulty->diagnostics.degraded());
  EXPECT_FALSE(faulty->diagnostics.used_fullspace_fallback);
  ASSERT_EQ(faulty->diagnostics.failures.size(), k);
  for (const SubspaceFailure& failure : faulty->diagnostics.failures) {
    EXPECT_EQ(failure.status.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(faulty->diagnostics.error_tally.at("scorer.lof"), k);
  EXPECT_EQ(injector.FiredCount("scorer.lof"), k);

  // The ensemble average over the surviving subspaces must still rank the
  // objects essentially like the fault-free run.
  const auto spearman =
      SpearmanRankCorrelation(clean->scores, faulty->scores);
  ASSERT_TRUE(spearman.ok());
  EXPECT_GT(*spearman, 0.9) << "degraded ranking diverged too far";
}

TEST(FaultInjectionPipelineTest, AllScorersFailingFallsBackToFullSpace) {
  const Dataset data = MakeData(200, 8, 42);
  const HicsParams params = FastParams();
  const LofScorer lof({.min_pts = 10});

  const auto clean = RunHicsPipeline(data, params, lof);
  ASSERT_TRUE(clean.ok());
  const std::size_t num_subspaces = clean->subspaces.size();
  ASSERT_GT(num_subspaces, 0u);

  // Fail exactly the per-subspace calls; the (num_subspaces+1)-th call is
  // the full-space fallback and succeeds.
  FaultInjector injector;
  for (std::size_t i = 1; i <= num_subspaces; ++i) {
    injector.FailNthCall("scorer.lof", i, Status::Internal("down"));
  }
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const auto degraded = RunHicsPipeline(data, params, lof, ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->scores.size(), data.num_objects());
  EXPECT_EQ(degraded->diagnostics.skipped_subspaces, num_subspaces);
  EXPECT_EQ(degraded->diagnostics.scored_subspaces, 0u);
  EXPECT_TRUE(degraded->diagnostics.used_fullspace_fallback);
}

TEST(FaultInjectionPipelineTest, TotalScorerFailureSurfacesError) {
  const Dataset data = MakeData(150, 6, 43);
  const LofScorer lof({.min_pts = 10});
  FaultInjector injector;
  injector.FailFromNthCall("scorer.lof", 1, Status::Internal("hard down"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const auto result = RunHicsPipeline(data, FastParams(), lof, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(FaultInjectionPipelineTest, NonFiniteScorerOutputIsIsolated) {
  // A scorer that returns NaN for one subspace must be skipped, not
  // propagate NaN into the aggregate.
  class NanOnSecondCall : public OutlierScorer {
   public:
    std::vector<double> ScoreSubspacePrepared(
        const PreparedDataset& prepared,
        const Subspace& subspace) const override {
      std::vector<double> scores(prepared.num_objects(), 0.0);
      for (std::size_t i = 0; i < scores.size(); ++i) {
        scores[i] = prepared.dataset().Get(i, subspace[0]);
      }
      if (++calls_ == 2) scores[0] = std::nan("");
      return scores;
    }
    std::string name() const override { return "nan-scorer"; }

   private:
    mutable int calls_ = 0;
  };

  const Dataset data = MakeData(100, 6, 44);
  const NanOnSecondCall scorer;
  const auto result =
      RunHicsPipeline(data, FastParams(), scorer, RunContext());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->diagnostics.skipped_subspaces, 1u);
  ASSERT_EQ(result->diagnostics.failures.size(), 1u);
  EXPECT_EQ(result->diagnostics.failures.front().status.code(),
            StatusCode::kDataLoss);
  for (double score : result->scores) EXPECT_TRUE(std::isfinite(score));
}

// ----------------------------------------------- contrast fault isolation --

TEST(FaultInjectionSearchTest, ContrastFaultsSkipSubspacesNotTheSearch) {
  const Dataset data = MakeData(200, 8, 45);
  HicsParams params = FastParams();
  params.num_threads = 1;  // exact fault placement

  FaultInjector injector;
  injector.FailNthCall("contrast.estimate", 3,
                       Status::Internal("injected contrast fault"));
  injector.FailNthCall("contrast.estimate", 9,
                       Status::Internal("injected contrast fault"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  HicsRunStats stats;
  const auto result = RunHicsSearch(data, params, ctx, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  EXPECT_EQ(stats.failed_contrast_evaluations, 2u);
  EXPECT_FALSE(stats.interrupted());

  // The two failed subspaces are tallied in pipeline diagnostics too.
  injector.Reset();
  injector.FailNthCall("contrast.estimate", 3, Status::Internal("again"));
  const LofScorer lof({.min_pts = 10});
  const auto pipeline = RunHicsPipeline(data, params, lof, ctx);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ(pipeline->diagnostics.error_tally.at("contrast.estimate"), 1u);
}

TEST(FaultInjectionSearchTest, WholeSearchFaultSurfaces) {
  const Dataset data = MakeData(100, 6, 46);
  FaultInjector injector;
  injector.FailFromNthCall("hics.search", 1, Status::Internal("no search"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);
  const auto result = RunHicsSearch(data, FastParams(), ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// --------------------------------------------------- deadline / cancel --

TEST(DeadlineTest, ExpiredDeadlineReturnsEmptyResultNotError) {
  const Dataset data = MakeData(300, 10, 47);
  HicsRunStats stats;
  const auto result = RunHicsSearch(data, FastParams(),
                                    RunContext::WithTimeout(milliseconds(0)),
                                    &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.deadline_exceeded);
  EXPECT_FALSE(stats.cancelled);

  const ShardedDataset sharded(data, 3);
  HicsRunStats sharded_stats;
  const auto sharded_result =
      RunHicsSearch(sharded, FastParams(),
                    RunContext::WithTimeout(milliseconds(0)), &sharded_stats);
  ASSERT_TRUE(sharded_result.ok()) << sharded_result.status().ToString();
  EXPECT_TRUE(sharded_result->empty());
  EXPECT_TRUE(sharded_stats.deadline_exceeded);
  EXPECT_FALSE(sharded_stats.cancelled);
}

TEST(DeadlineTest, MidSearchDeadlineReturnsPartialSubspaces) {
  // Heavy enough that the full search takes well over the deadline on any
  // machine; serial on purpose so the interruption point is prompt.
  SyntheticParams gen;
  gen.num_objects = 1000;
  gen.num_attributes = 15;
  gen.seed = 48;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 50;
  params.num_threads = 1;
  params.output_top_k = 500;
  params.candidate_cutoff = 400;
  params.max_dimensionality = 3;  // bound the reference run's cost

  // Reference: how long does the uninterrupted search take, and how many
  // subspaces does it yield?
  HicsRunStats full_stats;
  const auto t0 = steady_clock::now();
  const auto full = RunHicsSearch(data->data, params, {}, &full_stats);
  const auto full_duration = steady_clock::now() - t0;
  ASSERT_TRUE(full.ok());

  HicsRunStats stats;
  const auto partial = RunHicsSearch(
      data->data, params, RunContext::WithTimeout(full_duration / 5), &stats);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.deadline_exceeded);
  EXPECT_LE(stats.contrast_evaluations, full_stats.contrast_evaluations);
  EXPECT_LE(partial->size(), full->size());
  // Whatever was finished is returned best-first, usable as-is.
  for (std::size_t i = 1; i < partial->size(); ++i) {
    EXPECT_GE((*partial)[i - 1].score, (*partial)[i].score);
  }
}

TEST(DeadlineTest, PipelinePropagatesDeadlineFlag) {
  const Dataset data = MakeData(200, 8, 49);
  const LofScorer lof({.min_pts = 10});
  const auto result =
      RunHicsPipeline(data, FastParams(), lof,
                      RunContext::WithTimeout(milliseconds(0)));
  // With an already-expired deadline nothing can be scored at all; the
  // pipeline surfaces the deadline error from the full-space fallback.
  if (result.ok()) {
    EXPECT_TRUE(result->diagnostics.deadline_exceeded);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(CancellationTest, PreCancelledSearchReturnsEmpty) {
  const Dataset data = MakeData(200, 8, 50);
  RunContext ctx;
  ctx.RequestCancellation();
  HicsRunStats stats;
  const auto result = RunHicsSearch(data, FastParams(), ctx, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.cancelled);
  EXPECT_FALSE(stats.deadline_exceeded);

  const ShardedDataset sharded(data, 3);
  HicsRunStats sharded_stats;
  const auto sharded_result =
      RunHicsSearch(sharded, FastParams(), ctx, &sharded_stats);
  ASSERT_TRUE(sharded_result.ok());
  EXPECT_TRUE(sharded_result->empty());
  EXPECT_TRUE(sharded_stats.cancelled);
  EXPECT_FALSE(sharded_stats.deadline_exceeded);
}

TEST(CancellationTest, MidRankingCancellationKeepsPartialAggregate) {
  const Dataset data = MakeData(150, 8, 51);
  const HicsParams params = FastParams();
  const auto subspaces = RunHicsSearch(data, params);
  ASSERT_TRUE(subspaces.ok());
  ASSERT_GT(subspaces->size(), 3u);
  std::vector<Subspace> plain;
  for (const ScoredSubspace& s : *subspaces) plain.push_back(s.subspace);

  // Cancel from inside the 3rd scorer call via a wrapper scorer.
  RunContext ctx;
  class CancellingScorer : public OutlierScorer {
   public:
    CancellingScorer(const OutlierScorer& inner, const RunContext& ctx)
        : inner_(inner), ctx_(ctx) {}
    std::vector<double> ScoreSubspacePrepared(
        const PreparedDataset& prepared,
        const Subspace& subspace) const override {
      if (++calls_ == 3) ctx_.RequestCancellation();
      return inner_.ScoreSubspacePrepared(prepared, subspace);
    }
    std::string name() const override { return inner_.name(); }

   private:
    const OutlierScorer& inner_;
    const RunContext& ctx_;
    mutable int calls_ = 0;
  };
  const LofScorer lof({.min_pts = 10});
  const CancellingScorer scorer(lof, ctx);

  const DegradedRankingResult ranked = RankWithSubspacesDegraded(
      PreparedDataset(data), plain, scorer, ScoreAggregation::kAverage, ctx);
  EXPECT_TRUE(ranked.cancelled);
  EXPECT_FALSE(ranked.deadline_exceeded);
  // The 3rd call itself completes (cooperative model); nothing after it
  // starts.
  EXPECT_EQ(ranked.succeeded, 3u);
  EXPECT_EQ(ranked.scores.size(), data.num_objects());
  EXPECT_TRUE(ranked.failures.empty());
}

}  // namespace
}  // namespace hics
