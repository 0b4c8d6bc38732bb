#include "engine/prepared_dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/grid.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/contrast_matrix.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "outlier/grid_density.h"
#include "outlier/knn_outlier.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "scorer_oracle.h"
#include "search/subspace_search.h"

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

std::vector<Subspace> SomeSubspaces() {
  return {Subspace{0, 1}, Subspace{2, 3}, Subspace{0, 2},
          Subspace{1, 3}, Subspace{0, 1, 2}};
}

/// The reference LOF ranking: the oracle's per-subspace scores, averaged.
std::vector<double> OracleLofRanking(const Dataset& ds,
                                     const std::vector<Subspace>& subspaces,
                                     std::size_t min_pts) {
  std::vector<std::vector<double>> per_subspace;
  for (const Subspace& s : subspaces) {
    per_subspace.push_back(OracleLofScores(ds, s, min_pts));
  }
  return AggregateScores(per_subspace, ScoreAggregation::kAverage);
}

// ---------------------------------------------------------------------------
// Rank artifacts

TEST(PreparedDatasetTest, RankArtifactsMatchFreshIndex) {
  const Dataset ds = ClusteredDataset(150, 4, 7);
  const PreparedDataset prepared(ds);
  const SortedAttributeIndex fresh(ds);
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    const auto order = prepared.sorted_index().SortedOrder(a);
    const auto fresh_order = fresh.SortedOrder(a);
    ASSERT_EQ(order.size(), fresh_order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], fresh_order[i]);
    }
    const auto sorted = prepared.SortedColumn(a);
    ASSERT_EQ(sorted.size(), ds.num_objects());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i], ds.Column(a)[order[i]]);
      if (i > 0) {
        EXPECT_LE(sorted[i - 1], sorted[i]);
      }
    }
    EXPECT_TRUE(std::isfinite(prepared.MarginalMean(a)));
    EXPECT_GT(prepared.MarginalVariance(a), 0.0);
  }
}

TEST(PreparedDatasetTest, ColumnSpanIsTheDatasetColumn) {
  const Dataset ds = ClusteredDataset(40, 3, 8);
  const PreparedDataset prepared(ds);
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    const auto span = prepared.ColumnSpan(a);
    ASSERT_EQ(span.size(), ds.num_objects());
    EXPECT_EQ(span.data(), ds.Column(a).data());
  }
}

TEST(PreparedDatasetTest, BuildThreadsDoNotChangeArtifacts) {
  const Dataset ds = ClusteredDataset(200, 5, 9);
  const PreparedDataset serial(ds, 1);
  const PreparedDataset parallel(ds, 4);
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    EXPECT_EQ(serial.MarginalMean(a), parallel.MarginalMean(a));
    EXPECT_EQ(serial.MarginalVariance(a), parallel.MarginalVariance(a));
    const auto s = serial.SortedColumn(a);
    const auto p = parallel.SortedColumn(a);
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], p[i]);
  }
}

// ---------------------------------------------------------------------------
// Search / contrast matrix / pipeline equivalence

TEST(PreparedDatasetTest, PreparedSearchMatchesLegacySearch) {
  const Dataset ds = ClusteredDataset(180, 5, 11);
  HicsParams params;
  params.num_iterations = 20;
  params.output_top_k = 12;
  const auto legacy = RunHicsSearch(ds, params);
  ASSERT_TRUE(legacy.ok());

  const PreparedDataset prepared(ds);
  const auto warm1 = RunHicsSearch(prepared, params);
  const auto warm2 = RunHicsSearch(prepared, params);  // reuses the index
  ASSERT_TRUE(warm1.ok());
  ASSERT_TRUE(warm2.ok());
  ASSERT_EQ(legacy->size(), warm1->size());
  for (std::size_t i = 0; i < legacy->size(); ++i) {
    EXPECT_EQ((*legacy)[i].subspace, (*warm1)[i].subspace);
    EXPECT_EQ((*legacy)[i].score, (*warm1)[i].score);
    EXPECT_EQ((*warm1)[i].subspace, (*warm2)[i].subspace);
    EXPECT_EQ((*warm1)[i].score, (*warm2)[i].score);
  }
}

TEST(PreparedDatasetTest, PreparedContrastMatrixMatchesLegacy) {
  const Dataset ds = ClusteredDataset(120, 4, 13);
  ContrastMatrixParams params;
  params.contrast.num_iterations = 15;
  const auto legacy = ComputeContrastMatrix(ds, params);
  ASSERT_TRUE(legacy.ok());
  const PreparedDataset prepared(ds);
  const auto prepared_matrix = ComputeContrastMatrix(prepared, params);
  ASSERT_TRUE(prepared_matrix.ok());
  for (std::size_t i = 0; i < ds.num_attributes(); ++i) {
    for (std::size_t j = 0; j < ds.num_attributes(); ++j) {
      EXPECT_EQ((*legacy)(i, j), (*prepared_matrix)(i, j));
    }
  }
}

TEST(PreparedDatasetTest, SearchMethodSearchPreparedMatchesSearch) {
  const Dataset ds = ClusteredDataset(150, 4, 15);
  const PreparedDataset prepared(ds);
  HicsParams params;
  params.num_iterations = 15;
  const auto method = MakeHicsMethod(params);
  const auto cold = method->Search(ds);
  const auto warm = method->SearchPrepared(prepared);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(cold->size(), warm->size());
  for (std::size_t i = 0; i < cold->size(); ++i) {
    EXPECT_EQ((*cold)[i].subspace, (*warm)[i].subspace);
    EXPECT_EQ((*cold)[i].score, (*warm)[i].score);
  }
}

// ---------------------------------------------------------------------------
// Ranking: cold vs warm, across thread counts

TEST(PreparedDatasetTest, ColdAndWarmRankingIdenticalAcrossThreadCounts) {
  const Dataset ds = ClusteredDataset(160, 4, 17);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});
  const std::vector<double> reference = OracleLofRanking(ds, subspaces, 8);

  const PreparedDataset prepared(ds);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    // First pass fills the cache (cold), second is fully warm; both must
    // equal the oracle byte for byte.
    const auto cold = RankWithSubspaces(prepared, subspaces, scorer,
                                        ScoreAggregation::kAverage, threads);
    const auto warm = RankWithSubspaces(prepared, subspaces, scorer,
                                        ScoreAggregation::kAverage, threads);
    EXPECT_EQ(cold, reference) << "threads=" << threads;
    EXPECT_EQ(warm, reference) << "threads=" << threads;
  }
  const ArtifactCacheStats stats = prepared.cache().stats();
  EXPECT_GT(stats.score_hits, 0u);
  EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size());
}

TEST(PreparedDatasetTest, WarmRankingServesFromCacheWithoutRecompute) {
  const Dataset ds = ClusteredDataset(100, 4, 19);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 10});
  const PreparedDataset prepared(ds);

  RankWithSubspaces(prepared, subspaces, scorer);
  const ArtifactCacheStats after_cold = prepared.cache().stats();
  EXPECT_EQ(after_cold.score_misses, subspaces.size());

  RankWithSubspaces(prepared, subspaces, scorer);
  const ArtifactCacheStats after_warm = prepared.cache().stats();
  // Warm pass: every subspace is a score hit, no new misses of any kind.
  EXPECT_EQ(after_warm.score_hits, after_cold.score_hits + subspaces.size());
  EXPECT_EQ(after_warm.score_misses, after_cold.score_misses);
  EXPECT_EQ(after_warm.knn_table_misses, after_cold.knn_table_misses);
  EXPECT_EQ(after_warm.searcher_misses, after_cold.searcher_misses);
}

TEST(PreparedDatasetTest, DistinctScorerParamsDoNotShareScoreEntries) {
  const Dataset ds = ClusteredDataset(90, 4, 21);
  const Subspace s{0, 1};
  const PreparedDataset prepared(ds);
  const LofScorer lof8({.min_pts = 8});
  const LofScorer lof12({.min_pts = 12});
  const auto scores8 = lof8.ScoreSubspaceCached(prepared, s);
  const auto scores12 = lof12.ScoreSubspaceCached(prepared, s);
  EXPECT_EQ(prepared.cache().num_score_vectors(), 2u);
  EXPECT_EQ(scores8, OracleLofScores(ds, s, 8));
  EXPECT_EQ(scores12, OracleLofScores(ds, s, 12));
  // Same k, different scorers: each computes its own kNN table (none is
  // shelved) and publishes its own score vector.
  const KnnDistanceScorer dist(9);
  const KnnAverageScorer avg(9);
  EXPECT_EQ(dist.ScoreSubspaceCached(prepared, s),
            OracleKthDistanceScores(ds, s, 9));
  const ArtifactCacheStats before = prepared.cache().stats();
  EXPECT_EQ(avg.ScoreSubspaceCached(prepared, s),
            OracleMeanDistanceScores(ds, s, 9));
  const ArtifactCacheStats after = prepared.cache().stats();
  EXPECT_EQ(after.knn_table_misses, before.knn_table_misses + 1);
  EXPECT_EQ(after.knn_table_hits, 0u);
  EXPECT_EQ(prepared.cache().num_score_vectors(), 4u);
}

// ---------------------------------------------------------------------------
// Pipeline equivalence, warm runs

TEST(PreparedDatasetTest, PreparedPipelineMatchesLegacyAndWarmRepeat) {
  const Dataset ds = ClusteredDataset(140, 4, 23);
  HicsParams params;
  params.num_iterations = 15;
  params.output_top_k = 8;
  const LofScorer scorer({.min_pts = 8});

  const auto legacy = RunHicsPipeline(ds, params, scorer);
  ASSERT_TRUE(legacy.ok());

  const PreparedDataset prepared(ds);
  const auto cold = RunHicsPipeline(prepared, params, scorer);
  const auto warm = RunHicsPipeline(prepared, params, scorer);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->scores, legacy->scores);
  EXPECT_EQ(warm->scores, legacy->scores);
  EXPECT_GT(prepared.cache().stats().score_hits, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection: failed subspaces never enter the cache

TEST(PreparedDatasetTest, FailedSubspaceIsNeverCached) {
  const Dataset ds = ClusteredDataset(110, 4, 25);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});
  const PreparedDataset prepared(ds);

  FaultInjector injector;
  injector.FailNthCall("scorer.lof", 2, Status::Internal("injected"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const DegradedRankingResult degraded =
      RankWithSubspacesDegraded(prepared, subspaces, scorer,
                                ScoreAggregation::kAverage, ctx);
  EXPECT_EQ(degraded.succeeded, subspaces.size() - 1);
  ASSERT_EQ(degraded.failures.size(), 1u);
  EXPECT_EQ(degraded.failures.front().subspace, subspaces[1]);
  // The faulted subspace (ordinal 2) must not have populated the cache.
  EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size() - 1);
  EXPECT_EQ(prepared.cache().FindScores(scorer.cache_key(), subspaces[1]),
            nullptr);

  // A later healthy run scores it fresh and only then caches it, matching
  // the oracle byte for byte.
  const std::vector<double> healthy =
      RankWithSubspaces(prepared, subspaces, scorer);
  EXPECT_EQ(healthy, OracleLofRanking(ds, subspaces, 8));
  EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size());
}

TEST(PreparedDatasetTest, WarmCacheDoesNotMaskInjectedFaults) {
  const Dataset ds = ClusteredDataset(110, 4, 27);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});
  const PreparedDataset prepared(ds);
  // Fully warm cache first.
  RankWithSubspaces(prepared, subspaces, scorer);

  FaultInjector injector;
  injector.FailNthCall("scorer.lof", 3, Status::Internal("injected"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  // The fault probe runs before the cache lookup, so the armed subspace
  // fails even though its scores are sitting in the cache.
  const DegradedRankingResult warm_degraded =
      RankWithSubspacesDegraded(prepared, subspaces, scorer,
                                ScoreAggregation::kAverage, ctx);
  ASSERT_EQ(warm_degraded.failures.size(), 1u);
  EXPECT_EQ(warm_degraded.failures.front().subspace, subspaces[2]);

  // Cold run under the same fault plan: identical surviving ensemble and
  // identical aggregate.
  FaultInjector cold_injector;
  cold_injector.FailNthCall("scorer.lof", 3, Status::Internal("injected"));
  RunContext cold_ctx;
  cold_ctx.SetFaultInjector(&cold_injector);
  const DegradedRankingResult cold_degraded =
      RankWithSubspacesDegraded(PreparedDataset(ds), subspaces, scorer,
                                ScoreAggregation::kAverage, cold_ctx);
  EXPECT_EQ(warm_degraded.scores, cold_degraded.scores);
  EXPECT_EQ(warm_degraded.succeeded, cold_degraded.succeeded);
}

TEST(PreparedDatasetTest, DegradedPreparedIdenticalAcrossThreadCounts) {
  const Dataset ds = ClusteredDataset(120, 4, 29);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});

  std::vector<std::vector<double>> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const PreparedDataset prepared(ds);
    FaultInjector injector;
    injector.FailNthCall("scorer.lof", 2, Status::Internal("injected"));
    RunContext ctx;
    ctx.SetFaultInjector(&injector);
    const DegradedRankingResult degraded = RankWithSubspacesDegraded(
        prepared, subspaces, scorer, ScoreAggregation::kAverage, ctx,
        threads);
    EXPECT_EQ(degraded.failures.size(), 1u);
    EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size() - 1);
    results.push_back(degraded.scores);
  }
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------------------------
// Concurrent mixed-subspace stress

TEST(PreparedDatasetTest, ConcurrentMixedSubspaceHitsStayConsistent) {
  const Dataset ds = ClusteredDataset(130, 4, 31);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});
  const PreparedDataset prepared(ds);

  std::vector<std::vector<double>> reference;
  reference.reserve(subspaces.size());
  for (const Subspace& s : subspaces) {
    reference.push_back(OracleLofScores(ds, s, 8));
  }

  // Many workers hammer overlapping subspaces: every call must return the
  // reference bits whether it computed, raced a builder, or hit.
  constexpr std::size_t kCalls = 64;
  std::vector<char> ok(kCalls, 0);
  ParallelFor(0, kCalls, 8, [&](std::size_t c) {
    const std::size_t s = c % subspaces.size();
    const std::vector<double> scores =
        scorer.ScoreSubspaceCached(prepared, subspaces[s]);
    ok[c] = scores == reference[s] ? 1 : 0;
  });
  for (std::size_t c = 0; c < kCalls; ++c) {
    EXPECT_EQ(ok[c], 1) << "call " << c;
  }
  // One canonical entry per subspace, regardless of racing builders.
  EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size());
  const ArtifactCacheStats stats = prepared.cache().stats();
  EXPECT_GT(stats.score_hits, 0u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Satellite: multi-index non-finite diagnostics

class PoisonScorer : public OutlierScorer {
 public:
  explicit PoisonScorer(std::vector<std::size_t> bad) : bad_(std::move(bad)) {}

  std::vector<double> ScoreSubspacePrepared(const PreparedDataset& prepared,
                                            const Subspace&) const override {
    std::vector<double> scores(prepared.num_objects(), 1.0);
    for (std::size_t i : bad_) {
      scores[i] = std::numeric_limits<double>::quiet_NaN();
    }
    return scores;
  }

  std::string name() const override { return "poison"; }

  // Opt in to score caching so the never-cache-invalid-results rule is
  // actually exercised.
  std::string cache_key() const override { return "poison"; }

 private:
  std::vector<std::size_t> bad_;
};

TEST(ScoreValidationTest, ReportsAllNonFiniteIndices) {
  const Dataset ds = ClusteredDataset(50, 3, 33);
  const PoisonScorer scorer({3, 17, 41});
  const auto result = scorer.ScoreSubspacePreparedChecked(
      PreparedDataset(ds), ds.FullSpace(), RunContext());
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("3 non-finite"), std::string::npos) << message;
  EXPECT_NE(message.find("3, 17, 41"), std::string::npos) << message;
}

TEST(ScoreValidationTest, CapsReportedIndicesAndCountsTheRest) {
  const Dataset ds = ClusteredDataset(60, 3, 35);
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < 12; ++i) bad.push_back(i * 5);
  const PoisonScorer scorer(bad);
  const auto result = scorer.ScoreSubspacePreparedChecked(
      PreparedDataset(ds), ds.FullSpace(), RunContext());
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("12 non-finite"), std::string::npos) << message;
  // First 8 listed, the remaining 4 summarized.
  EXPECT_NE(message.find("0, 5, 10, 15, 20, 25, 30, 35"), std::string::npos)
      << message;
  EXPECT_NE(message.find("(+4 more)"), std::string::npos) << message;
  EXPECT_EQ(message.find("40,"), std::string::npos) << message;
}

TEST(ScoreValidationTest, PoisonScorerNeverEntersCache) {
  const Dataset ds = ClusteredDataset(40, 3, 37);
  const PoisonScorer scorer({5});
  const PreparedDataset prepared(ds);
  const auto result = scorer.ScoreSubspacePreparedChecked(
      prepared, ds.FullSpace(), RunContext());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(prepared.cache().num_score_vectors(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: a deadline racing the cache must not poison it

/// Simulates a scorer whose pass was cut short (e.g. by a deadline): it
/// returns fewer scores than objects. The checked path must reject the
/// partial vector and keep it out of the cache.
class TruncatingScorer : public OutlierScorer {
 public:
  std::vector<double> ScoreSubspacePrepared(const PreparedDataset& prepared,
                                            const Subspace&) const override {
    const std::size_t n = prepared.num_objects();
    return std::vector<double>(n > 3 ? n - 3 : 0, 1.0);
  }
  std::string name() const override { return "truncating"; }
  std::string cache_key() const override { return "truncating"; }
};

TEST(DeadlineCacheRaceTest, PartialScoreVectorIsRejectedAndNeverCached) {
  const Dataset ds = ClusteredDataset(40, 3, 41);
  const PreparedDataset prepared(ds);
  const TruncatingScorer scorer;
  const auto result = scorer.ScoreSubspacePreparedChecked(
      prepared, ds.FullSpace(), RunContext());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("' returned "),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(prepared.cache().num_score_vectors(), 0u);
  EXPECT_EQ(prepared.cache().FindScores("truncating", ds.FullSpace()),
            nullptr);
}

TEST(DeadlineCacheRaceTest, ExpiredDeadlineLeavesCacheEmpty) {
  const Dataset ds = ClusteredDataset(60, 4, 43);
  const PreparedDataset prepared(ds);
  const LofScorer scorer({/*min_pts=*/8});
  const RunContext expired =
      RunContext::WithTimeout(std::chrono::milliseconds(-1));
  const auto dead = scorer.ScoreSubspacePreparedChecked(
      prepared, ds.FullSpace(), expired);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(prepared.cache().num_score_vectors(), 0u);

  // The same prepared artifact keeps serving clean contexts, and the now
  // cached vector is byte-identical to the oracle.
  const auto healthy = scorer.ScoreSubspacePreparedChecked(
      prepared, ds.FullSpace(), RunContext());
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(*healthy, OracleLofScores(ds, ds.FullSpace(), 8));
  EXPECT_EQ(prepared.cache().num_score_vectors(), 1u);
}

TEST(DeadlineCacheRaceTest, DeadlineRacingParallelRankingNeverPoisonsCache) {
  // Concurrent degraded rankings race a deadline that expires mid-run.
  // Whatever subset completes, every cache entry that exists afterwards
  // must be a complete score vector, byte-identical to the oracle: a
  // deadline may shrink the ensemble, never corrupt the artifact.
  const Dataset ds = ClusteredDataset(300, 4, 47);
  const LofScorer scorer({/*min_pts=*/10});
  const std::vector<Subspace> subspaces = SomeSubspaces();
  for (int trial = 0; trial < 5; ++trial) {
    const PreparedDataset prepared(ds);
    const RunContext ctx =
        RunContext::WithTimeout(std::chrono::microseconds(300 * trial));
    (void)RankWithSubspacesDegraded(prepared, subspaces, scorer,
                                    ScoreAggregation::kAverage, ctx,
                                    /*num_threads=*/4);
    for (const Subspace& s : subspaces) {
      const auto cached = prepared.cache().FindScores(scorer.cache_key(), s);
      if (cached == nullptr) continue;  // raced out before publishing: fine
      EXPECT_EQ(cached->size(), ds.num_objects());
      EXPECT_EQ(*cached, OracleLofScores(ds, s, 10))
          << "trial " << trial << " subspace " << s.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: byte-budgeted admission control

TEST(ArtifactCacheTest, AutoKnnTableCachesOnlyTheResolvedSearcher) {
  // N = 2000, |S| = 8 is in the probe band. Planted clusters keep the
  // probed tree, uniform data rejects it; either way a cold table shelves
  // no searcher, a searcher shelved beforehand serves the table as a hit
  // instead of being rebuilt, and the table equals a forced brute-force
  // one.
  const std::size_t n = 2000;
  SyntheticParams gen;
  gen.num_objects = n;
  gen.num_attributes = 8;
  gen.min_subspace_dims = 8;
  gen.max_subspace_dims = 8;
  gen.min_clusters = 8;
  gen.max_clusters = 8;
  const Dataset planted = GenerateSynthetic(gen)->data;
  Rng rng(37);
  Dataset uniform(n, 8);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 8; ++j) uniform.Set(i, j, rng.UniformDouble());
  }
  for (const auto& [ds, kept] :
       {std::pair<const Dataset*, KnnBackend>{&planted, KnnBackend::kKdTree},
        std::pair<const Dataset*, KnnBackend>{&uniform,
                                              KnnBackend::kBruteForce}}) {
    const Subspace subspace = ds->FullSpace();
    KnnResultTable expected;
    MakeBruteForceSearcher(*ds, subspace)->QueryAllKnn(10, &expected);
    const auto equals_brute_force = [&](const KnnResultTable& table) {
      for (std::size_t q = 0; q < n; ++q) {
        const auto got = table.Row(q);
        const auto want = expected.Row(q);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          return false;
        }
      }
      return true;
    };

    const PreparedDataset cold(*ds);
    const KnnResultTable table = cold.cache().ComputeKnnTable(subspace, 10, 1);
    EXPECT_EQ(cold.cache().num_searchers(), 0u);
    EXPECT_EQ(cold.cache().stats().searcher_misses, 1u);
    EXPECT_TRUE(equals_brute_force(table));

    // A searcher shelved through GetSearcher serves the table miss.
    const PreparedDataset shelved(*ds);
    const auto searcher = shelved.cache().GetSearcher(subspace, kept);
    EXPECT_EQ(searcher->backend(), kept);
    const ArtifactCacheStats before = shelved.cache().stats();
    const KnnResultTable served =
        shelved.cache().ComputeKnnTable(subspace, 10, 1);
    const ArtifactCacheStats after = shelved.cache().stats();
    EXPECT_EQ(after.searcher_misses, before.searcher_misses);
    EXPECT_EQ(after.searcher_hits, before.searcher_hits + 1);
    EXPECT_EQ(shelved.cache().num_searchers(), 1u);
    EXPECT_EQ(shelved.cache().GetSearcher(subspace, kept), searcher);
    EXPECT_TRUE(equals_brute_force(served));
  }
}

TEST(ArtifactCacheBudgetTest, DegradedLofRankingHoldsOnlyScoreVectors) {
  // 21 subspaces (every attribute pair of 7): the ranking leaves one score
  // vector per subspace in the cache and no kNN table or searcher.
  const Dataset ds = ClusteredDataset(150, 7, 77);
  std::vector<Subspace> subspaces;
  for (std::size_t a = 0; a < 7; ++a) {
    for (std::size_t b = a + 1; b < 7; ++b) subspaces.push_back(Subspace{a, b});
  }
  ASSERT_GE(subspaces.size(), 20u);
  const LofScorer scorer({.min_pts = 8});
  const PreparedDataset prepared(ds);
  const DegradedRankingResult result = RankWithSubspacesDegraded(
      prepared, subspaces, scorer, ScoreAggregation::kAverage, RunContext(),
      /*num_threads=*/4);
  EXPECT_EQ(result.succeeded, subspaces.size());
  EXPECT_EQ(result.scores, OracleLofRanking(ds, subspaces, 8));
  EXPECT_EQ(prepared.cache().num_score_vectors(), subspaces.size());
  EXPECT_EQ(prepared.cache().num_searchers(), 0u);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(),
            subspaces.size() * ds.num_objects() * sizeof(double));
  EXPECT_EQ(prepared.cache().stats().knn_table_misses, subspaces.size());
}

TEST(ArtifactCacheBudgetTest, SearchersAreChargedTheirReportedBytes) {
  const Dataset ds = ClusteredDataset(300, 4, 53);
  const PreparedDataset prepared(ds);
  const auto brute =
      prepared.cache().GetSearcher(Subspace{0, 1, 3}, KnnBackend::kBruteForce);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), brute->MemoryBytes());
  const auto kd =
      prepared.cache().GetSearcher(Subspace{0, 2}, KnnBackend::kKdTree);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(),
            brute->MemoryBytes() + kd->MemoryBytes());
}

TEST(ArtifactCacheBudgetTest, UnboundedCacheAccountsApproximateBytes) {
  const Dataset ds = ClusteredDataset(80, 4, 51);
  const PreparedDataset prepared(ds);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), 0u);

  const LofScorer scorer({.min_pts = 8});
  EXPECT_EQ(scorer.ScoreSubspaceCached(prepared, Subspace{0, 1}),
            OracleLofScores(ds, Subspace{0, 1}, 8));
  const ArtifactCacheStats stats = prepared.cache().stats();
  // The score vector was admitted and accounted; the kNN table it was
  // computed from and the searcher that answered it were not kept.
  EXPECT_EQ(stats.approx_bytes, prepared.cache().ApproxMemoryBytes());
  EXPECT_EQ(stats.budget_rejections, 0u);
  EXPECT_EQ(stats.knn_table_misses, 1u);
  EXPECT_EQ(prepared.cache().num_searchers(), 0u);
  EXPECT_EQ(stats.approx_bytes, ds.num_objects() * sizeof(double));
}

TEST(ArtifactCacheBudgetTest, RejectsWhenFullButReturnsIdenticalBits) {
  const Dataset ds = ClusteredDataset(80, 4, 53);
  const auto subspaces = SomeSubspaces();
  const LofScorer scorer({.min_pts = 8});
  const std::vector<double> reference = OracleLofRanking(ds, subspaces, 8);

  const PreparedDataset prepared(ds);
  prepared.cache().SetByteBudget(1);  // nothing fits
  const auto scores = RankWithSubspaces(prepared, subspaces, scorer);
  EXPECT_EQ(scores, reference);  // admission never changes results
  EXPECT_EQ(prepared.cache().num_score_vectors(), 0u);
  EXPECT_EQ(prepared.cache().num_searchers(), 0u);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), 0u);
  EXPECT_GT(prepared.cache().stats().budget_rejections, 0u);

  // A repeat run re-misses (nothing was cached) but still agrees.
  EXPECT_EQ(RankWithSubspaces(prepared, subspaces, scorer), reference);
}

TEST(ArtifactCacheBudgetTest, AdmitsUntilFullAndNeverEvicts) {
  const Dataset ds = ClusteredDataset(64, 4, 55);
  const std::size_t n = ds.num_objects();
  const PreparedDataset prepared(ds);
  // Room for exactly one score vector (n doubles) and nothing else.
  prepared.cache().SetByteBudget(n * sizeof(double));

  const std::vector<double> v(n, 1.0);
  const auto first =
      prepared.cache().InsertScores("k", Subspace{0, 1}, v);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(prepared.cache().num_score_vectors(), 1u);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), n * sizeof(double));

  // The second vector is rejected — but the caller still gets its bits.
  const auto second =
      prepared.cache().InsertScores("k", Subspace{2, 3}, v);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, v);
  EXPECT_EQ(prepared.cache().num_score_vectors(), 1u);
  EXPECT_EQ(prepared.cache().stats().budget_rejections, 1u);
  EXPECT_EQ(prepared.cache().FindScores("k", Subspace{2, 3}), nullptr);

  // The admitted entry was never evicted to make room.
  EXPECT_NE(prepared.cache().FindScores("k", Subspace{0, 1}), nullptr);
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), n * sizeof(double));
}

TEST(ArtifactCacheBudgetTest, DuplicateInsertIsNotDoubleCharged) {
  const Dataset ds = ClusteredDataset(48, 3, 57);
  const std::size_t n = ds.num_objects();
  const PreparedDataset prepared(ds);
  const std::vector<double> v(n, 2.0);
  const auto a = prepared.cache().InsertScores("k", Subspace{0, 1}, v);
  const auto b = prepared.cache().InsertScores("k", Subspace{0, 1}, v);
  EXPECT_EQ(a.get(), b.get());  // first insert stays canonical
  EXPECT_EQ(prepared.cache().ApproxMemoryBytes(), n * sizeof(double));
  EXPECT_EQ(prepared.cache().stats().budget_rejections, 0u);
}

TEST(ArtifactCacheBudgetTest, RejectedSearcherStillAnswersQueries) {
  const Dataset ds = ClusteredDataset(60, 4, 59);
  const PreparedDataset prepared(ds);
  prepared.cache().SetByteBudget(1);
  const auto searcher =
      prepared.cache().GetSearcher(Subspace{0, 1}, KnnBackend::kBruteForce);
  ASSERT_NE(searcher, nullptr);
  EXPECT_EQ(prepared.cache().num_searchers(), 0u);
  EXPECT_EQ(searcher->num_objects(), ds.num_objects());
  // Uncached answers match a budget-free cache's answers exactly.
  const PreparedDataset roomy(ds);
  const auto cached =
      roomy.cache().GetSearcher(Subspace{0, 1}, KnnBackend::kBruteForce);
  const auto lhs = searcher->QueryKnn(5, 3);
  const auto rhs = cached->QueryKnn(5, 3);
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].id, rhs[i].id);
    EXPECT_EQ(lhs[i].distance, rhs[i].distance);
  }
}


// ---------------------------------------------------------------------------
// Satellite: epoch-keyed invalidation accounting

TEST(ArtifactCacheEpochTest, AdvanceSweepsEveryKindAndAccountsIt) {
  const Dataset ds = ClusteredDataset(60, 4, 61);
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  ASSERT_EQ(cache.epoch(), 0u);

  // Populate artifacts of every kind: a searcher, score vectors (via the
  // LOF and grid cached paths) and a grid.
  cache.GetSearcher(Subspace{0, 1}, KnnBackend::kBruteForce);
  const LofScorer scorer({.min_pts = 8});
  scorer.ScoreSubspaceCached(prepared, Subspace{0, 1});
  const GridDensityScorer grids(GridDensityParams{});
  grids.ScoreSubspaceCached(prepared, Subspace{2, 3});
  ASSERT_EQ(cache.num_searchers(), 1u);
  ASSERT_EQ(cache.num_score_vectors(), 2u);
  ASSERT_EQ(cache.num_grids(), 1u);
  const std::size_t entries = cache.num_searchers() +
                              cache.num_score_vectors() + cache.num_grids();
  const std::size_t footprint = cache.ApproxMemoryBytes();
  ASSERT_GT(footprint, 0u);

  cache.AdvanceEpoch(1);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.num_searchers(), 0u);
  EXPECT_EQ(cache.num_score_vectors(), 0u);
  EXPECT_EQ(cache.num_grids(), 0u);
  EXPECT_EQ(cache.ApproxMemoryBytes(), 0u);

  const ArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evicted_artifacts, entries);
  EXPECT_EQ(stats.invalidated_bytes, footprint);
}

TEST(ArtifactCacheEpochTest, AccountingAccumulatesAcrossAdvances) {
  const Dataset ds = ClusteredDataset(48, 3, 63);
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  const std::size_t n = ds.num_objects();
  const std::vector<double> v(n, 1.0);

  cache.InsertScores("k", Subspace{0, 1}, v);
  cache.AdvanceEpoch(1);
  EXPECT_EQ(cache.stats().evicted_artifacts, 1u);
  EXPECT_EQ(cache.stats().invalidated_bytes, n * sizeof(double));

  cache.InsertScores("k", Subspace{0, 1}, v);
  cache.InsertScores("k", Subspace{1, 2}, v);
  cache.AdvanceEpoch(2);
  EXPECT_EQ(cache.stats().evicted_artifacts, 3u);
  EXPECT_EQ(cache.stats().invalidated_bytes, 3 * n * sizeof(double));
}

TEST(ArtifactCacheEpochTest, CurrentEpochEntriesSurviveAnAdvance) {
  const Dataset ds = ClusteredDataset(40, 3, 65);
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  cache.AdvanceEpoch(1);  // stale nothing — the cache is empty
  EXPECT_EQ(cache.stats().evicted_artifacts, 0u);

  // An entry inserted AT the new epoch is current and must survive the
  // defense-in-depth staleness checks on lookup.
  const std::vector<double> v(ds.num_objects(), 2.0);
  cache.InsertScores("k", Subspace{0, 1}, v);
  EXPECT_NE(cache.FindScores("k", Subspace{0, 1}), nullptr);
  EXPECT_EQ(cache.stats().evicted_artifacts, 0u);
}

// ---------------------------------------------------------------------------
// Satellite regression: SetByteBudget below the current footprint must
// reclaim down to the budget instead of wedging admissions forever.

TEST(ArtifactCacheBudgetTest, ShrinkingBudgetReclaimsDeterministically) {
  const Dataset ds = ClusteredDataset(48, 4, 67);
  const std::size_t n = ds.num_objects();
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();

  const std::vector<double> v(n, 1.0);
  cache.InsertScores("a", Subspace{0, 1}, v);
  cache.InsertScores("b", Subspace{2, 3}, v);
  ASSERT_EQ(cache.ApproxMemoryBytes(), 2 * n * sizeof(double));

  // Room for one vector: the reclaim sweep walks score entries in
  // ascending map-key order, so the "a"-keyed entry goes first and the
  // "b"-keyed one survives.
  cache.SetByteBudget(n * sizeof(double));
  EXPECT_EQ(cache.ApproxMemoryBytes(), n * sizeof(double));
  EXPECT_EQ(cache.num_score_vectors(), 1u);
  EXPECT_EQ(cache.FindScores("a", Subspace{0, 1}), nullptr);
  EXPECT_NE(cache.FindScores("b", Subspace{2, 3}), nullptr);
  EXPECT_GT(cache.stats().evicted_artifacts, 0u);

  // The regression: admissions must work again within the new budget.
  cache.AdvanceEpoch(1);  // clear the survivor (stats persist)
  ASSERT_EQ(cache.ApproxMemoryBytes(), 0u);
  const auto admitted = cache.InsertScores("c", Subspace{0, 2}, v);
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(cache.num_score_vectors(), 1u);
  EXPECT_NE(cache.FindScores("c", Subspace{0, 2}), nullptr);
}

TEST(ArtifactCacheBudgetTest, ShrinkToZeroDisablesTheBudget) {
  const Dataset ds = ClusteredDataset(32, 3, 69);
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  const std::vector<double> v(ds.num_objects(), 3.0);
  cache.SetByteBudget(1);
  // The rejected insert still hands the caller its bits, but nothing is
  // admitted.
  EXPECT_NE(cache.InsertScores("k", Subspace{0, 1}, v), nullptr);
  EXPECT_EQ(cache.num_score_vectors(), 0u);
  EXPECT_EQ(cache.FindScores("k", Subspace{0, 1}), nullptr);
  cache.SetByteBudget(0);  // 0 = unbounded again
  EXPECT_NE(cache.InsertScores("k", Subspace{0, 1}, v), nullptr);
  EXPECT_NE(cache.FindScores("k", Subspace{0, 1}), nullptr);
}

// ---------------------------------------------------------------------------
// The entry lifecycle every artifact kind shares

/// A keyless grid of `subspace`, the form the grid-density scorer caches.
std::shared_ptr<const SubspaceGrid> KeylessGrid(const PreparedDataset& prepared,
                                                const Subspace& subspace) {
  GridOptions options;
  options.keep_point_keys = false;
  return std::make_shared<const SubspaceGrid>(prepared, subspace, options);
}

TEST(ArtifactCacheBudgetTest, ReclaimWalksKindsInTheDocumentedOrder) {
  const Dataset ds = ClusteredDataset(120, 4, 71);
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  const Subspace knn_sub{0, 1};
  // One entry of each kind, sizes read off the footprint as they land.
  cache.GetSearcher(knn_sub, KnnBackend::kBruteForce);
  const std::size_t searcher_bytes = cache.ApproxMemoryBytes();
  // A computed kNN table reuses the cached searcher and adds nothing.
  cache.ComputeKnnTable(knn_sub, 5, 1);
  ASSERT_EQ(cache.ApproxMemoryBytes(), searcher_bytes);
  const auto grid = KeylessGrid(prepared, Subspace{2, 3});
  cache.InsertGrid("g", Subspace{2, 3}, grid, grid->ApproxMemoryBytes());
  cache.InsertScores("s", Subspace{0, 2},
                     std::vector<double>(ds.num_objects(), 1.0));
  ASSERT_EQ(cache.num_searchers(), 1u);
  ASSERT_EQ(cache.num_grids(), 1u);
  ASSERT_EQ(cache.num_score_vectors(), 1u);
  const std::size_t grid_bytes = grid->ApproxMemoryBytes();
  ASSERT_EQ(cache.ApproxMemoryBytes(),
            searcher_bytes + grid_bytes + ds.num_objects() * sizeof(double));

  // Each step leaves one byte too few for what is left, so exactly one
  // more kind goes: scores, then grids, then searchers.
  const auto counts = [&] {
    return std::vector<std::size_t>{cache.num_score_vectors(),
                                    cache.num_grids(), cache.num_searchers()};
  };
  cache.SetByteBudget(searcher_bytes + grid_bytes);
  EXPECT_EQ(counts(), (std::vector<std::size_t>{0, 1, 1}));
  cache.SetByteBudget(searcher_bytes + grid_bytes - 1);
  EXPECT_EQ(counts(), (std::vector<std::size_t>{0, 0, 1}));
  cache.SetByteBudget(searcher_bytes - 1);
  EXPECT_EQ(counts(), (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(cache.ApproxMemoryBytes(), 0u);
  EXPECT_EQ(cache.stats().evicted_artifacts, 3u);
}

TEST(ArtifactCacheTest, ScriptedSequenceCountsEveryKindExactly) {
  const Dataset ds = ClusteredDataset(60, 4, 73);
  const std::size_t n = ds.num_objects();
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  const Subspace a{0, 1};
  const Subspace b{2, 3};
  const std::vector<double> v(n, 1.0);

  // Searchers: a miss, then a hit.
  const auto searcher = cache.GetSearcher(a, KnnBackend::kBruteForce);
  EXPECT_EQ(cache.GetSearcher(a, KnnBackend::kBruteForce), searcher);
  // kNN tables: computed twice (each a table miss whose searcher probe
  // hits), equal to each other and to the shelved searcher's own table.
  KnnResultTable expected;
  searcher->QueryAllKnn(5, &expected);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const KnnResultTable table = cache.ComputeKnnTable(a, 5, 1);
    ASSERT_EQ(table.num_queries(), n);
    for (std::size_t q = 0; q < n; ++q) {
      const auto got = table.Row(q);
      const auto want = expected.Row(q);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "row " << q;
    }
  }
  // Scores: a miss, an insert, a hit, a duplicate insert.
  EXPECT_EQ(cache.FindScores("k", a), nullptr);
  const auto scores = cache.InsertScores("k", a, v);
  EXPECT_EQ(cache.FindScores("k", a), scores);
  EXPECT_EQ(cache.InsertScores("k", a, v), scores);
  // Grids: the same four steps.
  const auto grid = KeylessGrid(prepared, a);
  const std::size_t grid_bytes = grid->ApproxMemoryBytes();
  EXPECT_EQ(cache.FindGrid("g", a), nullptr);
  EXPECT_EQ(cache.InsertGrid("g", a, grid, grid_bytes), grid);
  EXPECT_EQ(cache.FindGrid("g", a), grid);
  EXPECT_EQ(
      cache.InsertGrid("g", a, KeylessGrid(prepared, a), grid_bytes), grid);
  const std::size_t footprint = cache.ApproxMemoryBytes();
  EXPECT_EQ(footprint,
            searcher->MemoryBytes() + n * sizeof(double) + grid_bytes);

  // A full budget rejects one new artifact of every shelved kind; a kNN
  // table offers nothing, neither itself nor the searcher it resolves.
  cache.SetByteBudget(footprint);
  EXPECT_NE(cache.GetSearcher(b, KnnBackend::kBruteForce), nullptr);
  EXPECT_EQ(cache.ComputeKnnTable(b, 5, 1).num_queries(), n);
  EXPECT_NE(cache.InsertScores("k", b, v), nullptr);
  EXPECT_NE(cache.InsertGrid("g", b, KeylessGrid(prepared, b), grid_bytes),
            nullptr);
  EXPECT_EQ(cache.ApproxMemoryBytes(), footprint);
  cache.SetByteBudget(0);

  // An advance sweeps every kind.
  cache.AdvanceEpoch(1);
  EXPECT_EQ(cache.FindGrid("g", a), nullptr);
  EXPECT_EQ(cache.FindScores("k", a), nullptr);

  const ArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.searcher_hits, 3u);    // GetSearcher + two kNN probes
  EXPECT_EQ(stats.searcher_misses, 3u);  // a, b, and b's kNN probe
  EXPECT_EQ(stats.knn_table_hits, 0u);
  EXPECT_EQ(stats.knn_table_misses, 3u);  // every computed table
  EXPECT_EQ(stats.score_hits, 1u);
  EXPECT_EQ(stats.score_misses, 2u);
  EXPECT_EQ(stats.grid_hits, 1u);
  EXPECT_EQ(stats.grid_misses, 2u);
  EXPECT_EQ(stats.budget_rejections, 3u);
  EXPECT_EQ(stats.evicted_artifacts, 3u);
  EXPECT_EQ(stats.invalidated_bytes, footprint);
  EXPECT_EQ(stats.approx_bytes, 0u);
  EXPECT_EQ(cache.num_grids() + cache.num_searchers() +
                cache.num_score_vectors(),
            0u);
}

TEST(ArtifactCacheTest, ConcurrentMixedKindsKeepOneCanonicalEntryPerKey) {
  const Dataset ds = ClusteredDataset(200, 4, 75);
  const std::size_t n = ds.num_objects();
  const PreparedDataset prepared(ds);
  ArtifactCache& cache = prepared.cache();
  const std::vector<Subspace> keys = {Subspace{0, 1}, Subspace{1, 2},
                                      Subspace{2, 3}};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 6;
  // Every kNN table, computed concurrently, must equal the one computed
  // alone beforehand.
  std::vector<KnnResultTable> expected(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    expected[k] = cache.ComputeKnnTable(keys[k], 5, 1);
  }
  const auto same_table = [n](const KnnResultTable& lhs,
                              const KnnResultTable& rhs) {
    if (lhs.num_queries() != n || rhs.num_queries() != n) return false;
    for (std::size_t q = 0; q < n; ++q) {
      const auto l = lhs.Row(q);
      const auto r = rhs.Row(q);
      if (!std::equal(l.begin(), l.end(), r.begin(), r.end())) return false;
    }
    return true;
  };
  // What each thread saw, per shelved kind and key, every round, and
  // whether each computed table matched.
  struct Seen {
    std::vector<const void*> searcher, scores, grid;
    std::vector<bool> table_matches;
  };
  std::vector<std::vector<Seen>> seen(kThreads,
                                      std::vector<Seen>(keys.size()));
  std::atomic<bool> go{false};  // release all threads at once
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          // Threads start on different keys so their misses overlap.
          const std::size_t k = (i + t) % keys.size();
          const Subspace& sub = keys[k];
          Seen& out = seen[t][k];
          out.searcher.push_back(
              cache.GetSearcher(sub, KnnBackend::kBruteForce).get());
          out.table_matches.push_back(
              same_table(cache.ComputeKnnTable(sub, 5, 1), expected[k]));
          auto scores = cache.FindScores("k", sub);
          if (!scores) {
            scores = cache.InsertScores(
                "k", sub, std::vector<double>(n, static_cast<double>(k)));
          }
          out.scores.push_back(scores.get());
          auto grid = cache.FindGrid("g", sub);
          if (!grid) {
            auto built = KeylessGrid(prepared, sub);
            const std::size_t bytes = built->ApproxMemoryBytes();
            grid = cache.InsertGrid("g", sub, std::move(built), bytes);
          }
          out.grid.push_back(grid.get());
        }
      }
    });
  }
  go.store(true);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(cache.num_searchers(), keys.size());
  EXPECT_EQ(cache.num_score_vectors(), keys.size());
  EXPECT_EQ(cache.num_grids(), keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const void* searcher =
        cache.GetSearcher(keys[k], KnnBackend::kBruteForce).get();
    const void* scores = cache.FindScores("k", keys[k]).get();
    const void* grid = cache.FindGrid("g", keys[k]).get();
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t r = 0; r < kRounds; ++r) {
        EXPECT_EQ(seen[t][k].searcher[r], searcher) << "key " << k;
        EXPECT_TRUE(seen[t][k].table_matches[r]) << "key " << k;
        EXPECT_EQ(seen[t][k].scores[r], scores) << "key " << k;
        EXPECT_EQ(seen[t][k].grid[r], grid) << "key " << k;
      }
    }
  }
  // Every score and grid lookup counted exactly once, as a hit or a miss,
  // and every computed table as a table miss.
  const ArtifactCacheStats stats = cache.stats();
  const std::size_t lookups = kThreads * kRounds * keys.size() + keys.size();
  EXPECT_EQ(stats.score_hits + stats.score_misses, lookups);
  EXPECT_EQ(stats.grid_hits + stats.grid_misses, lookups);
  EXPECT_EQ(stats.knn_table_hits, 0u);
  EXPECT_EQ(stats.knn_table_misses, lookups);
  EXPECT_EQ(stats.budget_rejections, 0u);
}

// Regression: SortedAttributeIndex orders by `<`, under which a NaN is
// equivalent to every value, so a NaN can land mid-column and split the
// sorted column into two ascending runs whose ends are not the extremes.
TEST(PreparedDatasetTest, AttributeRangeIgnoresMidColumnNaNOnceRanksExist) {
  const GridDensityScorer scorer(GridDensityParams{});
  const Subspace subspace{0, 1};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Dataset ds(40, 2);
    for (std::size_t i = 0; i < 40; ++i) {
      for (std::size_t j = 0; j < 2; ++j) ds.Set(i, j, rng.UniformDouble());
    }
    ds.Set(rng.UniformIndex(40), 0, std::numeric_limits<double>::quiet_NaN());
    const PreparedDataset warm(ds);
    warm.sorted_index();  // rank artifacts first, ranges second
    const PreparedDataset cold(ds);
    EXPECT_EQ(warm.AttributeRange(0), cold.AttributeRange(0))
        << "seed " << seed;
    EXPECT_EQ(scorer.ScoreSubspacePrepared(warm, subspace),
              scorer.ScoreSubspacePrepared(cold, subspace))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace hics
