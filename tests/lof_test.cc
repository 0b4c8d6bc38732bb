#include "outlier/lof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "engine/prepared_dataset.h"
#include "index/neighbor_searcher.h"
#include "scorer_oracle.h"

namespace hics {
namespace {

/// A dense Gaussian blob plus one far-away point (the last object).
Dataset BlobWithOutlier(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ds.Set(i, 0, rng.Gaussian(0.5, 0.02));
    ds.Set(i, 1, rng.Gaussian(0.5, 0.02));
  }
  ds.Set(n - 1, 0, 0.95);
  ds.Set(n - 1, 1, 0.95);
  return ds;
}

TEST(LofTest, UniformDataScoresNearOne) {
  Rng rng(1);
  Dataset ds(400, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    ds.Set(i, 0, rng.UniformDouble());
    ds.Set(i, 1, rng.UniformDouble());
  }
  LofScorer lof({.min_pts = 15});
  const auto scores = lof.ScoreFullSpace(ds);
  // Interior points of uniform data have LOF ~ 1; allow boundary effects.
  std::size_t near_one = 0;
  for (double s : scores) {
    EXPECT_GT(s, 0.5);
    if (s < 1.3) ++near_one;
  }
  EXPECT_GT(near_one, 350u);
}

TEST(LofTest, IsolatedPointGetsTopScore) {
  Dataset ds = BlobWithOutlier(200, 2);
  LofScorer lof({.min_pts = 10});
  const auto scores = lof.ScoreFullSpace(ds);
  const std::size_t outlier = 199;
  for (std::size_t i = 0; i < 199; ++i) {
    EXPECT_GT(scores[outlier], scores[i]);
  }
  EXPECT_GT(scores[outlier], 2.0);
}

TEST(LofTest, KdTreeBackendMatchesBruteForce) {
  Dataset ds = BlobWithOutlier(300, 3);
  const LofScorer lof({.min_pts = 12});
  KnnResultTable brute_table, kd_table;
  MakeSearcher(ds, ds.FullSpace(), KnnBackend::kBruteForce)
      ->QueryAllKnn(12, &brute_table);
  MakeSearcher(ds, ds.FullSpace(), KnnBackend::kKdTree)
      ->QueryAllKnn(12, &kd_table);
  const auto s1 = lof.ScoreFromTable(brute_table, ds.num_objects(), 1);
  const auto s2 = lof.ScoreFromTable(kd_table, ds.num_objects(), 1);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-9) << "object " << i;
  }
}

TEST(LofTest, KdTreeNeighborsAndScoresPermuteWithRows) {
  // A row shuffle permutes the kd-tree's kNN tables and the LOF scores bit
  // for bit when no two distances tie: the (distance, id) order then never
  // reads an id, so only the labels move.
  const std::size_t n = 600;
  const std::size_t k = 10;
  Rng rng(8);
  Dataset data(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) data.Set(i, j, rng.UniformDouble());
  }
  std::vector<std::size_t> perm(n);  // shuffled row i is data row perm[i]
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  Dataset shuffled(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      shuffled.Set(i, j, data.Get(perm[i], j));
    }
  }
  for (const Subspace& subspace : {Subspace{2, 5}, Subspace{0, 1, 3, 4}}) {
    // LOF ranks these subspaces through the kd-tree.
    ASSERT_EQ(ResolveKnnSearcher(data, subspace, k)->backend(),
              KnnBackend::kKdTree);
    // k + 1 neighbors, so the strict order below also separates the k-th
    // neighbor from the first one left out.
    KnnResultTable original, permuted;
    MakeKdTreeSearcher(data, subspace)->QueryAllKnn(k + 1, &original);
    MakeKdTreeSearcher(shuffled, subspace)->QueryAllKnn(k + 1, &permuted);
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = original.Row(perm[i]);
      const auto got = permuted.Row(i);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t m = 0; m < want.size(); ++m) {
        if (m > 0) {
          ASSERT_LT(want[m - 1].distance, want[m].distance);
        }
        EXPECT_EQ(perm[got[m].id], want[m].id) << "row " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[m].distance),
                  std::bit_cast<std::uint64_t>(want[m].distance))
            << "row " << i;
      }
    }
    const LofScorer lof({.min_pts = k});
    const auto scores = lof.ScoreSubspace(data, subspace);
    const auto shuffled_scores = lof.ScoreSubspace(shuffled, subspace);
    ASSERT_EQ(shuffled_scores.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(shuffled_scores[i]),
                std::bit_cast<std::uint64_t>(scores[perm[i]]))
          << "row " << i;
    }
  }
}

TEST(LofTest, SubspaceRestrictionChangesResult) {
  // Outlier only in attribute 1; attribute 0 is identical for everyone.
  Rng rng(4);
  Dataset ds(150, 2);
  for (std::size_t i = 0; i < 150; ++i) {
    ds.Set(i, 0, rng.Gaussian(0.5, 0.05));
    ds.Set(i, 1, rng.Gaussian(0.5, 0.02));
  }
  ds.Set(149, 1, 2.0);  // deviates in attr 1 only
  LofScorer lof({.min_pts = 10});
  const auto scores_attr1 = lof.ScoreSubspace(ds, Subspace({1}));
  const auto scores_attr0 = lof.ScoreSubspace(ds, Subspace({0}));
  const auto max0 =
      *std::max_element(scores_attr0.begin(), scores_attr0.end());
  EXPECT_GT(scores_attr1[149], 3.0);
  EXPECT_GT(scores_attr1[149], max0);
}

TEST(LofTest, DuplicatePointsScoreOne) {
  Dataset ds(50, 2);  // fifty identical zero points
  LofScorer lof({.min_pts = 5});
  const auto scores = lof.ScoreFullSpace(ds);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(LofTest, EmptyAndTinyDatasets) {
  Dataset empty(0, 2);
  LofScorer lof({.min_pts = 5});
  EXPECT_TRUE(lof.ScoreFullSpace(empty).empty());

  Dataset one(1, 2);
  const auto s1 = lof.ScoreFullSpace(one);
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_DOUBLE_EQ(s1[0], 1.0);

  Dataset two = *Dataset::FromRows({{0.0, 0.0}, {1.0, 1.0}});
  const auto s2 = lof.ScoreFullSpace(two);
  ASSERT_EQ(s2.size(), 2u);
  // Two points are each other's neighborhood: LOF 1.
  EXPECT_DOUBLE_EQ(s2[0], 1.0);
  EXPECT_DOUBLE_EQ(s2[1], 1.0);
}

TEST(LofTest, MinPtsClampedToDatasetSize) {
  Dataset ds = BlobWithOutlier(8, 5);
  LofScorer lof({.min_pts = 100});
  const auto scores = lof.ScoreFullSpace(ds);
  EXPECT_EQ(scores.size(), 8u);
  for (double s : scores) EXPECT_GT(s, 0.0);
}

TEST(LofTest, ScoreIsScaleInvariant) {
  // LOF is a ratio of densities, so uniform scaling of the data must not
  // change the scores.
  Dataset ds = BlobWithOutlier(120, 6);
  Dataset scaled = ds;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      scaled.Set(i, j, 1000.0 * ds.Get(i, j));
    }
  }
  LofScorer lof({.min_pts = 10});
  const auto s1 = lof.ScoreFullSpace(ds);
  const auto s2 = lof.ScoreFullSpace(scaled);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1[i], s2[i], 1e-9);
  }
}

TEST(LofTest, FitSubspaceDrawsOneTableForScoresAndState) {
  // Gaussian data with a block of duplicates, so some densities are
  // infinite: the scores must equal the oracle's LOF and the state the
  // oracle's [k_distance, lrd], for every thread count, from one table.
  Rng rng(11);
  Dataset ds(180, 3);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) ds.Set(i, j, rng.Gaussian(0.0, 1.0));
  }
  for (std::size_t i = 20; i < 30; ++i) {
    for (std::size_t j = 0; j < 3; ++j) ds.Set(i, j, ds.Get(19, j));
  }
  const PreparedDataset prepared(ds);
  for (const Subspace& subspace :
       {Subspace{0, 1}, Subspace{1, 2}, Subspace{0, 1, 2}}) {
    const LofDensities oracle =
        OracleLofDensities(OracleKnnTable(ds, subspace, 7));
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const LofScorer lof({.min_pts = 7, .num_threads = threads});
      const std::uint64_t before =
          prepared.cache().stats().knn_table_misses;
      const FittedSubspace fit = lof.FitSubspace(prepared, subspace);
      EXPECT_EQ(prepared.cache().stats().knn_table_misses, before + 1);
      EXPECT_EQ(fit.scores, OracleLofScores(ds, subspace, 7))
          << subspace.ToString() << " threads=" << threads;
      ASSERT_EQ(fit.state.channels.size(), 2u);
      EXPECT_EQ(fit.state.channels[0], oracle.k_distance)
          << subspace.ToString() << " threads=" << threads;
      EXPECT_EQ(fit.state.channels[1], oracle.lrd)
          << subspace.ToString() << " threads=" << threads;
      EXPECT_EQ(lof.ScoreSubspacePrepared(prepared, subspace), fit.scores);
    }
  }
}

TEST(LofTest, NameIsLof) {
  EXPECT_EQ(LofScorer().name(), "lof");
}

}  // namespace
}  // namespace hics
