// Parameterized parity tests: the KD-tree backend must return exactly the
// same neighbors as the brute-force reference on random data, across
// dimensionalities and k values.

#include "index/neighbor_searcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/random.h"
#include "knn_oracle.h"

namespace hics {
namespace {

Dataset RandomDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

TEST(BruteForceTest, FindsObviousNearestNeighbor) {
  auto ds = *Dataset::FromRows(
      {{0.0, 0.0}, {1.0, 0.0}, {0.1, 0.0}, {5.0, 5.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  const auto nbrs = searcher->QueryKnn(0, 2);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].id, 2u);
  EXPECT_NEAR(nbrs[0].distance, 0.1, 1e-12);
  EXPECT_EQ(nbrs[1].id, 1u);
}

TEST(BruteForceTest, ExcludesQueryObject) {
  auto ds = *Dataset::FromRows({{0.0}, {0.0}, {1.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const auto nbrs = searcher->QueryKnn(0, 3);
  ASSERT_EQ(nbrs.size(), 2u);
  for (const Neighbor& nb : nbrs) EXPECT_NE(nb.id, 0u);
}

TEST(BruteForceTest, SubspaceRestrictedDistance) {
  // Distances computed only in attribute 0: object 2 is nearest to 0
  // despite being far away in attribute 1.
  auto ds = *Dataset::FromRows({{0.0, 0.0}, {0.5, 0.0}, {0.1, 100.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const auto nbrs = searcher->QueryKnn(0, 1);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].id, 2u);
}

TEST(BruteForceTest, RadiusQuery) {
  // Objects 1 (0.5) and 2 (0.9) lie within 1.0 of object 0; 3 does not.
  auto ds = *Dataset::FromRows({{0.0}, {0.5}, {0.9}, {2.0}});
  EXPECT_EQ(MakeBruteForceSearcher(ds, Subspace({0}))->CountRadius(0, 1.0),
            2u);
  EXPECT_EQ(MakeKdTreeSearcher(ds, Subspace({0}))->CountRadius(0, 1.0), 2u);
}

// The QueryRadius matched is the exhaustive OracleQueryRadius (knn_oracle.h).
TEST(BruteForceTest, CountRadiusMatchesQueryRadius) {
  Dataset ds = RandomDataset(200, 3, 9);
  auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  for (std::size_t q = 0; q < 20; ++q) {
    for (double radius : {0.05, 0.2, 0.6}) {
      EXPECT_EQ(searcher->CountRadius(q, radius),
                OracleQueryRadius(ds, ds.FullSpace(), q, radius).size())
          << "query " << q << " radius " << radius;
    }
  }
}

TEST(KdTreeTest, DefaultCountRadiusMatches) {
  Dataset ds = RandomDataset(150, 2, 10);
  auto kd = MakeKdTreeSearcher(ds, ds.FullSpace());
  for (std::size_t q = 0; q < 10; ++q) {
    EXPECT_EQ(kd->CountRadius(q, 0.3),
              OracleQueryRadius(ds, ds.FullSpace(), q, 0.3).size());
  }
}

TEST(BruteForceTest, KLargerThanDatasetReturnsAll) {
  auto ds = RandomDataset(5, 2, 1);
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  EXPECT_EQ(searcher->QueryKnn(0, 100).size(), 4u);
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  Dataset ds(40, 2);  // all zeros
  auto searcher = MakeKdTreeSearcher(ds, Subspace({0, 1}));
  const auto nbrs = searcher->QueryKnn(3, 5);
  ASSERT_EQ(nbrs.size(), 5u);
  for (const Neighbor& nb : nbrs) {
    EXPECT_EQ(nb.distance, 0.0);
    EXPECT_NE(nb.id, 3u);
  }
}

/// Node count of a median-split tree with 16-point buckets over m
/// distinct points.
std::size_t KdNodeCount(std::size_t m) {
  return m <= 16 ? 1 : 1 + KdNodeCount(m / 2) + KdNodeCount(m - m / 2);
}

TEST(SearcherMemoryTest, ReportedBytesAreTheBufferSizes) {
  const std::size_t n = 1000;
  const Dataset ds = RandomDataset(n, 3, 91);
  const Subspace subspace({0, 2});
  const std::size_t dims = subspace.size();
  // Brute force: row-major copy, SoA copy and norms in double.
  EXPECT_EQ(MakeBruteForceSearcher(ds, subspace)->MemoryBytes(),
            (2 * n * dims + n) * sizeof(double));
  // KD-tree: one tree-ordered coordinate copy, the uint32 position<->id
  // maps, and 24-byte nodes (split value plus four uint32 fields).
  EXPECT_EQ(MakeKdTreeSearcher(ds, subspace)->MemoryBytes(),
            n * dims * sizeof(double) + 2 * n * sizeof(std::uint32_t) +
                KdNodeCount(n) * 24);
}

TEST(KdTreeDeathTest, RejectsMoreObjectsThanUint32Indices) {
  // Checked before any column is read, so the dataset needs no storage.
  const Dataset ds(std::size_t{1} << 32, 0);
  EXPECT_DEATH(MakeKdTreeSearcher(ds, Subspace({0})), "uint32_t");
}

struct ParityCase {
  std::size_t n;
  std::size_t d;
  std::size_t k;
  std::uint64_t seed;
};

class KnnParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(KnnParityTest, KdTreeMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  for (std::size_t q = 0; q < std::min<std::size_t>(c.n, 25); ++q) {
    const auto expected = brute->QueryKnn(q, c.k);
    const auto actual = kd->QueryKnn(q, c.k);
    ASSERT_EQ(actual.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id)
          << "query " << q << " neighbor " << i;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-12);
    }
  }
}

TEST_P(KnnParityTest, RadiusMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed + 1000);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  const double radius = 0.25;
  for (std::size_t q = 0; q < std::min<std::size_t>(c.n, 15); ++q) {
    const std::size_t expected = OracleQueryRadius(ds, full, q, radius).size();
    EXPECT_EQ(brute->CountRadius(q, radius), expected) << "query " << q;
    EXPECT_EQ(kd->CountRadius(q, radius), expected) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, KnnParityTest,
    ::testing::Values(ParityCase{30, 1, 3, 1}, ParityCase{100, 2, 5, 2},
                      ParityCase{100, 3, 10, 3}, ParityCase{200, 5, 7, 4},
                      ParityCase{150, 8, 15, 5}, ParityCase{64, 2, 63, 6},
                      ParityCase{500, 4, 1, 7}));

// --------------------------------------------------------------------------
// QueryKnnPoint: the const out-of-sample query path (serving).
// --------------------------------------------------------------------------

TEST(QueryKnnPointTest, FindsNearestTrainingPoints) {
  auto ds = *Dataset::FromRows(
      {{0.0, 0.0}, {1.0, 0.0}, {0.1, 0.0}, {5.0, 5.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0, 1}));
  const std::vector<double> query = {0.05, 0.0};
  const auto nbrs = searcher->QueryKnnPoint(query, 2);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].id, 0u);
  EXPECT_NEAR(nbrs[0].distance, 0.05, 1e-12);
  EXPECT_EQ(nbrs[1].id, 2u);
}

TEST(QueryKnnPointTest, DoesNotExcludeCoincidingTrainingPoint) {
  // Unlike QueryKnn(q, ...), a point query excludes nothing: a query that
  // coincides with a training object sees it at distance 0.
  auto ds = *Dataset::FromRows({{0.0}, {1.0}, {2.0}});
  auto searcher = MakeBruteForceSearcher(ds, Subspace({0}));
  const std::vector<double> query = {1.0};
  const auto nbrs = searcher->QueryKnnPoint(query, 1);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].id, 1u);
  EXPECT_EQ(nbrs[0].distance, 0.0);
}

TEST(QueryKnnPointTest, KLargerThanDatasetReturnsAll) {
  auto ds = *Dataset::FromRows({{0.0}, {1.0}, {2.0}});
  auto searcher = MakeKdTreeSearcher(ds, Subspace({0}));
  const std::vector<double> query = {0.4};
  const auto nbrs = searcher->QueryKnnPoint(query, 99);
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST_P(KnnParityTest, QueryKnnPointKdTreeMatchesBruteForce) {
  const ParityCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed + 2000);
  const Subspace full = ds.FullSpace();
  auto brute = MakeBruteForceSearcher(ds, full);
  auto kd = MakeKdTreeSearcher(ds, full);
  Rng rng(c.seed + 3000);
  std::vector<double> query(c.d);
  for (int trial = 0; trial < 10; ++trial) {
    for (double& v : query) v = rng.UniformDouble();
    const auto expected = brute->QueryKnnPoint(query, c.k);
    const auto actual = kd->QueryKnnPoint(query, c.k);
    ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id)
          << "trial " << trial << " neighbor " << i;
      // Exact equality, not NEAR: serving depends on the backends being
      // bit-identical so the cache / backend choice can never change a
      // served score.
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(QueryKnnPointTest, MatchesQueryKnnOnTrainingPointsPlusSelf) {
  // A point query at training object q must return q itself at distance 0
  // followed by exactly QueryKnn(q, k-1)'s neighbors (no duplicates in
  // the data).
  Dataset ds = RandomDataset(60, 3, 99);
  auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  std::vector<double> point(3);
  for (std::size_t q = 0; q < 10; ++q) {
    for (std::size_t j = 0; j < 3; ++j) point[j] = ds.Get(q, j);
    const auto with_self = searcher->QueryKnnPoint(point, 5);
    const auto without_self = searcher->QueryKnn(q, 4);
    ASSERT_EQ(with_self.size(), 5u);
    EXPECT_EQ(with_self[0].id, q);
    EXPECT_EQ(with_self[0].distance, 0.0);
    for (std::size_t i = 0; i < without_self.size(); ++i) {
      EXPECT_EQ(with_self[i + 1].id, without_self[i].id);
      EXPECT_EQ(with_self[i + 1].distance, without_self[i].distance);
    }
  }
}

}  // namespace
}  // namespace hics
