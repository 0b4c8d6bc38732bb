// Batched all-kNN engine guarantees:
//  (1) QueryAllKnn is *element-identical* (ids, bit-exact distances, and
//      ordering) to per-query QueryKnn on both backends, across random
//      datasets, subspace sizes, duplicate-heavy data, thread counts, and
//      the k edge cases {0, 1, N-1, N};
//  (2) LOF scores are byte-identical before/after the batch migration and
//      across num_threads;
//  (3) the kd-tree's CountRadius counts the radius neighborhood of the
//      exhaustive reference (knn_oracle.h) after its relayout.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/neighbor_searcher.h"
#include "knn_oracle.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"

namespace hics {
namespace {

Dataset RandomDataset(std::size_t n, std::size_t d, std::uint64_t seed,
                      bool with_duplicates = false) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  if (with_duplicates) {
    // Copy rows around so ties in distance (and zero distances) are
    // plentiful; the deterministic (distance, id) order must still hold.
    for (std::size_t i = 2; i + 1 < n; i += 3) {
      for (std::size_t j = 0; j < d; ++j) ds.Set(i + 1, j, ds.Get(i, j));
    }
  }
  return ds;
}

/// Element-identical comparison of one batch table against fresh per-query
/// queries. EXPECT_EQ on `distance` is deliberate: bit-exact, not NEAR.
void ExpectBatchMatchesPerQuery(const NeighborSearcher& searcher,
                                std::size_t k, std::size_t num_threads) {
  KnnResultTable table;
  searcher.QueryAllKnn(k, &table, num_threads);
  ASSERT_EQ(table.num_queries(), searcher.num_objects());
  std::vector<Neighbor> expected;
  for (std::size_t q = 0; q < searcher.num_objects(); ++q) {
    searcher.QueryKnn(q, k, &expected);
    const auto row = table.Row(q);
    ASSERT_EQ(row.size(), expected.size())
        << "query " << q << " k " << k << " threads " << num_threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(row[i].id, expected[i].id)
          << "query " << q << " neighbor " << i << " k " << k;
      EXPECT_EQ(row[i].distance, expected[i].distance)
          << "query " << q << " neighbor " << i << " k " << k;
    }
  }
}

struct BatchCase {
  std::size_t n;
  std::size_t d;
  std::uint64_t seed;
  bool duplicates;
};

class KnnBatchParityTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(KnnBatchParityTest, BruteForceBatchMatchesPerQuery) {
  const BatchCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed, c.duplicates);
  // Random subspace of the dataset's attributes (always non-empty).
  Rng rng(c.seed + 99);
  std::vector<std::size_t> dims;
  for (std::size_t j = 0; j < c.d; ++j) {
    if (dims.empty() || rng.UniformDouble() < 0.7) dims.push_back(j);
  }
  const Subspace subspace(dims);
  const auto searcher = MakeBruteForceSearcher(ds, subspace);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        c.n - 1, c.n}) {
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{3}}) {
      ExpectBatchMatchesPerQuery(*searcher, k, num_threads);
    }
  }
}

TEST_P(KnnBatchParityTest, KdTreeBatchMatchesPerQuery) {
  const BatchCase& c = GetParam();
  Dataset ds = RandomDataset(c.n, c.d, c.seed + 7, c.duplicates);
  const auto searcher = MakeKdTreeSearcher(ds, ds.FullSpace());
  for (std::size_t k : {std::size_t{1}, std::size_t{8}, c.n - 1}) {
    ExpectBatchMatchesPerQuery(*searcher, k, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, KnnBatchParityTest,
    ::testing::Values(BatchCase{20, 1, 1, false},
                      BatchCase{60, 2, 2, false},
                      BatchCase{130, 3, 3, true},
                      BatchCase{200, 5, 4, false},
                      BatchCase{300, 4, 5, true},
                      // More objects than one kTile=128 block in both
                      // directions, so interior/edge tiles all occur.
                      BatchCase{400, 2, 6, false}));

TEST(KnnBatchTest, CrossBackendBatchesAgree) {
  Dataset ds = RandomDataset(220, 3, 11, /*with_duplicates=*/true);
  const auto brute = MakeBruteForceSearcher(ds, ds.FullSpace());
  const auto kd = MakeKdTreeSearcher(ds, ds.FullSpace());
  KnnResultTable bt, kt;
  brute->QueryAllKnn(10, &bt, 1);
  kd->QueryAllKnn(10, &kt, 1);
  for (std::size_t q = 0; q < 220; ++q) {
    const auto a = bt.Row(q);
    const auto b = kt.Row(q);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q;
      EXPECT_EQ(a[i].distance, b[i].distance) << "query " << q;
    }
  }
}

TEST(KnnBatchTest, KdTreeMatchesBruteOnQuantizedGrid) {
  // Integer-valued 2-D data puts many neighbors at exactly the k-th
  // distance and many points exactly on the kd-tree's splitting planes.
  // A tie at the k-th distance with a smaller id still belongs in the
  // result under the (distance, id) order, so the kd-tree must not prune
  // a far child whose plane distance equals the current k-th distance.
  const std::size_t n = 400;
  const std::size_t k = 10;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Dataset ds(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        ds.Set(i, j, static_cast<double>(rng.UniformIndex(12)));
      }
    }
    const auto brute = MakeBruteForceSearcher(ds, ds.FullSpace());
    const auto kd = MakeKdTreeSearcher(ds, ds.FullSpace());
    KnnResultTable bt, kt;
    brute->QueryAllKnn(k, &bt, 1);
    kd->QueryAllKnn(k, &kt, 1);
    for (std::size_t q = 0; q < n; ++q) {
      const auto a = bt.Row(q);
      const auto b = kt.Row(q);
      ASSERT_EQ(a.size(), b.size()) << "seed " << seed << " query " << q;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "seed " << seed << " query " << q;
        EXPECT_EQ(a[i].distance, b[i].distance)
            << "seed " << seed << " query " << q;
      }
    }
    // Out-of-sample points on the grid, including ones that coincide
    // with training rows (distance-0 ties).
    std::vector<Neighbor> want, got;
    for (std::size_t x = 0; x < 12; x += 3) {
      for (std::size_t y = 0; y < 12; ++y) {
        const double point[2] = {static_cast<double>(x),
                                 static_cast<double>(y)};
        brute->QueryKnnPoint(point, k, &want);
        kd->QueryKnnPoint(point, k, &got);
        EXPECT_EQ(got, want) << "seed " << seed << " point (" << x << ", "
                             << y << ")";
      }
    }
  }
}

TEST(KnnBatchTest, TableReuseAcrossShapes) {
  Dataset big = RandomDataset(150, 2, 21);
  Dataset small = RandomDataset(40, 2, 22);
  const auto s1 = MakeBruteForceSearcher(big, big.FullSpace());
  const auto s2 = MakeBruteForceSearcher(small, small.FullSpace());
  KnnResultTable table;
  s1->QueryAllKnn(12, &table);
  ASSERT_EQ(table.num_queries(), 150u);
  s2->QueryAllKnn(5, &table);  // shrinking reuse must fully re-shape
  ASSERT_EQ(table.num_queries(), 40u);
  ASSERT_EQ(table.k(), 5u);
  std::vector<Neighbor> expected;
  for (std::size_t q = 0; q < 40; ++q) {
    s2->QueryKnn(q, 5, &expected);
    const auto row = table.Row(q);
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(row[i].id, expected[i].id);
      EXPECT_EQ(row[i].distance, expected[i].distance);
    }
  }
}

TEST(KnnBatchTest, LofScoresByteIdenticalAcrossMigrationAndThreads) {
  Dataset ds = RandomDataset(350, 6, 31, /*with_duplicates=*/true);
  const Subspace subspace({0, 2, 3});
  const std::size_t n = ds.num_objects();
  const auto brute = MakeSearcher(ds, subspace, KnnBackend::kBruteForce);
  // Reference: the pre-batching configuration (per-query brute-force
  // table, serial) scored through LOF's passes 2-3.
  KnnResultTable reference_table;
  PerQueryAllKnn(*brute, 10, &reference_table);
  const auto expected =
      LofScorer({.min_pts = 10, .num_threads = 1})
          .ScoreFromTable(reference_table, n, 1);
  for (std::size_t num_threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const LofScorer lof({.min_pts = 10, .num_threads = num_threads});
    for (bool batch : {false, true}) {
      KnnResultTable table;
      if (batch) {
        brute->QueryAllKnn(10, &table, num_threads);
      } else {
        PerQueryAllKnn(*brute, 10, &table, num_threads);
      }
      const auto scores = lof.ScoreFromTable(table, n, num_threads);
      ASSERT_EQ(scores.size(), expected.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], expected[i])
            << "object " << i << " batch " << batch << " threads "
            << num_threads;
      }
    }
    // The scorer's own path (resolved backend, batched table) must not
    // change scores either.
    EXPECT_EQ(lof.ScoreSubspace(ds, subspace), expected)
        << "threads " << num_threads;
  }
}

/// The kd-tree's batched QueryAllKnn (one table per thread count) against
/// brute force's per-query QueryKnn, row by row. Rows are compared whole
/// and only the first mismatching row is reported: at k = N-1 a row holds
/// every other object.
void ExpectKdBatchMatchesBrutePerQuery(const Dataset& ds,
                                       const Subspace& subspace) {
  const std::size_t n = ds.num_objects();
  const auto kd = MakeKdTreeSearcher(ds, subspace);
  const auto brute = MakeBruteForceSearcher(ds, subspace);
  std::vector<Neighbor> expected;
  for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{65},
                        n - 1}) {
    KnnResultTable serial, threaded;
    kd->QueryAllKnn(k, &serial, 1);
    kd->QueryAllKnn(k, &threaded, 4);
    ASSERT_EQ(serial.num_queries(), n);
    ASSERT_EQ(threaded.num_queries(), n);
    for (std::size_t q = 0; q < n; ++q) {
      brute->QueryKnn(q, k, &expected);
      for (const KnnResultTable* table : {&serial, &threaded}) {
        const auto row = table->Row(q);
        ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                               expected.end()))
            << "query " << q << " k " << k << " threads "
            << (table == &serial ? 1 : 4);
      }
    }
  }
}

TEST(KdTreeBatchTest, ManyLeavesMatchBrutePerQuery) {
  // 2500 objects fill ~200 leaves, so queries visit many buckets;
  // {1, 2, 4, 5, 7} is not a prefix of the attributes, so the tree-ordered
  // copy gathers non-adjacent columns, and with 5 dimensions every lane of
  // the canonical 4-lane distance sum is used.
  const Dataset ds = RandomDataset(2500, 8, 61);
  ExpectKdBatchMatchesBrutePerQuery(ds, Subspace({1, 2, 4, 5, 7}));
}

TEST(KdTreeBatchTest, DuplicateHeavyColumnsMatchBrutePerQuery) {
  // Three levels per column leave 27 distinct points among 2500 rows in
  // the {0, 2, 3} projection: identical points cannot be split, so leaves
  // grow far past the bucket size and are scanned block by block, and
  // every distance ties with hundreds of others.
  Rng rng(71);
  Dataset ds(2500, 4);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ds.Set(i, j, 0.5 * static_cast<double>(rng.UniformIndex(3)));
    }
  }
  ExpectKdBatchMatchesBrutePerQuery(ds, Subspace({0, 2, 3}));
}

TEST(KdTreeBatchTest, RadiusQueriesMatchBruteAfterRelayout) {
  // RIS reaches the kd-tree through CountRadius, which must exclude the
  // query by object id, not by tree position.
  Dataset quantized(2500, 3);
  Rng rng(83);
  for (std::size_t i = 0; i < quantized.num_objects(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      quantized.Set(i, j, 0.25 * static_cast<double>(rng.UniformIndex(5)));
    }
  }
  Dataset uniform = RandomDataset(2500, 5, 81);
  for (const auto& [ds, subspace] :
       {std::pair{&uniform, Subspace({0, 2, 4})},
        std::pair{&quantized, Subspace({0, 1, 2})}}) {
    const auto kd = MakeKdTreeSearcher(*ds, subspace);
    const auto brute = MakeBruteForceSearcher(*ds, subspace);
    for (std::size_t q = 0; q < ds->num_objects(); q += 13) {
      for (double radius : {0.0, 0.05, 0.25, 0.6}) {
        const std::size_t expected =
            OracleQueryRadius(*ds, subspace, q, radius).size();
        EXPECT_EQ(kd->CountRadius(q, radius), expected)
            << "query " << q << " radius " << radius;
        EXPECT_EQ(brute->CountRadius(q, radius), expected)
            << "query " << q << " radius " << radius;
      }
    }
  }
}

TEST(KnnBatchTest, ChooseKnnBackendShape) {
  // Exact constants are calibration-dependent; the invariants are that the
  // KD-tree is only ever chosen for low-dimensional or large-N workloads
  // and that the verdict is always one of the two backends.
  for (std::size_t n : {10u, 100u, 1000u, 10000u}) {
    for (std::size_t d : {1u, 2u, 4u, 8u, 16u}) {
      const KnnBackend choice = ChooseKnnBackend(n, d);
      EXPECT_TRUE(choice == KnnBackend::kKdTree ||
                  choice == KnnBackend::kBruteForce);
      if (d > 8 || n < 64) {
        EXPECT_EQ(choice, KnnBackend::kBruteForce)
            << "n " << n << " d " << d;
      }
      if (d <= 2 && n >= 1000) {
        EXPECT_EQ(choice, KnnBackend::kKdTree) << "n " << n << " d " << d;
      }
    }
  }
}

}  // namespace
}  // namespace hics
