// Grid-density scoring tier (DESIGN.md §5h): the O(N) histogram scorer
// must (1) agree with a brute-force occupancy oracle, (2) be
// bit-identical across SIMD tiers, thread counts, and the cold /
// prepared / cached paths, (3) handle degenerate grids (single point,
// one bin, constant attributes, NaN values) by scoring zeros instead of
// dividing by a zero spread, (4) answer out-of-sample queries from its
// serialized trained state exactly as the in-sample pass scored the same
// coordinates, and (5) fail closed on tampered trained state.

#include "outlier/grid_density.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/random.h"
#include "engine/prepared_dataset.h"
#include "simd/simd.h"

namespace hics {
namespace {

using simd::SimdTier;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (simd::DetectedTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (simd::DetectedTier() >= SimdTier::kAvx512) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

Dataset RandomDataset(std::size_t n, std::size_t d, std::uint64_t seed,
                      bool with_nan = false) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ds.Set(i, j, rng.UniformDouble() * 10.0 - 5.0);
    }
  }
  if (with_nan && n > 6) {
    ds.Set(n / 3, 0, std::numeric_limits<double>::quiet_NaN());
    ds.Set(n / 2, d - 1, std::numeric_limits<double>::quiet_NaN());
  }
  return ds;
}

/// Brute-force oracle: per-axis equi-width bins via the canonical scalar
/// mapping, density of point i = number of points sharing its cell (plus
/// the face-adjacent cells' occupants when smoothing), naive-summation
/// Z-score of sparsity. O(N^2), independent of SubspaceGrid.
std::vector<double> OracleScores(const Dataset& ds, const Subspace& subspace,
                                 std::size_t bins, bool smooth) {
  const std::size_t n = ds.num_objects();
  const std::size_t d = subspace.size();
  std::vector<double> lo(d), width(d);
  for (std::size_t j = 0; j < d; ++j) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = ds.Get(i, subspace[j]);
      if (std::isnan(v)) continue;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    if (!(mn <= mx)) {
      mn = 0.0;
      mx = 0.0;
    }
    lo[j] = mn;
    width[j] = mx - mn > 0.0 ? mx - mn : 1.0;
  }
  std::vector<std::vector<std::uint32_t>> cell(n,
                                               std::vector<std::uint32_t>(d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      cell[i][j] = simd::BinIndexOne(ds.Get(i, subspace[j]), lo[j],
                                     static_cast<double>(bins) / width[j],
                                     static_cast<double>(bins - 1));
    }
  }
  // A neighbor differs from the query cell in exactly one axis by one.
  auto counted = [&](const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b) {
    std::size_t diff_axes = 0;
    std::size_t diff_by = 0;
    for (std::size_t j = 0; j < d; ++j) {
      if (a[j] != b[j]) {
        ++diff_axes;
        diff_by = a[j] > b[j] ? a[j] - b[j] : b[j] - a[j];
      }
    }
    if (diff_axes == 0) return true;
    return smooth && diff_axes == 1 && diff_by == 1;
  };
  std::vector<double> f(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t c = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (counted(cell[i], cell[k])) ++c;
    }
    f[i] = static_cast<double>(c);
  }
  if (n < 2) return std::vector<double>(n, 0.0);
  double sum = 0.0;
  for (double v : f) sum += v;
  const double mean = sum / static_cast<double>(n);
  double ssd = 0.0;
  for (double v : f) ssd += (v - mean) * (v - mean);
  const double sigma = std::sqrt(ssd / static_cast<double>(n - 1));
  if (!(sigma > 0.0)) return std::vector<double>(n, 0.0);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) scores[i] = (mean - f[i]) / sigma;
  return scores;
}

TEST(GridDensityTest, MatchesBruteForceOracle) {
  for (bool smooth : {false, true}) {
    for (bool with_nan : {false, true}) {
      const Dataset ds = RandomDataset(64, 5, 301 + with_nan, with_nan);
      const Subspace subspace({0, 2, 4});
      GridDensityParams params;
      params.bins_per_dim = 4;
      params.smooth = smooth;
      const auto scores = GridDensityScorer(params).ScoreSubspace(ds, subspace);
      const auto oracle = OracleScores(ds, subspace, 4, smooth);
      ASSERT_EQ(scores.size(), oracle.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_NEAR(scores[i], oracle[i], 1e-9)
            << "object " << i << " smooth=" << smooth << " nan=" << with_nan;
      }
    }
  }
}

TEST(GridDensityTest, HigherDimensionalOracleParity) {
  // Exercises the wider mixed-radix keys and the 2|S|-probe smoothing.
  const Dataset ds = RandomDataset(120, 6, 307);
  const Subspace subspace({0, 1, 2, 3, 4, 5});
  for (bool smooth : {false, true}) {
    GridDensityParams params;
    params.bins_per_dim = 3;
    params.smooth = smooth;
    const auto scores = GridDensityScorer(params).ScoreSubspace(ds, subspace);
    const auto oracle = OracleScores(ds, subspace, 3, smooth);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_NEAR(scores[i], oracle[i], 1e-9) << "object " << i;
    }
  }
}

TEST(GridDensityTest, BitIdenticalAcrossTiersAndThreads) {
  const Dataset ds = RandomDataset(3000, 4, 311, /*with_nan=*/true);
  const Subspace subspace({0, 1, 3});
  for (bool smooth : {false, true}) {
    std::vector<double> reference;
    {
      simd::ScopedSimdTier forced(SimdTier::kScalar);
      GridDensityParams params;
      params.smooth = smooth;
      params.num_threads = 1;
      reference = GridDensityScorer(params).ScoreSubspace(ds, subspace);
    }
    for (SimdTier tier : AvailableTiers()) {
      for (std::size_t threads : {1u, 2u, 4u}) {
        simd::ScopedSimdTier forced(tier);
        GridDensityParams params;
        params.smooth = smooth;
        params.num_threads = threads;
        const auto scores = GridDensityScorer(params).ScoreSubspace(ds,
                                                                    subspace);
        ASSERT_EQ(scores.size(), reference.size());
        for (std::size_t i = 0; i < scores.size(); ++i) {
          EXPECT_EQ(Bits(scores[i]), Bits(reference[i]))
              << "object " << i << " tier=" << simd::SimdTierName(tier)
              << " threads=" << threads << " smooth=" << smooth;
        }
      }
    }
  }
}

TEST(GridDensityTest, ColdPreparedAndCachedPathsAreByteIdentical) {
  const Dataset ds = RandomDataset(500, 4, 313);
  const Subspace subspace({0, 2});
  const GridDensityScorer scorer;
  const auto cold = scorer.ScoreSubspace(ds, subspace);
  PreparedDataset prepared(ds);
  EXPECT_EQ(scorer.ScoreSubspacePrepared(prepared, subspace), cold);
  // Cold cache: miss then compute; warm cache: pure lookup. Both byte-equal
  // to the uncached path.
  const auto miss = scorer.ScoreSubspaceCached(prepared, subspace);
  const auto hit = scorer.ScoreSubspaceCached(prepared, subspace);
  EXPECT_EQ(miss, cold);
  EXPECT_EQ(hit, cold);
  const auto stats = prepared.cache().stats();
  EXPECT_GE(stats.score_hits, 1u);
  EXPECT_GE(stats.score_misses, 1u);
}

TEST(GridDensityTest, CacheKeyEncodesScoreAffectingParamsOnly) {
  GridDensityParams base;          // bins 16, no smoothing
  GridDensityParams more_bins;
  more_bins.bins_per_dim = 32;
  GridDensityParams smoothed;
  smoothed.smooth = true;
  GridDensityParams threaded;      // threads never change scores
  threaded.num_threads = 8;
  EXPECT_NE(GridDensityScorer(base).cache_key(),
            GridDensityScorer(more_bins).cache_key());
  EXPECT_NE(GridDensityScorer(base).cache_key(),
            GridDensityScorer(smoothed).cache_key());
  EXPECT_NE(GridDensityScorer(more_bins).cache_key(),
            GridDensityScorer(smoothed).cache_key());
  EXPECT_EQ(GridDensityScorer(base).cache_key(),
            GridDensityScorer(threaded).cache_key());
  // Distinct keys keep distinct configurations from colliding in one cache.
  const Dataset ds = RandomDataset(300, 3, 317);
  const Subspace subspace({0, 1});
  PreparedDataset prepared(ds);
  const GridDensityScorer a(base);
  const GridDensityScorer b(more_bins);
  EXPECT_EQ(a.ScoreSubspaceCached(prepared, subspace),
            a.ScoreSubspace(ds, subspace));
  EXPECT_EQ(b.ScoreSubspaceCached(prepared, subspace),
            b.ScoreSubspace(ds, subspace));
}

TEST(GridDensityTest, DegenerateSpreadsScoreZero) {
  const GridDensityScorer scorer;
  // A single object has no spread to standardize against.
  auto one = Dataset::FromRows({{1.0, 2.0}});
  EXPECT_EQ(scorer.ScoreSubspace(*one, Subspace({0, 1})),
            std::vector<double>(1, 0.0));
  // One bin per axis: every object lands in the same cell, sigma == 0.
  const Dataset ds = RandomDataset(50, 2, 331);
  GridDensityParams one_bin;
  one_bin.bins_per_dim = 1;
  EXPECT_EQ(GridDensityScorer(one_bin).ScoreSubspace(ds, Subspace({0, 1})),
            std::vector<double>(50, 0.0));
  // All-constant subspace: single occupied cell regardless of bins.
  Dataset constant(40, 2);
  for (std::size_t i = 0; i < 40; ++i) {
    constant.Set(i, 0, 3.25);
    constant.Set(i, 1, -1.0);
  }
  EXPECT_EQ(scorer.ScoreSubspace(constant, Subspace({0, 1})),
            std::vector<double>(40, 0.0));
}

TEST(GridDensityTest, ConstantAttributeCollapsesToOneBin) {
  // A constant axis occupies one bin, so adding it to a subspace changes
  // no occupancy count: scores must match the varying axis alone, bit for
  // bit (identical integer densities -> identical moments -> identical
  // Z-scores).
  Dataset ds = RandomDataset(200, 2, 337);
  for (std::size_t i = 0; i < 200; ++i) ds.Set(i, 1, 7.5);
  const GridDensityScorer scorer;
  EXPECT_EQ(scorer.ScoreSubspace(ds, Subspace({0, 1})),
            scorer.ScoreSubspace(ds, Subspace({0})));
}

TEST(GridDensityTest, NanValuesBinLowAndScoreFinite) {
  Dataset ds = RandomDataset(100, 3, 341);
  for (std::size_t i = 0; i < 10; ++i) {
    ds.Set(i * 7, 1, std::numeric_limits<double>::quiet_NaN());
  }
  const auto scores = GridDensityScorer().ScoreSubspace(ds, Subspace({0, 1}));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_TRUE(std::isfinite(scores[i])) << "object " << i;
  }
  // An all-NaN attribute degrades to the single-bin case along that axis.
  Dataset all_nan = RandomDataset(60, 2, 343);
  for (std::size_t i = 0; i < 60; ++i) {
    all_nan.Set(i, 1, std::numeric_limits<double>::quiet_NaN());
  }
  const GridDensityScorer scorer;
  EXPECT_EQ(scorer.ScoreSubspace(all_nan, Subspace({0, 1})),
            scorer.ScoreSubspace(all_nan, Subspace({0})));
}

TEST(GridDensityTest, PlantedOutlierInSparseCellScoresHighest) {
  Rng rng(347);
  Dataset ds(201, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    ds.Set(i, 0, 0.5 + rng.Gaussian(0.0, 0.02));
    ds.Set(i, 1, 0.5 + rng.Gaussian(0.0, 0.02));
  }
  ds.Set(200, 0, 0.95);
  ds.Set(200, 1, 0.05);
  GridDensityParams params;
  params.bins_per_dim = 8;
  for (bool smooth : {false, true}) {
    params.smooth = smooth;
    const auto scores =
        GridDensityScorer(params).ScoreSubspace(ds, Subspace({0, 1}));
    const auto top = std::max_element(scores.begin(), scores.end());
    EXPECT_EQ(top - scores.begin(), 200) << "smooth=" << smooth;
  }
}

TEST(GridDensityTest, OutOfSamplePointMatchesInSampleScore) {
  // Scoring a training point's own coordinates through the serialized
  // trained state must reproduce its in-sample score bit for bit — the
  // serve-layer contract that lets fitted grid models answer without a
  // searcher.
  const Dataset ds = RandomDataset(400, 4, 353, /*with_nan=*/true);
  const Subspace subspace({0, 1, 3});
  PreparedDataset prepared(ds);
  for (bool smooth : {false, true}) {
    GridDensityParams params;
    params.bins_per_dim = 8;
    params.smooth = smooth;
    const GridDensityScorer scorer(params);
    const auto in_sample = scorer.ScoreSubspacePrepared(prepared, subspace);
    const TrainedScorerState state =
        scorer.FitSubspace(prepared, subspace).state;
    EXPECT_TRUE(scorer
                    .ValidateTrainedState(state, subspace.size(),
                                          ds.num_objects())
                    .ok());
    std::vector<double> projected(subspace.size());
    for (std::size_t i = 0; i < ds.num_objects(); ++i) {
      for (std::size_t j = 0; j < subspace.size(); ++j) {
        projected[j] = ds.Get(i, subspace[j]);
      }
      EXPECT_EQ(Bits(scorer.ScoreOutOfSample(projected, {}, state)),
                Bits(in_sample[i]))
          << "object " << i << " smooth=" << smooth;
    }
  }
}

TEST(GridDensityTest, OutOfSampleQueryOutsideTrainingRangeIsFinite) {
  const Dataset ds = RandomDataset(300, 2, 359);
  const Subspace subspace({0, 1});
  PreparedDataset prepared(ds);
  const GridDensityScorer scorer;
  const auto state = scorer.FitSubspace(prepared, subspace).state;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::vector<double> q :
       {std::vector<double>{1e9, 1e9}, std::vector<double>{-1e9, 0.0},
        std::vector<double>{nan, nan}}) {
    EXPECT_TRUE(std::isfinite(scorer.ScoreOutOfSample(q, {}, state)));
  }
}

TEST(GridDensityTest, ValidateTrainedStateRejectsTampering) {
  const Dataset ds = RandomDataset(200, 3, 367);
  const Subspace subspace({0, 1, 2});
  PreparedDataset prepared(ds);
  const GridDensityScorer scorer;
  const auto good = scorer.FitSubspace(prepared, subspace).state;
  const std::size_t n = ds.num_objects();
  ASSERT_TRUE(GridDensityScorer::ValidateTrainedState(good, 3, n).ok());

  auto expect_rejected = [&](TrainedScorerState state, const char* what) {
    const Status verdict = GridDensityScorer::ValidateTrainedState(state, 3, n);
    EXPECT_FALSE(verdict.ok()) << what;
    EXPECT_EQ(verdict.code(), StatusCode::kInvalidArgument) << what;
  };

  TrainedScorerState missing_channel = good;
  missing_channel.channels.pop_back();
  expect_rejected(missing_channel, "missing channel");

  // A valid state presented for the wrong subspace width or training size
  // must not pass either.
  EXPECT_FALSE(GridDensityScorer::ValidateTrainedState(good, 2, n).ok());
  EXPECT_FALSE(GridDensityScorer::ValidateTrainedState(good, 3, n + 1).ok());

  TrainedScorerState inflated_count = good;
  ASSERT_FALSE(inflated_count.channels[2].empty());
  inflated_count.channels[2][0] += 1.0;
  expect_rejected(inflated_count, "counts no longer sum to the total");

  TrainedScorerState fractional_count = good;
  fractional_count.channels[2][0] += 0.5;
  expect_rejected(fractional_count, "non-integer count");

  if (good.channels[2].size() >= 2) {
    TrainedScorerState swapped_keys = good;
    std::swap(swapped_keys.channels[1][0], swapped_keys.channels[1][2]);
    std::swap(swapped_keys.channels[1][1], swapped_keys.channels[1][3]);
    expect_rejected(swapped_keys, "non-ascending keys");
  }

  TrainedScorerState bad_sigma = good;
  bad_sigma.channels[0][5] = -1.0;
  expect_rejected(bad_sigma, "negative sigma");

  TrainedScorerState nan_meta = good;
  nan_meta.channels[0][4] = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_meta, "non-finite meta");

  TrainedScorerState truncated_keys = good;
  truncated_keys.channels[1].pop_back();
  expect_rejected(truncated_keys, "keys/counts misaligned");
}

TEST(GridDensityTest, ScorerContractSurface) {
  const GridDensityScorer scorer;
  EXPECT_EQ(scorer.name(), "grid-density");
  EXPECT_TRUE(scorer.SupportsOutOfSample());
  EXPECT_EQ(scorer.NeighborhoodSize(), 0u);  // serves without neighbors
  EXPECT_FALSE(scorer.cache_key().empty());
}

}  // namespace
}  // namespace hics
