#include "core/contrast_matrix.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/hics.h"
#include "engine/sharded_dataset.h"

namespace hics {
namespace {

/// Attributes {0,1} strongly dependent, {2} independent.
Dataset ThreeAttrData(std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(600, 3);
  for (std::size_t i = 0; i < 600; ++i) {
    const double v = rng.UniformDouble();
    ds.Set(i, 0, v);
    ds.Set(i, 1, v + rng.Gaussian(0.0, 0.01));
    ds.Set(i, 2, rng.UniformDouble());
  }
  return ds;
}

TEST(ContrastMatrixTest, SymmetricWithZeroDiagonal) {
  auto matrix = ComputeContrastMatrix(ThreeAttrData(1));
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*matrix)(i, i), 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ((*matrix)(i, j), (*matrix)(j, i));
    }
  }
}

TEST(ContrastMatrixTest, DependentPairDominates) {
  auto matrix = ComputeContrastMatrix(ThreeAttrData(2));
  ASSERT_TRUE(matrix.ok());
  EXPECT_GT((*matrix)(0, 1), (*matrix)(0, 2) + 0.2);
  EXPECT_GT((*matrix)(0, 1), (*matrix)(1, 2) + 0.2);
}

TEST(ContrastMatrixTest, MatchesLatticeLevelTwoScores) {
  // Entries must equal RunHicsSearch's level-2 contrasts for the same
  // seed, bit for bit, on the unsharded and the sharded plane (the matrix
  // scores level 2 through the search's own level scorer).
  const Dataset ds = ThreeAttrData(3);
  const ShardedDataset sharded(ds, 3);
  ContrastMatrixParams m_params;
  m_params.seed = 99;

  HicsParams h_params;
  h_params.seed = 99;
  h_params.max_dimensionality = 2;
  h_params.prune_redundant = false;
  h_params.output_top_k = 100;
  auto expect_level_two =
      [](const Result<Matrix>& matrix,
         const Result<std::vector<ScoredSubspace>>& search) {
    ASSERT_TRUE(matrix.ok());
    ASSERT_TRUE(search.ok());
    ASSERT_EQ(search->size(), 3u);
    for (const ScoredSubspace& s : *search) {
      ASSERT_EQ(s.subspace.size(), 2u);
      EXPECT_EQ(s.score, (*matrix)(s.subspace[0], s.subspace[1]))
          << s.subspace.ToString();
    }
  };
  expect_level_two(ComputeContrastMatrix(ds, m_params),
                   RunHicsSearch(ds, h_params));
  expect_level_two(ComputeContrastMatrix(sharded, m_params),
                   RunHicsSearch(sharded, h_params));
}

TEST(ContrastMatrixTest, ParallelMatchesSerial) {
  const Dataset ds = ThreeAttrData(4);
  ContrastMatrixParams serial;
  serial.num_threads = 1;
  ContrastMatrixParams parallel;
  parallel.num_threads = 4;
  auto a = ComputeContrastMatrix(ds, serial);
  auto b = ComputeContrastMatrix(ds, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(*a, *b), 0.0);
}

TEST(ContrastMatrixTest, InputValidation) {
  Dataset one_attr(50, 1);
  EXPECT_FALSE(ComputeContrastMatrix(one_attr).ok());
  Dataset one_obj(1, 3);
  EXPECT_FALSE(ComputeContrastMatrix(one_obj).ok());
  ContrastMatrixParams bad;
  bad.statistical_test = "nope";
  EXPECT_FALSE(ComputeContrastMatrix(ThreeAttrData(5), bad).ok());
  bad = ContrastMatrixParams{};
  bad.contrast.alpha = 7.0;
  EXPECT_FALSE(ComputeContrastMatrix(ThreeAttrData(6), bad).ok());
}

TEST(ContrastMatrixTest, KsVariantWorks) {
  ContrastMatrixParams params;
  params.statistical_test = "ks";
  auto matrix = ComputeContrastMatrix(ThreeAttrData(7), params);
  ASSERT_TRUE(matrix.ok());
  EXPECT_GT((*matrix)(0, 1), (*matrix)(0, 2));
}

}  // namespace
}  // namespace hics
