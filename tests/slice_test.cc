#include "core/slice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "contrast_oracle.h"
#include "core/contrast.h"
#include "simd/simd.h"
#include "stats/ks_test.h"

namespace hics {
namespace {

Dataset UniformDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

/// Whether object `id` lies in every condition's rank block of `sel`.
bool Selected(const SliceSelection& sel, std::size_t id) {
  for (std::size_t c = 0; c < sel.num_conditions(); ++c) {
    const std::uint32_t rank = sel.condition_ranks[c][id];
    const std::uint32_t start = sel.condition_starts[c];
    if (rank < start || rank - start >= sel.block) return false;
  }
  return true;
}

/// The selected test-column values through the dispatched fused kernel.
std::vector<double> SliceSelect(const SliceSelection& sel,
                                const std::vector<double>& column) {
  std::vector<double> out(column.size() + simd::kCompactPad);
  const std::size_t k = simd::ActiveKernels().slice_select(
      sel.condition_ranks.data(), sel.condition_starts.data(),
      sel.num_conditions(), sel.block, column.data(), column.size(),
      out.data());
  out.resize(k);
  return out;
}

TEST(SliceSamplerTest, BlockSizeFollowsAlgorithmOne) {
  Dataset ds = UniformDataset(1000, 3, 1);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  // block = ceil(N * alpha^(1/|S|)).
  EXPECT_EQ(sampler.BlockSize(2, 0.1),
            static_cast<std::size_t>(std::ceil(1000 * std::sqrt(0.1))));
  EXPECT_EQ(sampler.BlockSize(3, 0.1),
            static_cast<std::size_t>(std::ceil(1000 * std::cbrt(0.1))));
  // Larger subspace -> larger per-condition block.
  EXPECT_GT(sampler.BlockSize(5, 0.1), sampler.BlockSize(2, 0.1));
}

TEST(SliceSamplerTest, BlockSizeClamped) {
  Dataset ds = UniformDataset(10, 2, 2);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  EXPECT_LE(sampler.BlockSize(2, 0.99), 10u);
  EXPECT_GE(sampler.BlockSize(2, 0.0001), 1u);
}

TEST(SliceSamplerTest, TestAttributeBelongsToSubspace) {
  Dataset ds = UniformDataset(200, 6, 3);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(9);
  SliceScratch scratch;
  SliceSelection sel;
  const Subspace s({1, 3, 5});
  for (int i = 0; i < 50; ++i) {
    sampler.DrawSelection(s, 0.2, &rng, &scratch, &sel);
    EXPECT_TRUE(s.Contains(sel.test_attribute));
  }
}

TEST(SliceSamplerTest, AllAttributesEventuallyTested) {
  Dataset ds = UniformDataset(100, 4, 4);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(10);
  SliceScratch scratch;
  SliceSelection sel;
  const Subspace s({0, 1, 2, 3});
  std::vector<int> tested(4, 0);
  for (int i = 0; i < 200; ++i) {
    sampler.DrawSelection(s, 0.3, &rng, &scratch, &sel);
    ++tested[sel.test_attribute];
  }
  for (int count : tested) EXPECT_GT(count, 20);
}

TEST(SliceSamplerTest, TwoDimensionalSelectionSizeIsExact) {
  // For |S| = 2 there is a single condition, so the conditional sample is
  // exactly one index block of size ceil(N * sqrt(alpha)).
  Dataset ds = UniformDataset(500, 2, 5);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(11);
  SliceScratch scratch;
  SliceSelection sel;
  const std::size_t expected = sampler.BlockSize(2, 0.1);
  for (int i = 0; i < 20; ++i) {
    sampler.DrawSelection(Subspace({0, 1}), 0.1, &rng, &scratch, &sel);
    EXPECT_EQ(SliceSelect(sel, ds.Column(sel.test_attribute)).size(),
              expected);
  }
}

TEST(SliceSamplerTest, ExpectedSelectionSizeOnIndependentData) {
  // On independent attributes, E[N'] = N * alpha1^(|S|-1). Check the
  // empirical mean over many draws for a 3-D subspace.
  const std::size_t n = 2000;
  Dataset ds = UniformDataset(n, 3, 6);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(12);
  SliceScratch scratch;
  SliceSelection sel;
  const double alpha = 0.1;
  const Subspace s({0, 1, 2});
  double sum = 0.0;
  const int reps = 300;
  for (int i = 0; i < reps; ++i) {
    sampler.DrawSelection(s, alpha, &rng, &scratch, &sel);
    sum += static_cast<double>(
        SliceSelect(sel, ds.Column(sel.test_attribute)).size());
  }
  const double alpha1 = std::pow(alpha, 1.0 / 3.0);
  const double expected = static_cast<double>(n) * alpha1 * alpha1;
  EXPECT_NEAR(sum / reps, expected, 0.15 * expected);
}

TEST(SliceSamplerTest, ConditionalSampleValuesComeFromColumn) {
  Dataset ds = UniformDataset(100, 3, 7);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(13);
  SliceScratch scratch;
  SliceSelection sel;
  sampler.DrawSelection(Subspace({0, 1, 2}), 0.3, &rng, &scratch, &sel);
  const auto& col = ds.Column(sel.test_attribute);
  for (double v : SliceSelect(sel, col)) {
    EXPECT_NE(std::find(col.begin(), col.end(), v), col.end());
  }
}

TEST(SliceSamplerTest, DeterministicGivenRngState) {
  Dataset ds = UniformDataset(300, 4, 8);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng1(99), rng2(99);
  SliceScratch s1, s2;
  SliceSelection d1, d2;
  sampler.DrawSelection(Subspace({0, 2, 3}), 0.15, &rng1, &s1, &d1);
  sampler.DrawSelection(Subspace({0, 2, 3}), 0.15, &rng2, &s2, &d2);
  EXPECT_EQ(d1.test_attribute, d2.test_attribute);
  EXPECT_TRUE(std::equal(d1.condition_starts.begin(),
                         d1.condition_starts.end(),
                         d2.condition_starts.begin(),
                         d2.condition_starts.end()));
  EXPECT_EQ(SliceSelect(d1, ds.Column(d1.test_attribute)),
            SliceSelect(d2, ds.Column(d2.test_attribute)));
}

TEST(SliceSamplerTest, DrawSelectionMatchesMaterializingDraw) {
  // Same RNG state through the sampler and the gathering reference draw
  // (contrast_oracle.h) -> same slice: the selection's rank-block
  // conditions must select exactly the objects whose test-attribute
  // values the reference gathers.
  Dataset ds = UniformDataset(400, 5, 21);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng r1(77), r2(77);
  std::vector<std::uint16_t> counts;
  GatheredDraw draw;
  SliceScratch scratch;
  SliceSelection sel;
  const Subspace sub({0, 2, 3, 4});
  for (int i = 0; i < 50; ++i) {
    GatherDraw(ds, index, sub, 0.15, &r1, &draw, &counts);
    sampler.DrawSelection(sub, 0.15, &r2, &scratch, &sel);
    EXPECT_EQ(sel.test_attribute, draw.test_attribute);
    EXPECT_EQ(sel.num_conditions(), sub.size() - 1);
    ASSERT_EQ(sel.condition_ranks.size(), sel.num_conditions());
    EXPECT_EQ(sel.block, sampler.BlockSize(sub.size(), 0.15));
    std::vector<double> selected;
    const auto& col = ds.Column(sel.test_attribute);
    for (std::size_t id = 0; id < 400; ++id) {
      if (Selected(sel, id)) selected.push_back(col[id]);
    }
    // Object-id order, exactly like the reference gather — by brute force
    // and through the fused kernel.
    EXPECT_EQ(selected, draw.conditional_sample);
    EXPECT_EQ(SliceSelect(sel, col), draw.conditional_sample);
  }
}

TEST(SliceSamplerTest, SelectionSizeConcentratesAcrossDimensionalities) {
  // Property: on independent data the conditional-sample size concentrates
  // near N * alpha^((|S|-1)/|S|) — the block-size rule of Algorithm 1 —
  // which approaches N * alpha from above as |S| grows. Checked for
  // |S| in {2..5}.
  const std::size_t n = 2000;
  const double alpha = 0.1;
  for (std::size_t dims = 2; dims <= 5; ++dims) {
    Dataset ds = UniformDataset(n, dims, 30 + dims);
    SortedAttributeIndex index(ds);
    SliceSampler sampler(ds, index);
    Rng rng(100 + dims);
    SliceScratch scratch;
    SliceSelection sel;
    std::vector<std::size_t> attrs(dims);
    std::iota(attrs.begin(), attrs.end(), std::size_t{0});
    const Subspace sub(attrs);
    double sum = 0.0;
    const int reps = 200;
    for (int rep = 0; rep < reps; ++rep) {
      sampler.DrawSelection(sub, alpha, &rng, &scratch, &sel);
      const std::size_t count =
          SliceSelect(sel, ds.Column(sel.test_attribute)).size();
      sum += static_cast<double>(count);
    }
    const double mean = sum / reps;
    const double expected =
        static_cast<double>(n) *
        std::pow(alpha, (static_cast<double>(dims) - 1.0) /
                            static_cast<double>(dims));
    EXPECT_NEAR(mean, expected, 0.15 * expected) << "|S| = " << dims;
    // Never drifts below the target selection fraction N * alpha.
    EXPECT_GT(mean, static_cast<double>(n) * alpha * 0.85)
        << "|S| = " << dims;
  }
}

TEST(SliceSamplerTest, DuplicateHeavyColumnsKeepKsBitIdentical) {
  // Columns quantized to 8 distinct values produce massive ties; the
  // sorted-order emission must still hand KsTestSorted the exact value
  // sequence the gather+sort oracle produces (equal values are
  // interchangeable), keeping contrast scores bit-identical.
  Rng rng(55);
  const std::size_t n = 500, d = 4;
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      ds.Set(i, j, std::floor(rng.UniformDouble() * 8.0));
    }
  }
  const stats::KsDeviation ks;
  const ContrastParams params{30, 0.2};
  const ContrastEstimator rank(ds, ks, params);
  const ContrastOracle oracle(ds, ks, params);
  for (const Subspace& sub :
       {Subspace({0, 1}), Subspace({0, 1, 2}), Subspace({0, 1, 2, 3})}) {
    Rng ra(9), rb(9);
    const double a = rank.Contrast(sub, &ra);
    const double b = oracle.Contrast(sub, &rb);
    EXPECT_EQ(a, b) << sub.ToString();
  }
}

TEST(SliceSamplerDeathTest, RejectsOneDimensionalSubspace) {
  Dataset ds = UniformDataset(50, 2, 9);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  Rng rng(1);
  SliceScratch scratch;
  SliceSelection sel;
  EXPECT_DEATH(sampler.DrawSelection(Subspace({0}), 0.1, &rng, &scratch, &sel),
               "one-dimensional");
}

TEST(SliceSamplerDeathTest, RejectsBadAlpha) {
  Dataset ds = UniformDataset(50, 2, 10);
  SortedAttributeIndex index(ds);
  SliceSampler sampler(ds, index);
  EXPECT_DEATH(sampler.BlockSize(2, 0.0), "alpha");
  EXPECT_DEATH(sampler.BlockSize(2, 1.0), "alpha");
}

}  // namespace
}  // namespace hics
