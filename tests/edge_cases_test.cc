// Edge-case coverage across modules: degenerate inputs, boundary
// parameters, and API corners not exercised by the main suites.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/grid.h"
#include "common/csv.h"
#include "common/timer.h"
#include "core/hics.h"
#include "data/synthetic.h"
#include "search/enclus.h"
#include "stats/ks_test.h"
#include "stats/welch_t_test.h"

namespace hics {
namespace {

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Burn a little CPU deterministically.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9 * i;
  const double first = timer.ElapsedSeconds();
  EXPECT_GT(first, 0.0);
  EXPECT_GE(timer.ElapsedMillis(), first * 1000.0 * 0.5);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), first + 1.0);
}

TEST(CsvEdgeTest, TrailingDelimiterMakesEmptyCell) {
  // "1,2," has three cells; the empty one cannot parse as a number.
  auto ds = ParseCsv("a,b,c\n1,2,\n");
  EXPECT_FALSE(ds.ok());
}

TEST(CsvEdgeTest, HeaderMismatchFallsBackToDefaultNames) {
  // Two header cells, three data columns: header ignored gracefully.
  CsvOptions options;
  options.has_header = true;
  auto ds = ParseCsv("x,y\n1,2\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->attribute_names()[0], "x");
  // Now a real mismatch (header shorter than the row count).
  auto mismatch = ParseCsv("x\n1,2\n");
  ASSERT_TRUE(mismatch.ok());
  EXPECT_EQ(mismatch->num_attributes(), 2u);
  EXPECT_EQ(mismatch->attribute_names()[0], "a0");  // fallback
}

TEST(CsvEdgeTest, ScientificNotationParses) {
  auto ds = ParseCsv("x\n1e-3\n-2.5E2\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_DOUBLE_EQ(ds->Get(0, 0), 1e-3);
  EXPECT_DOUBLE_EQ(ds->Get(1, 0), -250.0);
}

TEST(WelchEdgeTest, OneConstantOneVaryingSample) {
  const std::vector<double> constant = {2.0, 2.0, 2.0, 2.0};
  const std::vector<double> varying = {1.0, 2.0, 3.0, 4.0};
  // Moments of the two samples: (2, 0) and (2.5, 5/3).
  const stats::WelchResult r = stats::WelchTTestFromMoments(
      constant.size(), 2.0, 0.0, varying.size(), 2.5, 5.0 / 3.0);
  ASSERT_TRUE(r.valid);
  // Means equal (2.5 vs 2.0 actually differ); statistic finite & sane.
  EXPECT_TRUE(std::isfinite(r.t));
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(KsSortedEdgeTest, DirectSortedEntryPoint) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 3.0, 4.0};
  const auto direct = stats::KsTestSorted(a, b);
  const auto swapped = stats::KsTestSorted(b, a);
  ASSERT_TRUE(direct.valid);
  // The empirical CDFs differ by 1/3 on [1, 4).
  EXPECT_DOUBLE_EQ(direct.statistic, 1.0 / 3.0);
  EXPECT_GT(direct.p_value, 0.0);
  EXPECT_LE(direct.p_value, 1.0);
  EXPECT_EQ(direct.statistic, swapped.statistic);
  EXPECT_EQ(direct.p_value, swapped.p_value);
}

TEST(GridEdgeTest, SingleBinGrid) {
  auto ds = *Dataset::FromColumns({{0.1, 0.5, 0.9}});
  SubspaceGrid grid(ds, Subspace({0}), 1);
  EXPECT_EQ(grid.num_nonempty_cells(), 1u);
  EXPECT_EQ(grid.Entropy(), 0.0);
  EXPECT_DOUBLE_EQ(grid.Coverage(1), 1.0);
}

TEST(HicsEdgeTest, TwoAttributeDatasetSearch) {
  // Smallest legal search space: exactly one 2-D subspace.
  Rng rng(5);
  Dataset ds(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    const double v = rng.UniformDouble();
    ds.Set(i, 0, v);
    ds.Set(i, 1, v + rng.Gaussian(0.0, 0.01));
  }
  HicsParams params;
  params.num_iterations = 20;
  auto result = RunHicsSearch(ds, params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].subspace, Subspace({0, 1}));
  EXPECT_GT((*result)[0].score, 0.5);
}

TEST(HicsEdgeTest, ConstantDataDoesNotCrash) {
  Dataset ds(100, 4);  // all zeros
  HicsParams params;
  params.num_iterations = 10;
  auto result = RunHicsSearch(ds, params);
  ASSERT_TRUE(result.ok());
  // Constant data: contrast is 0 everywhere (identical constant samples),
  // but the search must terminate cleanly and return subspaces.
  for (const auto& s : *result) {
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.0);
  }
}

TEST(EnclusEdgeTest, MaxDimensionalityTwoOnlyPairs) {
  SyntheticParams gen;
  gen.num_objects = 200;
  gen.num_attributes = 6;
  gen.seed = 6;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  EnclusParams params;
  params.max_dimensionality = 2;
  auto result = MakeEnclusMethod(params)->Search(data->data);
  ASSERT_TRUE(result.ok());
  for (const auto& s : *result) EXPECT_EQ(s.subspace.size(), 2u);
}

TEST(SyntheticEdgeTest, NoiseAttributesValidated) {
  SyntheticParams params;
  params.num_attributes = 10;
  params.noise_attributes = 9;  // leaves only 1 structured attribute
  EXPECT_FALSE(params.Validate().ok());
  params.noise_attributes = 8;  // leaves 2: minimal group
  EXPECT_TRUE(params.Validate().ok());
  auto data = GenerateSynthetic(params);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->relevant_subspaces.size(), 1u);
  EXPECT_EQ(data->relevant_subspaces[0].size(), 2u);
}

TEST(SyntheticEdgeTest, NoiseAttributesAreUncorrelated) {
  SyntheticParams params;
  params.num_objects = 600;
  params.num_attributes = 6;
  params.noise_attributes = 2;
  params.seed = 9;
  auto data = GenerateSynthetic(params);
  ASSERT_TRUE(data.ok());
  // The noise attributes are exactly those not in any relevant subspace.
  std::vector<bool> covered(6, false);
  for (const Subspace& s : data->relevant_subspaces) {
    for (std::size_t dim : s) covered[dim] = true;
  }
  std::size_t noise_count = 0;
  for (bool c : covered) {
    if (!c) ++noise_count;
  }
  EXPECT_EQ(noise_count, 2u);
}

}  // namespace
}  // namespace hics
