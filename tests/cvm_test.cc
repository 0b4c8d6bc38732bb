#include "stats/cvm_test.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stats/two_sample_test.h"

namespace hics::stats {
namespace {

/// A Gaussian sample sorted ascending, as CvmTestSorted takes it.
std::vector<double> GaussianSample(std::size_t n, double mean, double sd,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian(mean, sd);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CvmTest, IdenticalSamplesZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const CvmResult r = CvmTestSorted(a, a);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.statistic, 0.0);
  EXPECT_EQ(r.t_statistic, 0.0);
}

TEST(CvmTest, EmptySampleInvalid) {
  const std::vector<double> a = {1.0};
  EXPECT_FALSE(CvmTestSorted(a, {}).valid);
  EXPECT_FALSE(CvmTestSorted({}, a).valid);
}

TEST(CvmTest, DisjointSamplesNearOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0, 12.0};
  const CvmResult r = CvmTestSorted(a, b);
  ASSERT_TRUE(r.valid);
  // |F_A - F_B| averages ~ sqrt(mean of squared gaps); for fully separated
  // equal-size samples the statistic is large but < 1 (gap shrinks near
  // the extremes of the merged sample).
  EXPECT_GT(r.statistic, 0.5);
  EXPECT_LE(r.statistic, 1.0);
}

TEST(CvmTest, SymmetricInArguments) {
  const auto a = GaussianSample(80, 0.0, 1.0, 1);
  const auto b = GaussianSample(50, 0.7, 1.5, 2);
  const CvmResult ab = CvmTestSorted(a, b);
  const CvmResult ba = CvmTestSorted(b, a);
  EXPECT_DOUBLE_EQ(ab.statistic, ba.statistic);
  EXPECT_DOUBLE_EQ(ab.t_statistic, ba.t_statistic);
}

TEST(CvmTest, BoundedAndSmallUnderNull) {
  double sum = 0.0;
  const int reps = 100;
  for (int i = 0; i < reps; ++i) {
    const auto a = GaussianSample(400, 0, 1, 10 + i);
    const auto b = GaussianSample(100, 0, 1, 900 + i);
    const double d = CvmTestSorted(a, b).statistic;
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    sum += d;
  }
  EXPECT_LT(sum / reps, 0.12);
}

TEST(CvmTest, DetectsShift) {
  const auto a = GaussianSample(500, 0.0, 1.0, 3);
  const auto b = GaussianSample(150, 1.5, 1.0, 4);
  EXPECT_GT(CvmTestSorted(a, b).statistic, 0.3);
}

TEST(CvmTest, DetectsVarianceChange) {
  const auto a = GaussianSample(2000, 0.0, 1.0, 5);
  const auto b = GaussianSample(500, 0.0, 3.0, 6);
  EXPECT_GT(CvmTestSorted(a, b).statistic, 0.15);
}

TEST(CvmTest, LessSensitiveToSingleCrossingThanKs) {
  // The integrated statistic is bounded above by the sup statistic.
  Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const auto a = GaussianSample(300, 0, 1, 70 + rep);
    const auto b = GaussianSample(80, 0.4, 1.3, 170 + rep);
    const auto cvm = CvmTestSorted(a, b).statistic;
    // KS-style sup over the same merged grid is >= the L2 mean.
    // (Property check only: cvm <= 1 and <= sup by Cauchy-Schwarz.)
    EXPECT_LE(cvm, 1.0);
  }
}

TEST(CvmDeviationTest, DegenerateInputsZero) {
  // A selection of no object (a zero-length rank block) leaves the
  // conditional sample empty, which deviates by 0.
  const std::vector<double> column = {1.0, 2.0};
  const std::vector<std::size_t> order = {0, 1};
  const std::vector<std::uint32_t> ranks = {0, 1};
  const std::uint32_t* const rank_columns[] = {ranks.data()};
  const std::uint32_t starts[] = {0};
  SelectionView view;
  view.marginal_sorted = column;
  view.column = column;
  view.sorted_order = order;
  view.condition_ranks = rank_columns;
  view.condition_starts = starts;
  view.block = 0;
  SelectionScratch scratch;
  EXPECT_EQ(CvmDeviation().DeviationFromSelection(view, &scratch), 0.0);
}

TEST(CvmFactoryTest, RegisteredAsCvm) {
  const auto test = MakeTwoSampleTest("cvm");
  ASSERT_NE(test, nullptr);
  EXPECT_EQ(test->name(), "cvm");
}

}  // namespace
}  // namespace hics::stats
