// Tests for the deviation functions (Welch t-test, KS test) and the
// factory they are built by — the statistical core of the contrast. Raw
// samples go through the reference deviation of contrast_oracle.h, which
// the library's rank-space kernels reproduce bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "contrast_oracle.h"
#include "stats/ks_test.h"
#include "stats/two_sample_test.h"
#include "stats/welch_t_test.h"

namespace hics::stats {
namespace {

using hics::ReferenceDeviation;
using hics::ReferenceWelchTTest;
using hics::SortedCopy;

std::vector<double> GaussianSample(std::size_t n, double mean, double sd,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian(mean, sd);
  return v;
}

std::vector<double> UniformSample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.UniformDouble();
  return v;
}

// ------------------------------------------------------------- Welch  --

TEST(WelchTest, IdenticalSamplesGiveZeroStatistic) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const WelchResult r = ReferenceWelchTTest(a, a);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.t, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
}

TEST(WelchTest, TooSmallSamplesInvalid) {
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_FALSE(ReferenceWelchTTest(one, two).valid);
  EXPECT_FALSE(ReferenceWelchTTest(two, one).valid);
  EXPECT_FALSE(ReferenceWelchTTest({}, two).valid);
}

TEST(WelchTest, HandComputedExample) {
  // a: mean 2, var 1, n 3; b: mean 5, var 1, n 3.
  // t = (2-5)/sqrt(1/3+1/3) = -3.674..., dof = 4.
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  const WelchResult r = ReferenceWelchTTest(a, b);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.t, -3.0 / std::sqrt(2.0 / 3.0), 1e-10);
  EXPECT_NEAR(r.degrees_of_freedom, 4.0, 1e-10);
  // p-value for |t|=3.674, dof 4: ~0.0213.
  EXPECT_NEAR(r.p_value, 0.0213, 5e-4);
}

TEST(WelchTest, BothConstantSamples) {
  const std::vector<double> a = {2.0, 2.0, 2.0};
  const std::vector<double> b = {2.0, 2.0};
  const std::vector<double> c = {3.0, 3.0};
  const WelchResult same = ReferenceWelchTTest(a, b);
  ASSERT_TRUE(same.valid);
  EXPECT_EQ(same.p_value, 1.0);
  const WelchResult diff = ReferenceWelchTTest(a, c);
  ASSERT_TRUE(diff.valid);
  EXPECT_EQ(diff.p_value, 0.0);
}

TEST(WelchDeviationTest, SameDistributionLowOnAverage) {
  // Under H0 the p-value is ~uniform, so deviation = 1-p averages ~0.5 and
  // should rarely be extreme. Check the mean over repetitions.
  WelchTDeviation dev;
  double sum = 0.0;
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    const auto a = GaussianSample(300, 0, 1, 1000 + i);
    const auto b = GaussianSample(60, 0, 1, 5000 + i);
    sum += ReferenceDeviation(dev, SortedCopy(a), b);
  }
  EXPECT_NEAR(sum / reps, 0.5, 0.08);
}

TEST(WelchDeviationTest, ShiftedDistributionNearOne) {
  WelchTDeviation dev;
  const auto a = GaussianSample(500, 0, 1, 1);
  const auto b = GaussianSample(100, 1.0, 1, 2);
  EXPECT_GT(ReferenceDeviation(dev, SortedCopy(a), b), 0.99);
}

TEST(WelchDeviationTest, DegenerateInputGivesZero) {
  WelchTDeviation dev;
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> empty;
  EXPECT_EQ(ReferenceDeviation(dev, a, empty), 0.0);
}

// ---------------------------------------------------------------- KS  --

TEST(KsTest, IdenticalSamplesZeroStatistic) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const KsResult r = KsTestSorted(a, a);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.statistic, 0.0);
  EXPECT_NEAR(r.p_value, 1.0, 1e-6);
}

TEST(KsTest, DisjointSamplesStatisticOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0};
  const KsResult r = KsTestSorted(a, b);
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);
}

TEST(KsTest, HandComputedStatistic) {
  // a = {1,2,3,4}, b = {3,4,5,6}: max CDF gap is 0.5 (at x in [2,3)).
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {3.0, 4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(KsTestSorted(a, b).statistic, 0.5);
}

TEST(KsTest, TiesHandledSymmetrically) {
  const std::vector<double> a = {1.0, 1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 2.0};
  const KsResult ab = KsTestSorted(a, b);
  const KsResult ba = KsTestSorted(b, a);
  EXPECT_DOUBLE_EQ(ab.statistic, ba.statistic);
  EXPECT_NEAR(ab.statistic, 1.0 / 3.0, 1e-12);
}

TEST(KsTest, EmptySampleInvalid) {
  const std::vector<double> a = {1.0};
  EXPECT_FALSE(KsTestSorted(a, {}).valid);
  EXPECT_FALSE(KsTestSorted({}, a).valid);
}

TEST(KsTest, StatisticBoundedByOne) {
  Rng rng(9);
  for (int rep = 0; rep < 20; ++rep) {
    const auto a = GaussianSample(50, 0, 1, rep);
    const auto b = UniformSample(30, 100 + rep);
    const double d = KsTestSorted(SortedCopy(a), SortedCopy(b)).statistic;
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(KsDeviationTest, SameDistributionSmall) {
  KsDeviation dev;
  double sum = 0.0;
  const int reps = 100;
  for (int i = 0; i < reps; ++i) {
    const auto a = UniformSample(400, 10 + i);
    const auto b = UniformSample(100, 900 + i);
    sum += ReferenceDeviation(dev, SortedCopy(a), b);
  }
  // Expected two-sample KS statistic under H0 for n=400,m=100 is small.
  EXPECT_LT(sum / reps, 0.15);
}

TEST(KsDeviationTest, DetectsVarianceChangeThatWelchMisses) {
  // Same mean, different variance: Welch (mean-based) stays low-powered,
  // KS sees the shape change -- the paper's §III-E argument for KS.
  const auto a = GaussianSample(2000, 0, 1.0, 1);
  const auto b = GaussianSample(500, 0, 3.0, 2);
  KsDeviation ks;
  EXPECT_GT(ReferenceDeviation(ks, SortedCopy(a), b), 0.2);
}

// -------------------------------------------------------------- factory --

TEST(TwoSampleTestFactory, KnownNames) {
  EXPECT_NE(MakeTwoSampleTest("welch"), nullptr);
  EXPECT_NE(MakeTwoSampleTest("wt"), nullptr);
  EXPECT_NE(MakeTwoSampleTest("ks"), nullptr);
  EXPECT_EQ(MakeTwoSampleTest("welch")->name(), "welch");
  EXPECT_EQ(MakeTwoSampleTest("ks")->name(), "ks");
}

TEST(TwoSampleTestFactory, UnknownNameIsNull) {
  EXPECT_EQ(MakeTwoSampleTest("chi2"), nullptr);
  EXPECT_EQ(MakeTwoSampleTest(""), nullptr);
}

}  // namespace
}  // namespace hics::stats
