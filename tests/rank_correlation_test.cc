#include "rank_correlation.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace hics {
namespace {

TEST(SpearmanRankTest, IdenticalRankingIsOne) {
  const std::vector<double> a = {1.0, 3.0, 2.0, 5.0};
  EXPECT_NEAR(*SpearmanRankCorrelation(a, a), 1.0, 1e-12);
}

TEST(SpearmanRankTest, ReversedRankingIsMinusOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {4.0, 3.0, 2.0, 1.0};
  EXPECT_NEAR(*SpearmanRankCorrelation(a, b), -1.0, 1e-12);
}

TEST(SpearmanRankTest, InputValidation) {
  EXPECT_FALSE(SpearmanRankCorrelation({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(SpearmanRankCorrelation({1.0}, {1.0}).ok());
}

TEST(KendallTauTest, PerfectAgreement) {
  const std::vector<double> a = {0.1, 0.5, 0.3, 0.9};
  EXPECT_NEAR(*KendallTauB(a, a), 1.0, 1e-12);
}

TEST(KendallTauTest, PerfectDisagreement) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {3.0, 2.0, 1.0};
  EXPECT_NEAR(*KendallTauB(a, b), -1.0, 1e-12);
}

TEST(KendallTauTest, HandComputedExample) {
  // a orders 1<2<3<4, b orders 1<2<4<3: one discordant pair of six.
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {1.0, 2.0, 4.0, 3.0};
  EXPECT_NEAR(*KendallTauB(a, b), (5.0 - 1.0) / 6.0, 1e-12);
}

TEST(KendallTauTest, TieCorrection) {
  // Ties in a only; tau-b handles them symmetrically in [-1, 1].
  const std::vector<double> a = {1.0, 1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const double tau = *KendallTauB(a, b);
  EXPECT_GT(tau, 0.0);
  EXPECT_LT(tau, 1.0);
}

TEST(KendallTauTest, AllTiedInBothIsZero) {
  const std::vector<double> a = {1.0, 1.0, 1.0};
  EXPECT_EQ(*KendallTauB(a, a), 0.0);
}

TEST(KendallTauTest, AgreesWithSpearmanDirectionally) {
  Rng rng(3);
  std::vector<double> a(100), b(100);
  for (std::size_t i = 0; i < 100; ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + 0.8 * rng.Gaussian();
  }
  const double tau = *KendallTauB(a, b);
  const double rho = *SpearmanRankCorrelation(a, b);
  EXPECT_GT(tau, 0.3);
  EXPECT_GT(rho, tau);  // |rho| >= |tau| typically for moderate agreement
}

TEST(TopKJaccardTest, IdenticalTopSets) {
  const std::vector<double> a = {9.0, 8.0, 1.0, 0.5};
  const std::vector<double> b = {8.0, 9.0, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(*TopKJaccard(a, b, 2), 1.0);
}

TEST(TopKJaccardTest, DisjointTopSets) {
  const std::vector<double> a = {9.0, 8.0, 1.0, 0.5};
  const std::vector<double> b = {0.1, 0.2, 8.0, 9.0};
  EXPECT_DOUBLE_EQ(*TopKJaccard(a, b, 2), 0.0);
}

TEST(TopKJaccardTest, PartialOverlap) {
  const std::vector<double> a = {9.0, 8.0, 7.0, 0.0};
  const std::vector<double> b = {9.0, 0.0, 7.0, 8.0};
  // top-3(a) = {0,1,2}, top-3(b) = {0,2,3}: |∩|=2, |∪|=4.
  EXPECT_DOUBLE_EQ(*TopKJaccard(a, b, 3), 0.5);
}

TEST(TopKJaccardTest, KClampedAndValidated) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(*TopKJaccard(a, b, 100), 1.0);  // clamped to full sets
  EXPECT_FALSE(TopKJaccard(a, b, 0).ok());
}

}  // namespace
}  // namespace hics
