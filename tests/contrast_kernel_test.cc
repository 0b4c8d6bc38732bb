// Rank-space contrast kernel guarantees (DESIGN.md §5d):
//  (1) contrast scores are *bit-identical* between the rank-space kernel
//      (rank-predicate selection + DeviationFromSelection) and the
//      gathering reference (contrast_oracle.h), for every deviation
//      function (welch/ks/cvm), across random datasets, subspace sizes,
//      and duplicate-heavy data;
//  (2) every subspace RunHicsSearch reports carries exactly the oracle's
//      contrast on the search's per-subspace stream, for every thread
//      count.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "contrast_oracle.h"
#include "core/contrast.h"
#include "core/hics.h"
#include "stats/two_sample_test.h"

namespace hics {
namespace {

Dataset RandomDataset(std::size_t n, std::size_t d, std::uint64_t seed,
                      bool quantized = false) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double v = rng.UniformDouble();
      // Quantized columns are duplicate-heavy: ties exercise the
      // sorted-order emission and the rank tests' tie handling.
      if (quantized) v = std::floor(v * 6.0);
      ds.Set(i, j, v);
    }
  }
  return ds;
}

struct KernelCase {
  std::string test_name;
  std::uint64_t seed;
  bool quantized;
};

class ContrastKernelParityTest
    : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ContrastKernelParityTest, RankKernelMatchesOracleBitForBit) {
  const KernelCase& c = GetParam();
  Dataset ds = RandomDataset(300, 6, c.seed, c.quantized);
  const auto test = stats::MakeTwoSampleTest(c.test_name);
  ASSERT_NE(test, nullptr);
  const ContrastParams params{40, 0.15};
  const ContrastEstimator rank(ds, *test, params);
  const ContrastOracle oracle(ds, *test, params);
  const std::vector<Subspace> subspaces = {
      Subspace({0, 1}), Subspace({2, 5}), Subspace({0, 1, 2}),
      Subspace({1, 3, 4, 5}), Subspace({0, 1, 2, 3, 4, 5})};
  for (const Subspace& sub : subspaces) {
    Rng ra(c.seed ^ 0xabc), rb(c.seed ^ 0xabc);
    const double a = rank.Contrast(sub, &ra);
    const double b = oracle.Contrast(sub, &rb);
    // Deliberately EXPECT_EQ, not NEAR: the kernels must agree bit for
    // bit, which is what lets the library ship the rank-space kernel only.
    EXPECT_EQ(a, b) << c.test_name << " " << sub.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTests, ContrastKernelParityTest,
    ::testing::Values(KernelCase{"welch", 1, false},
                      KernelCase{"welch", 2, true},
                      KernelCase{"ks", 3, false},
                      KernelCase{"ks", 4, true},
                      KernelCase{"cvm", 5, false},
                      KernelCase{"cvm", 6, true}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return info.param.test_name +
             (info.param.quantized ? "Quantized" : "Continuous") +
             std::to_string(info.param.seed);
    });

TEST(ContrastKernelTest, SearchOutputUnchangedByKernelAndThreads) {
  Dataset ds = RandomDataset(250, 8, 77);
  HicsParams base;
  base.num_iterations = 30;
  base.candidate_cutoff = 40;
  base.output_top_k = 30;
  base.seed = 13;

  for (const char* test_name : {"welch", "ks", "cvm"}) {
    const auto test = stats::MakeTwoSampleTest(test_name);
    ASSERT_NE(test, nullptr);
    const ContrastOracle oracle(ds, *test,
                                {base.num_iterations, base.alpha});
    std::vector<ScoredSubspace> serial;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      HicsParams p = base;
      p.statistical_test = test_name;
      p.num_threads = threads;
      auto result = RunHicsSearch(ds, p);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::vector<ScoredSubspace>& got = *result;
      ASSERT_FALSE(got.empty()) << test_name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Deliberately EXPECT_EQ: the search's rank-space contrast must
        // be the oracle's gathering contrast bit for bit.
        EXPECT_EQ(got[i].score,
                  oracle.SearchContrast(got[i].subspace, base.seed))
            << test_name << " threads " << threads << " rank " << i << " "
            << got[i].subspace.ToString();
      }
      if (threads == 1) {
        serial = got;
        continue;
      }
      ASSERT_EQ(got.size(), serial.size()) << test_name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].subspace, serial[i].subspace)
            << test_name << " threads " << threads << " rank " << i;
        EXPECT_EQ(got[i].score, serial[i].score)
            << test_name << " threads " << threads << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hics
