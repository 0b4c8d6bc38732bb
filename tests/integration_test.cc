// Cross-module integration and property tests: end-to-end pipeline runs on
// every benchmark stand-in, invariance properties of the contrast, and the
// Fig. 3 monotonicity-counterexample behaviour of the lattice heuristic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "data/uci_like.h"
#include "eval/roc.h"
#include "outlier/lof.h"
#include "stats/two_sample_test.h"

namespace hics {
namespace {

TEST(IntegrationTest, PipelineRunsOnEveryUciStandIn) {
  for (const UciLikeSpec& spec : UciLikeSpecs()) {
    // Scale the big ones down; this is a smoke+sanity check, not a bench.
    const double scale = spec.num_objects > 1000 ? 0.15 : 1.0;
    auto data = MakeUciLike(spec, 11, scale);
    ASSERT_TRUE(data.ok()) << spec.name;

    HicsParams params;
    params.num_iterations = 25;
    params.output_top_k = 30;
    params.num_threads = 0;  // exercise the parallel path end-to-end
    LofScorer lof({.min_pts = 10});
    auto result = RunHicsPipeline(*data, params, lof);
    ASSERT_TRUE(result.ok()) << spec.name;
    ASSERT_EQ(result->scores.size(), data->num_objects()) << spec.name;
    ASSERT_FALSE(result->subspaces.empty()) << spec.name;

    const auto auc = ComputeAuc(result->scores, data->labels());
    ASSERT_TRUE(auc.ok()) << spec.name;
    // Every stand-in carries findable structure: clearly above chance.
    EXPECT_GT(*auc, 0.55) << spec.name;
  }
}

TEST(IntegrationTest, CvmVariantWorksEndToEnd) {
  SyntheticParams gen;
  gen.num_objects = 500;
  gen.num_attributes = 10;
  gen.seed = 91;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.statistical_test = "cvm";
  params.num_iterations = 50;
  LofScorer lof({.min_pts = 10});
  auto result = RunHicsPipeline(data->data, params, lof);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(*ComputeAuc(result->scores, data->data.labels()), 0.8);
}

/// Rank-based deviation functions (KS, CvM) only see the order of values,
/// so applying a strictly increasing transform to any attribute must leave
/// the contrast unchanged. (Welch, being moment-based, has no such
/// guarantee.)
class MonotoneInvarianceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(MonotoneInvarianceTest, ContrastInvariantUnderMonotoneTransform) {
  Rng rng(17);
  const std::size_t n = 800;
  Dataset original(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.Bernoulli(0.5) ? 0.3 : 0.7;
    original.Set(i, 0, c + rng.Gaussian(0.0, 0.03));
    original.Set(i, 1, c + rng.Gaussian(0.0, 0.03));
  }
  Dataset transformed = original;
  for (std::size_t i = 0; i < n; ++i) {
    // exp is strictly increasing; cube is strictly increasing.
    transformed.Set(i, 0, std::exp(2.0 * original.Get(i, 0)));
    const double v = original.Get(i, 1);
    transformed.Set(i, 1, v * v * v);
  }

  const auto test = stats::MakeTwoSampleTest(GetParam());
  ASSERT_NE(test, nullptr);
  const ContrastParams params{60, 0.15};
  const ContrastEstimator est_a(original, *test, params);
  const ContrastEstimator est_b(transformed, *test, params);
  Rng rng_a(5), rng_b(5);
  const double contrast_a = est_a.Contrast(Subspace({0, 1}), &rng_a);
  const double contrast_b = est_b.Contrast(Subspace({0, 1}), &rng_b);
  // Identical: the sorted index (hence every slice) and every rank-based
  // deviation are unchanged by monotone transforms.
  EXPECT_DOUBLE_EQ(contrast_a, contrast_b);
}

TEST_P(MonotoneInvarianceTest, SearchInvariantUnderMonotoneTransform) {
  // KS and CvM slices are rank blocks (Def. 5, Alg. 1) and both tests
  // read only the order of the values, so a strictly increasing
  // per-attribute transform that creates no new ties must leave the whole
  // lattice search unchanged, bit for bit.
  SyntheticParams gen;
  gen.num_objects = 400;
  gen.num_attributes = 8;
  gen.seed = 29;
  auto generated = GenerateSynthetic(gen);
  ASSERT_TRUE(generated.ok());
  const Dataset& original = generated->data;
  const std::size_t n = original.num_objects();
  Dataset transformed = original;
  for (std::size_t a = 0; a < original.num_attributes(); ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = original.Get(i, a);
      const double t = a % 3 == 0   ? std::exp(v)
                       : a % 3 == 1 ? v * v * v + v
                                    : std::atan(v) + 4.0 * v;
      transformed.Set(i, a, t);
    }
  }
  // The precondition: every attribute's pairwise order, ties included,
  // survives the transform (rounding could otherwise merge two values).
  for (std::size_t a = 0; a < original.num_attributes(); ++a) {
    std::vector<std::size_t> ids(n);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    std::stable_sort(ids.begin(), ids.end(), [&](std::size_t x,
                                                  std::size_t y) {
      return original.Get(x, a) < original.Get(y, a);
    });
    for (std::size_t r = 1; r < n; ++r) {
      const std::size_t x = ids[r - 1];
      const std::size_t y = ids[r];
      ASSERT_EQ(original.Get(x, a) < original.Get(y, a),
                transformed.Get(x, a) < transformed.Get(y, a))
          << "attribute " << a << " rank " << r;
    }
  }

  HicsParams params;
  params.statistical_test = GetParam();
  params.num_iterations = 40;
  params.seed = 7;
  const auto before = RunHicsSearch(original, params);
  const auto after = RunHicsSearch(transformed, params);
  ASSERT_TRUE(before.ok() && after.ok());
  ASSERT_EQ(before->size(), after->size());
  ASSERT_FALSE(before->empty());
  for (std::size_t s = 0; s < before->size(); ++s) {
    EXPECT_EQ((*before)[s].subspace, (*after)[s].subspace) << "rank " << s;
    EXPECT_EQ(std::memcmp(&(*before)[s].score, &(*after)[s].score,
                          sizeof(double)),
              0)
        << "rank " << s << ": " << (*before)[s].score << " vs "
        << (*after)[s].score;
  }
}

INSTANTIATE_TEST_SUITE_P(RankBasedTests, MonotoneInvarianceTest,
                         ::testing::Values("ks", "cvm"));

TEST(Fig3CounterexampleTest, HicsLatticeHeuristicStillFindsXorCube) {
  // Fig. 3: all 2-D projections of the XOR cube are uncorrelated, only the
  // 3-D space is. The paper notes there is no monotonicity *guarantee*,
  // but argues the Apriori-style generation still works in practice
  // because the cutoff keeps enough low-contrast candidates around. With
  // 3 relevant + 3 noise attributes and a generous cutoff, every 2-D pair
  // survives level 2, so the {0,1,2} triple is generated and must outscore
  // everything else.
  Rng rng(23);
  Dataset cube = MakeXorCube(2000, 19);
  Dataset data(2000, 6);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t j = 0; j < 3; ++j) data.Set(i, j, cube.Get(i, j));
    for (std::size_t j = 3; j < 6; ++j) data.Set(i, j, rng.UniformDouble());
  }

  HicsParams params;
  params.statistical_test = "ks";
  params.num_iterations = 150;
  params.alpha = 0.05;
  params.candidate_cutoff = 400;  // all 15 pairs survive level 2
  params.output_top_k = 3;
  params.seed = 3;
  auto result = RunHicsSearch(data, params);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ((*result)[0].subspace, Subspace({0, 1, 2}))
      << "best: " << (*result)[0].subspace.ToString();
}

TEST(IntegrationTest, ScoresStableAcrossRepeatedPipelineRuns) {
  SyntheticParams gen;
  gen.num_objects = 300;
  gen.num_attributes = 8;
  gen.seed = 92;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 20;
  LofScorer lof({.min_pts = 10});
  auto r1 = RunHicsPipeline(data->data, params, lof);
  auto r2 = RunHicsPipeline(data->data, params, lof);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->scores, r2->scores);
}

}  // namespace
}  // namespace hics
