#include "core/hics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/sharded_dataset.h"

namespace hics {
namespace {

// -------------------------------------------------- lattice utilities --

TEST(LatticeTest, AllTwoDimensionalSubspacesCount) {
  const auto level = internal::AllTwoDimensionalSubspaces(5);
  EXPECT_EQ(level.size(), 10u);
  EXPECT_EQ(level.front(), Subspace({0, 1}));
  EXPECT_EQ(level.back(), Subspace({3, 4}));
  EXPECT_TRUE(std::is_sorted(level.begin(), level.end()));
}

TEST(LatticeTest, AllTwoDimensionalDegenerateInputs) {
  EXPECT_TRUE(internal::AllTwoDimensionalSubspaces(0).empty());
  EXPECT_TRUE(internal::AllTwoDimensionalSubspaces(1).empty());
  EXPECT_EQ(internal::AllTwoDimensionalSubspaces(2).size(), 1u);
}

TEST(LatticeTest, GenerateCandidatesJoinsPrefixes) {
  const std::vector<Subspace> level = {
      Subspace({0, 1}), Subspace({0, 2}), Subspace({1, 2}), Subspace({3, 4})};
  const auto next = internal::GenerateCandidates(level);
  // {0,1}+{0,2} -> {0,1,2}; nothing joins with {3,4}.
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0], Subspace({0, 1, 2}));
}

TEST(LatticeTest, GenerateCandidatesThreeToFour) {
  const std::vector<Subspace> level = {
      Subspace({0, 1, 2}), Subspace({0, 1, 3}), Subspace({0, 1, 4}),
      Subspace({0, 2, 3})};
  const auto next = internal::GenerateCandidates(level);
  // Joins: {0,1,2}+{0,1,3}, {0,1,2}+{0,1,4}, {0,1,3}+{0,1,4}.
  ASSERT_EQ(next.size(), 3u);
  EXPECT_EQ(next[0], Subspace({0, 1, 2, 3}));
  EXPECT_EQ(next[1], Subspace({0, 1, 2, 4}));
  EXPECT_EQ(next[2], Subspace({0, 1, 3, 4}));
}

TEST(LatticeTest, GenerateCandidatesEmptyInput) {
  EXPECT_TRUE(internal::GenerateCandidates({}).empty());
  EXPECT_TRUE(internal::GenerateCandidates({Subspace({0, 1})}).empty());
}

TEST(LatticeTest, PruneRedundantRemovesDominatedSubsets) {
  std::vector<ScoredSubspace> pool = {
      {Subspace({0, 1}), 0.5},        // dominated by {0,1,2} (higher score)
      {Subspace({0, 1, 2}), 0.8},
      {Subspace({2, 3}), 0.9},        // NOT dominated ({2,3,4} scores less)
      {Subspace({2, 3, 4}), 0.7},
      {Subspace({5, 6}), 0.4},        // no superset present
  };
  const std::size_t removed = internal::PruneRedundant(&pool);
  EXPECT_EQ(removed, 1u);
  std::set<std::string> kept;
  for (const auto& s : pool) kept.insert(s.subspace.ToString());
  EXPECT_EQ(kept.count("{0, 1}"), 0u);
  EXPECT_EQ(kept.count("{2, 3}"), 1u);
  EXPECT_EQ(kept.count("{5, 6}"), 1u);
}

TEST(LatticeTest, PruneRedundantOnlyDirectSupersets) {
  // A (d+2)-dim superset does not prune a d-dim subspace directly.
  std::vector<ScoredSubspace> pool = {
      {Subspace({0, 1}), 0.5},
      {Subspace({0, 1, 2, 3}), 0.9},
  };
  EXPECT_EQ(internal::PruneRedundant(&pool), 0u);
  EXPECT_EQ(pool.size(), 2u);
}

// ------------------------------------------------------ params --

TEST(HicsParamsTest, DefaultsAreValid) {
  EXPECT_TRUE(HicsParams{}.Validate().ok());
}

TEST(HicsParamsTest, RejectsBadValues) {
  HicsParams p;
  p.num_iterations = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = HicsParams{};
  p.alpha = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = HicsParams{};
  p.candidate_cutoff = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = HicsParams{};
  p.output_top_k = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = HicsParams{};
  p.statistical_test = "anova";
  EXPECT_FALSE(p.Validate().ok());
  p = HicsParams{};
  p.max_dimensionality = 1;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(HicsParamsTest, EdgeValuesReportInvalidArgument) {
  // Every rejected edge value must carry the exact StatusCode so API
  // callers can branch on it.
  const auto code_for = [](auto&& mutate) {
    HicsParams p;
    mutate(p);
    return p.Validate().code();
  };
  EXPECT_EQ(code_for([](HicsParams& p) { p.alpha = 0.0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.alpha = 1.0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.alpha = -0.25; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.candidate_cutoff = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.output_top_k = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.statistical_test = "mannwhitney"; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.statistical_test = ""; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_for([](HicsParams& p) { p.num_iterations = 0; }),
            StatusCode::kInvalidArgument);
}

TEST(HicsParamsTest, AlphaBoundaryJustInsideDomainIsValid) {
  HicsParams p;
  p.alpha = 1e-9;
  EXPECT_TRUE(p.Validate().ok());
  p.alpha = 1.0 - 1e-9;
  EXPECT_TRUE(p.Validate().ok());
}

// ------------------------------------------------------ end-to-end --

TEST(HicsSearchTest, RejectsDegenerateDatasets) {
  Dataset one_attr(100, 1);
  EXPECT_FALSE(RunHicsSearch(one_attr, HicsParams{}).ok());
  Dataset one_obj(1, 5);
  EXPECT_FALSE(RunHicsSearch(one_obj, HicsParams{}).ok());
}

TEST(HicsSearchTest, FindsImplantedSubspacesAmongNoise) {
  SyntheticParams gen;
  gen.num_objects = 800;
  gen.num_attributes = 10;
  gen.min_subspace_dims = 2;
  gen.max_subspace_dims = 3;
  gen.seed = 21;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  HicsParams params;
  params.num_iterations = 60;
  params.seed = 5;
  params.output_top_k = 10;
  HicsRunStats stats;
  auto result = RunHicsSearch(data->data, params, {}, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_GT(stats.contrast_evaluations, 0u);
  EXPECT_GE(stats.levels_processed, 1u);

  // Every top-ranked subspace must carry genuine dependence: it has to
  // contain at least one within-group attribute pair. (A superset spanning
  // two implanted groups is itself correlated, so exact group identity is
  // not required -- but a pure cross-group noise combination would be a
  // false positive.)
  for (std::size_t i = 0; i < result->size(); ++i) {
    const Subspace& found = (*result)[i].subspace;
    std::size_t best_overlap = 0;
    for (const Subspace& implanted : data->relevant_subspaces) {
      std::size_t overlap = 0;
      for (std::size_t dim : found) {
        if (implanted.Contains(dim)) ++overlap;
      }
      best_overlap = std::max(best_overlap, overlap);
    }
    EXPECT_GE(best_overlap, 2u)
        << "rank " << i << ": " << found.ToString()
        << " has no within-group pair";
  }
}

TEST(HicsSearchTest, ScoresSortedDescendingAndBounded) {
  SyntheticParams gen;
  gen.num_objects = 400;
  gen.num_attributes = 8;
  gen.seed = 22;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 30;
  auto result = RunHicsSearch(data->data, params);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i + 1 < result->size(); ++i) {
    EXPECT_GE((*result)[i].score, (*result)[i + 1].score);
  }
  for (const auto& s : *result) {
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.0);
    EXPECT_GE(s.subspace.size(), 2u);
  }
}

TEST(HicsSearchTest, DeterministicForSameSeed) {
  SyntheticParams gen;
  gen.num_objects = 300;
  gen.num_attributes = 6;
  gen.seed = 23;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 25;
  params.seed = 77;
  auto r1 = RunHicsSearch(data->data, params);
  auto r2 = RunHicsSearch(data->data, params);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (std::size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].subspace, (*r2)[i].subspace);
    EXPECT_DOUBLE_EQ((*r1)[i].score, (*r2)[i].score);
  }
}

TEST(HicsSearchTest, MaxDimensionalityBoundsLevels) {
  SyntheticParams gen;
  gen.num_objects = 300;
  gen.num_attributes = 8;
  gen.min_subspace_dims = 4;
  gen.max_subspace_dims = 4;
  gen.seed = 24;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 25;
  params.max_dimensionality = 2;
  HicsRunStats stats;
  auto result = RunHicsSearch(data->data, params, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.levels_processed, 1u);
  EXPECT_EQ(stats.max_level_reached, 2u);
  for (const auto& s : *result) EXPECT_EQ(s.subspace.size(), 2u);

  const ShardedDataset sharded(data->data, 3);
  HicsRunStats sharded_stats;
  auto sharded_result = RunHicsSearch(sharded, params, {}, &sharded_stats);
  ASSERT_TRUE(sharded_result.ok());
  EXPECT_EQ(sharded_stats.levels_processed, 1u);
  EXPECT_EQ(sharded_stats.max_level_reached, 2u);
  EXPECT_FALSE(sharded_result->empty());
  for (const auto& s : *sharded_result) EXPECT_EQ(s.subspace.size(), 2u);
}

TEST(HicsSearchTest, CutoffLimitsCandidatesAndRuntime) {
  SyntheticParams gen;
  gen.num_objects = 300;
  gen.num_attributes = 12;
  gen.seed = 25;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  HicsParams tight;
  tight.num_iterations = 20;
  tight.candidate_cutoff = 5;
  HicsRunStats tight_stats;
  ASSERT_TRUE(RunHicsSearch(data->data, tight, {}, &tight_stats).ok());

  HicsParams loose = tight;
  loose.candidate_cutoff = 200;
  HicsRunStats loose_stats;
  ASSERT_TRUE(RunHicsSearch(data->data, loose, {}, &loose_stats).ok());

  EXPECT_LT(tight_stats.contrast_evaluations,
            loose_stats.contrast_evaluations);
  EXPECT_GT(tight_stats.cutoff_applications, 0u);
}

TEST(HicsSearchTest, OutputTopKRespected) {
  SyntheticParams gen;
  gen.num_objects = 300;
  gen.num_attributes = 10;
  gen.seed = 26;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 20;
  params.output_top_k = 7;
  auto result = RunHicsSearch(data->data, params);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 7u);
}

TEST(HicsSearchTest, PruningReducesOrKeepsPoolSize) {
  SyntheticParams gen;
  gen.num_objects = 400;
  gen.num_attributes = 8;
  gen.seed = 27;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams with_prune;
  with_prune.num_iterations = 30;
  with_prune.prune_redundant = true;
  with_prune.output_top_k = 1000;
  HicsRunStats stats_prune;
  auto pruned = RunHicsSearch(data->data, with_prune, {}, &stats_prune);
  ASSERT_TRUE(pruned.ok());

  HicsParams no_prune = with_prune;
  no_prune.prune_redundant = false;
  HicsRunStats stats_noprune;
  auto unpruned = RunHicsSearch(data->data, no_prune, {}, &stats_noprune);
  ASSERT_TRUE(unpruned.ok());

  EXPECT_EQ(stats_noprune.pruned_redundant, 0u);
  EXPECT_LE(pruned->size(), unpruned->size());
  EXPECT_EQ(unpruned->size(), pruned->size() + stats_prune.pruned_redundant);
}

TEST(HicsSearchTest, KsVariantAlsoFindsStructure) {
  SyntheticParams gen;
  gen.num_objects = 500;
  gen.num_attributes = 8;
  gen.min_subspace_dims = 2;
  gen.max_subspace_dims = 2;
  gen.seed = 28;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.statistical_test = "ks";
  params.num_iterations = 50;
  params.output_top_k = 4;
  auto result = RunHicsSearch(data->data, params);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  // The best subspace must be one of the implanted 2-D groups.
  bool found = false;
  for (const Subspace& implanted : data->relevant_subspaces) {
    if (implanted.ContainsAll((*result)[0].subspace)) found = true;
  }
  EXPECT_TRUE(found) << (*result)[0].subspace.ToString();
}

}  // namespace
}  // namespace hics
