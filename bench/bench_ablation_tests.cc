// Ablation (paper §III-B3 / §III-E): what the contrast measure is made of.
//
// (1) The three statistical instantiations (Welch, KS, Cramer-von Mises)
//     should all work (the paper evaluates WT and KS and finds both good).
// (2) Classical correlation coefficients (Pearson / Spearman) as the
//     subspace quality measure: the paper argues they are limited to
//     pairwise *linear/monotone* dependence. On data whose dependence is
//     non-monotone with vanishing signed correlation, they must fail while
//     the slice-based contrast still works.
//
// The dataset makes the distinction sharp: each relevant attribute pair
// forms a "cross" of four clusters (up/down/left/right arms), so
// cov(x, y) = 0 by symmetry, yet the joint distribution is far from the
// product of the marginals. Non-trivial outliers sit at the empty corner
// combinations. Ten noise attributes are added; each measure selects its
// 10 favourite 2-D subspaces for the shared LOF ranking.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "core/hics.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace {

using hics::bench::RunSubspaceMethod;
using hics::bench::Unwrap;

constexpr std::size_t kLofMinPts = 10;
constexpr int kRepetitions = 3;
constexpr std::size_t kGroups = 5;
constexpr std::size_t kNoiseAttrs = 10;
constexpr std::size_t kTopK = 10;

hics::Dataset BuildCrossPatternData(std::uint64_t seed) {
  hics::Rng rng(seed);
  const std::size_t d = 2 * kGroups + kNoiseAttrs;
  const std::size_t n = 1000;
  hics::Dataset data(n, d);
  std::vector<bool> labels(n, false);

  // Cross arms: four clusters whose signed correlation cancels exactly.
  constexpr double kArms[4][2] = {
      {0.5, 0.15}, {0.5, 0.85}, {0.15, 0.5}, {0.85, 0.5}};
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& arm = kArms[rng.UniformIndex(4)];
      data.Set(i, 2 * g, arm[0] + rng.Gaussian(0.0, 0.035));
      data.Set(i, 2 * g + 1, arm[1] + rng.Gaussian(0.0, 0.035));
    }
  }
  for (std::size_t j = 2 * kGroups; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      data.Set(i, j, rng.UniformDouble());
    }
  }
  // Non-trivial outliers: corner combinations. Each coordinate value is
  // common in its marginal (the cross arms put plenty of mass at 0.15,
  // 0.5, 0.85 per attribute); the combination is empty.
  constexpr double kCorners[4][2] = {
      {0.15, 0.15}, {0.15, 0.85}, {0.85, 0.15}, {0.85, 0.85}};
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t o = 0; o < 4; ++o) {
      const std::size_t id = rng.UniformIndex(n);
      data.Set(id, 2 * g, kCorners[o][0] + rng.Gaussian(0.0, 0.02));
      data.Set(id, 2 * g + 1, kCorners[o][1] + rng.Gaussian(0.0, 0.02));
      labels[id] = true;
    }
  }
  hics::bench::CheckOk(data.SetLabels(labels), "labels");
  return data;
}

/// Ranks all 2-D subspaces by |coefficient|, keeps the kTopK best, runs
/// the shared LOF ranking.
double CorrelationBaselineAuc(const hics::Dataset& data, bool spearman) {
  std::vector<hics::ScoredSubspace> scored;
  for (std::size_t a = 0; a < data.num_attributes(); ++a) {
    for (std::size_t b = a + 1; b < data.num_attributes(); ++b) {
      const double r =
          spearman
              ? hics::stats::SpearmanCorrelation(data.Column(a),
                                                 data.Column(b))
              : hics::stats::PearsonCorrelation(data.Column(a),
                                                data.Column(b));
      scored.push_back({hics::Subspace({a, b}), std::fabs(r)});
    }
  }
  hics::KeepTopK(&scored, kTopK);
  const hics::LofScorer lof({kLofMinPts});
  const auto scores = hics::RankWithSubspaces(
      hics::PreparedDataset(data), hics::PlainSubspaces(scored), lof);
  return Unwrap(hics::ComputeAuc(scores, data.labels()), "AUC");
}

}  // namespace

int main() {
  std::printf("== Ablation: contrast instantiations -- Welch/KS/CvM vs "
              "classical correlation ==\n");
  std::printf("cross-pattern data (cov == 0 by symmetry, strong "
              "dependence): N=1000, D=%zu,\n%d repetitions; every measure "
              "selects its top-%zu 2-D subspaces for LOF\n\n",
              2 * kGroups + kNoiseAttrs, kRepetitions, kTopK);

  hics::stats::RunningStats wt, ks, cvm, pearson, spearman;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const hics::Dataset data = BuildCrossPatternData(5100 + rep);

    hics::HicsParams params;
    params.seed = rep + 1;
    params.output_top_k = kTopK;
    params.max_dimensionality = 2;  // same candidate space as the baselines
    wt.Add(RunSubspaceMethod(*hics::MakeHicsMethod(params), data,
                             kLofMinPts)
               .auc);
    params.statistical_test = "ks";
    ks.Add(RunSubspaceMethod(*hics::MakeHicsMethod(params), data,
                             kLofMinPts)
               .auc);
    params.statistical_test = "cvm";
    cvm.Add(RunSubspaceMethod(*hics::MakeHicsMethod(params), data,
                              kLofMinPts)
                .auc);
    pearson.Add(CorrelationBaselineAuc(data, /*spearman=*/false));
    spearman.Add(CorrelationBaselineAuc(data, /*spearman=*/true));
  }

  std::printf("%-22s %5.1f +- %.1f\n", "HiCS_WT (Welch)", 100.0 * wt.mean(),
              100.0 * wt.stddev());
  std::printf("%-22s %5.1f +- %.1f\n", "HiCS_KS (Kolmogorov)",
              100.0 * ks.mean(), 100.0 * ks.stddev());
  std::printf("%-22s %5.1f +- %.1f\n", "HiCS_CvM (Cramer-vM)",
              100.0 * cvm.mean(), 100.0 * cvm.stddev());
  std::printf("%-22s %5.1f +- %.1f\n", "|Pearson| top-10",
              100.0 * pearson.mean(), 100.0 * pearson.stddev());
  std::printf("%-22s %5.1f +- %.1f\n", "|Spearman| top-10",
              100.0 * spearman.mean(), 100.0 * spearman.stddev());
  std::printf(
      "\nexpected shape: the rank/CDF-based instantiations (KS, CvM) stay "
      "at ~100;\nPearson/Spearman collapse toward chance (signed statistic "
      "cancels, §III-B3);\nand notably HiCS_WT collapses WITH them -- the "
      "cross is mean-symmetric, so a\nmoments-only test sees nothing. This "
      "is the paper's §III-E theoretical point\n(KS 'uses the full "
      "information of the data samples' while t-tests rely on\nmoments) "
      "made concrete.\n");
  return 0;
}
