// Ablation (paper §IV-C): average vs maximum aggregation of per-subspace
// outlier scores. The paper gives two reasons for Definition 1's average:
//  (1) max is "very sensitive to fluctuations of the outlierness ...
//      especially if the number of detected subspaces is large", and
//  (2) average makes outlierness *cumulative*: "if an object deviates in
//      several subspaces, its total outlierness will increase compared to
//      objects that only appear as outlier in a single subspace".
// This bench tests both mechanisms directly on constructed data: outliers
// deviating in exactly one vs in three subspaces, with a growing number of
// irrelevant (noise) subspaces mixed into the aggregated list.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/random.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "stats/descriptive.h"

namespace {

using hics::bench::Unwrap;

constexpr std::size_t kObjects = 1000;
constexpr std::size_t kGroups = 6;        // relevant 2-D subspaces
constexpr std::size_t kNoiseAttrs = 12;   // source of irrelevant subspaces
constexpr std::size_t kSingle = 5;        // outliers deviating in 1 group
constexpr std::size_t kMulti = 5;         // outliers deviating in 3 groups

struct Constructed {
  hics::Dataset data;
  std::vector<hics::Subspace> relevant;
  std::vector<std::size_t> single_ids;
  std::vector<std::size_t> multi_ids;
};

Constructed Build(std::uint64_t seed) {
  hics::Rng rng(seed);
  const std::size_t d = 2 * kGroups + kNoiseAttrs;
  Constructed c{hics::Dataset(kObjects, d), {}, {}, {}};
  std::vector<bool> labels(kObjects, false);

  // Regular structure: per group, two mixture components shared by both
  // attributes.
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t i = 0; i < kObjects; ++i) {
      const double center = rng.Bernoulli(0.5) ? 0.3 : 0.7;
      c.data.Set(i, 2 * g, center + rng.Gaussian(0.0, 0.04));
      c.data.Set(i, 2 * g + 1, center + rng.Gaussian(0.0, 0.04));
    }
    c.relevant.push_back(hics::Subspace{2 * g, 2 * g + 1});
  }
  for (std::size_t j = 2 * kGroups; j < d; ++j) {
    for (std::size_t i = 0; i < kObjects; ++i) {
      c.data.Set(i, j, rng.UniformDouble());
    }
  }

  auto implant = [&](std::size_t id, std::size_t group) {
    // Mixed-component coordinates: non-trivial deviation in this group.
    c.data.Set(id, 2 * group, 0.3 + rng.Gaussian(0.0, 0.04));
    c.data.Set(id, 2 * group + 1, 0.7 + rng.Gaussian(0.0, 0.04));
    labels[id] = true;
  };
  for (std::size_t s = 0; s < kSingle; ++s) {
    const std::size_t id = 10 + s;
    implant(id, s % kGroups);
    c.single_ids.push_back(id);
  }
  for (std::size_t m = 0; m < kMulti; ++m) {
    const std::size_t id = 500 + m;
    for (std::size_t r = 0; r < 3; ++r) implant(id, (m + r) % kGroups);
    c.multi_ids.push_back(id);
  }
  hics::bench::CheckOk(c.data.SetLabels(labels), "labels");
  return c;
}

double MeanRank(const std::vector<double>& scores,
                const std::vector<std::size_t>& ids) {
  const auto ranks = hics::stats::AverageRanks(scores);
  double sum = 0.0;
  // AverageRanks ranks ascending; convert to "rank from the top".
  for (std::size_t id : ids) {
    sum += static_cast<double>(scores.size()) + 1.0 - ranks[id];
  }
  return sum / static_cast<double>(ids.size());
}

}  // namespace

int main() {
  std::printf("== Ablation: score aggregation (Definition 1: average) vs "
              "maximum ==\n");
  std::printf("constructed data: %zu x %zu, %zu outliers deviating in ONE "
              "subspace,\n%zu deviating in THREE; aggregation over the %zu "
              "relevant subspaces plus a\ngrowing number of irrelevant "
              "noise-pair subspaces\n\n",
              kObjects, 2 * kGroups + kNoiseAttrs, kSingle, kMulti, kGroups);
  std::printf("%7s  %-14s %-14s %-22s %-22s\n", "#noise", "AUC avg",
              "AUC max", "rank single (avg|max)", "rank multi (avg|max)");

  const hics::LofScorer lof({.min_pts = 10});
  for (std::size_t num_noise : {0ul, 10ul, 40ul, 100ul}) {
    hics::stats::RunningStats auc_avg, auc_max, rank_single_avg,
        rank_single_max, rank_multi_avg, rank_multi_max;
    for (int rep = 0; rep < 3; ++rep) {
      Constructed c = Build(4100 + rep);
      hics::Rng rng(rep + 1);
      std::vector<hics::Subspace> subspaces = c.relevant;
      for (std::size_t k = 0; k < num_noise; ++k) {
        // Random pair of noise attributes.
        const std::size_t a =
            2 * kGroups + rng.UniformIndex(kNoiseAttrs);
        std::size_t b = a;
        while (b == a) b = 2 * kGroups + rng.UniformIndex(kNoiseAttrs);
        subspaces.push_back(hics::Subspace{a, b});
      }
      const hics::PreparedDataset prepared(c.data);
      const auto avg = hics::RankWithSubspaces(
          prepared, subspaces, lof, hics::ScoreAggregation::kAverage);
      const auto mx = hics::RankWithSubspaces(
          prepared, subspaces, lof, hics::ScoreAggregation::kMax);
      auc_avg.Add(Unwrap(hics::ComputeAuc(avg, c.data.labels()), "AUC"));
      auc_max.Add(Unwrap(hics::ComputeAuc(mx, c.data.labels()), "AUC"));
      rank_single_avg.Add(MeanRank(avg, c.single_ids));
      rank_single_max.Add(MeanRank(mx, c.single_ids));
      rank_multi_avg.Add(MeanRank(avg, c.multi_ids));
      rank_multi_max.Add(MeanRank(mx, c.multi_ids));
    }
    std::printf("%7zu  %5.1f +- %-5.1f  %5.1f +- %-5.1f  %8.1f | %-10.1f "
                "%8.1f | %-10.1f\n",
                num_noise, 100.0 * auc_avg.mean(), 100.0 * auc_avg.stddev(),
                100.0 * auc_max.mean(), 100.0 * auc_max.stddev(),
                rank_single_avg.mean(), rank_single_max.mean(),
                rank_multi_avg.mean(), rank_multi_max.mean());
    std::fflush(stdout);
  }
  std::printf(
      "\nexpected shape:\n"
      " (1) cumulativeness (the paper's stated reason for Definition 1): "
      "under average,\n     multi-subspace outliers rank clearly above "
      "single-subspace ones; under max\n     the gap largely vanishes.\n"
      " (2) the paper's claimed max-degradation under many subspaces "
      "requires score\n     fluctuations with a heavy right tail; on "
      "clean uniform noise LOF has none,\n     so max stays competitive "
      "here while average pays a dilution cost instead --\n     an honest "
      "boundary of the claim (see EXPERIMENTS.md).\n");
  return 0;
}
