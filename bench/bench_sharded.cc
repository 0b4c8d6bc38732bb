// Sharded data plane calibration (DESIGN.md §5i): pins the two
// correctness drills of the sharded path and measures its scaling.
//
//   sharded_identical     — the sharded grid-density ranking (per-shard
//                           grids over global ranges, exact histogram
//                           merge) must equal the unsharded prepared
//                           ranking byte for byte, at every shard count.
//   merge_within_tolerance — the sharded contrast matrix is a different
//                           estimator (per-shard Monte Carlo streams,
//                           row-count-weighted merge), so it agrees with
//                           the unsharded matrix statistically, not
//                           bitwise. On *null* (independent) attribute
//                           pairs the deviation 1 - p wobbles per pair
//                           by ~±0.2 with the realized data sample —
//                           irreducible by more iterations, and mostly
//                           the UNSHARDED estimator's wobble (the shard
//                           ensemble averages four independent data
//                           quirks). The drill therefore bounds what the
//                           merge is answerable for: high-contrast
//                           entries (what the lattice search consumes)
//                           tightly, the mean absolute difference (which
//                           catches systematic weighting bugs), and the
//                           max difference loosely as a gross-distortion
//                           backstop.
//   one_shard_identical   — a one-shard plane is the unsharded estimator:
//                           the search and the contrast matrix on
//                           ShardedDataset(ds, 1) must equal those on the
//                           PreparedDataset byte for byte.
//
// Scaling: HicsModel::Fit wall clock at 1 / 2 / 4 shards (same thread
// budget) — the sharded search does ~M*N/S slice work per subspace
// instead of M*N, so fit time should drop well below the unsharded
// baseline (fit_speedup_4shards; CI asserts the drills, the speedup is
// recorded for trend tracking).
//
// Output: a table on stdout and BENCH_sharded.json. Exit is nonzero when
// any drill fails. Rerun after changes to the shard merge paths.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/contrast_matrix.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "outlier/grid_density.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"

namespace hics {
namespace {

/// Two clustered attribute pairs + uniform noise dims: enough structure
/// that the search has real subspaces to find, enough rows that the
/// per-shard work split is the dominant cost.
Dataset CorrelatedDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double c0 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    const double c1 = rng.Bernoulli(0.5) ? 0.3 : 0.7;
    for (std::size_t a = 0; a < d; ++a) {
      double v;
      if (a < 2) {
        v = c0 + rng.Gaussian(0.0, 0.04);
      } else if (a < 4) {
        v = c1 + rng.Gaussian(0.0, 0.05);
      } else {
        v = rng.UniformDouble();
      }
      ds.Set(i, a, v);
    }
  }
  return ds;
}

double FitSeconds(const Dataset& ds, const HicsModelConfig& config) {
  Timer timer;
  const auto model = HicsModel::Fit(ds, config);
  HICS_CHECK(model.ok());
  return timer.ElapsedSeconds();
}

}  // namespace

int Run() {
  const std::size_t kN = 24000;
  const std::size_t kD = 8;
  const std::vector<std::size_t> kShardCounts = {2, 4, 8};
  // Tolerances of the contrast drill (see the header comment for why the
  // max bound is loose): informative entries (unsharded contrast >= 0.8)
  // must track tightly, the mean catches systematic weighting errors,
  // the max only guards against gross distortion.
  const double kInformativeThreshold = 0.8;
  const double kInformativeTolerance = 0.05;
  const double kMeanTolerance = 0.10;
  const double kMaxTolerance = 0.30;

  const Dataset ds = CorrelatedDataset(kN, kD, 20120402);
  const PreparedDataset prepared(ds, /*build_threads=*/4);

  HicsParams search;
  search.num_iterations = 50;
  search.candidate_cutoff = 60;
  search.output_top_k = 20;
  search.num_threads = 4;

  // --- Drill 1: exact histogram merge --------------------------------
  // Rank the search's subspaces through the grid scorer, sharded vs
  // unsharded; the merge is exact, so every shard count must agree byte
  // for byte with the prepared path.
  const auto scored = RunHicsSearch(prepared, search);
  HICS_CHECK(scored.ok());
  std::vector<Subspace> subspaces;
  for (const auto& s : *scored) subspaces.push_back(s.subspace);
  const GridDensityScorer grid(
      {.bins_per_dim = 32, .smooth = true, .num_threads = 4});
  const std::vector<double> reference = RankWithSubspaces(
      prepared, subspaces, grid, ScoreAggregation::kAverage, 4);
  bool sharded_identical = true;
  std::printf("grid merge identity (N=%zu, D=%zu, %zu subspaces)\n", kN, kD,
              subspaces.size());
  for (std::size_t shards : kShardCounts) {
    const ShardedDataset sharded(ds, shards, /*build_threads=*/4);
    const auto ranked = RankWithSubspacesSharded(
        sharded, subspaces, grid, ScoreAggregation::kAverage,
        ShardedScoringPolicy::kRequireExactMerge, 4);
    HICS_CHECK(ranked.ok());
    const bool identical = *ranked == reference;
    sharded_identical = sharded_identical && identical;
    std::printf("  shards=%zu: %s\n", shards,
                identical ? "identical" : "MISMATCH (BUG)");
  }

  // --- Drill 2: contrast merge tolerance -----------------------------
  // More iterations than the search uses: the drill compares two
  // *different* estimators (per-shard streams vs one stream), so both
  // must be tight enough that their Monte Carlo noise fits the bound.
  ContrastMatrixParams cparams;
  cparams.contrast.num_iterations = 200;
  cparams.num_threads = 4;
  const auto unsharded_matrix = ComputeContrastMatrix(prepared, cparams);
  HICS_CHECK(unsharded_matrix.ok());
  double max_abs_diff = 0.0;
  double mean_abs_diff = 0.0;
  double max_informative_diff = 0.0;
  {
    const ShardedDataset sharded(ds, 4, /*build_threads=*/4);
    const auto sharded_matrix = ComputeContrastMatrix(sharded, cparams);
    HICS_CHECK(sharded_matrix.ok());
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < kD; ++i) {
      for (std::size_t j = i + 1; j < kD; ++j) {
        const double u = (*unsharded_matrix)(i, j);
        const double diff = std::fabs(u - (*sharded_matrix)(i, j));
        max_abs_diff = std::max(max_abs_diff, diff);
        mean_abs_diff += diff;
        ++pairs;
        if (u >= kInformativeThreshold) {
          max_informative_diff = std::max(max_informative_diff, diff);
        }
      }
    }
    mean_abs_diff /= static_cast<double>(pairs);
  }
  const bool merge_within_tolerance =
      max_informative_diff <= kInformativeTolerance &&
      mean_abs_diff <= kMeanTolerance && max_abs_diff <= kMaxTolerance;
  std::printf(
      "contrast merge vs unsharded (4 shards, M=%zu):\n"
      "  informative entries (>= %.1f): max diff %.4f (tolerance %.2f)\n"
      "  mean |diff| %.4f (tolerance %.2f)\n"
      "  max  |diff| %.4f (tolerance %.2f)\n"
      "  -> %s\n",
      cparams.contrast.num_iterations, kInformativeThreshold,
      max_informative_diff, kInformativeTolerance, mean_abs_diff,
      kMeanTolerance, max_abs_diff, kMaxTolerance,
      merge_within_tolerance ? "within tolerance" : "EXCEEDED (BUG)");

  // --- Drill 3: one shard is the unsharded estimator ----------------
  bool one_shard_identical = false;
  {
    const ShardedDataset one(ds, 1, /*build_threads=*/4);
    const auto one_scored = RunHicsSearch(one, search);
    const auto one_matrix = ComputeContrastMatrix(one, cparams);
    HICS_CHECK(one_scored.ok());
    HICS_CHECK(one_matrix.ok());
    one_shard_identical = one_scored->size() == scored->size();
    for (std::size_t i = 0; one_shard_identical && i < scored->size(); ++i) {
      const double a = (*one_scored)[i].score;
      const double b = (*scored)[i].score;
      one_shard_identical = (*one_scored)[i].subspace ==
                                (*scored)[i].subspace &&
                            std::memcmp(&a, &b, sizeof(double)) == 0;
    }
    for (std::size_t i = 0; one_shard_identical && i < kD; ++i) {
      for (std::size_t j = 0; j < kD; ++j) {
        const double a = (*one_matrix)(i, j);
        const double b = (*unsharded_matrix)(i, j);
        one_shard_identical = one_shard_identical &&
                              std::memcmp(&a, &b, sizeof(double)) == 0;
      }
    }
  }
  std::printf("one-shard plane vs unsharded (search + matrix): %s\n",
              one_shard_identical ? "identical" : "MISMATCH (BUG)");

  // --- Scaling: fit wall clock vs shard count ------------------------
  HicsModelConfig config;
  config.search_params = search;
  config.scorer = {ScorerKind::kGridDensity, 32};
  std::vector<std::pair<std::size_t, double>> fit_times;
  std::printf("\nHicsModel::Fit wall clock (threads=4)\n");
  for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                             std::size_t{4}}) {
    config.num_shards = shards;
    // Warm-up then timed run: the first fit pays one-time page faults.
    FitSeconds(ds, config);
    const double seconds = FitSeconds(ds, config);
    fit_times.emplace_back(shards, seconds);
    std::printf("  shards=%zu: %9.4f s%s\n", shards, seconds,
                shards == 1 ? "  (baseline)" : "");
  }
  const double fit_speedup_4shards =
      fit_times.front().second / fit_times.back().second;
  std::printf("  speedup at 4 shards: %.2fx\n", fit_speedup_4shards);

  bench::JsonWriter json;
  json.BeginObject().Field("benchmark", "bench_sharded.data_plane");
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json, 4);
  json.BeginObject("dataset")
      .Field("num_objects", static_cast<std::uint64_t>(kN))
      .Field("num_attributes", static_cast<std::uint64_t>(kD))
      .EndObject();
  json.BeginArray("fit_seconds");
  for (const auto& [shards, seconds] : fit_times) {
    json.BeginObject()
        .Field("num_shards", static_cast<std::uint64_t>(shards))
        .Field("seconds", seconds)
        .EndObject();
  }
  json.EndArray();
  json.Field("fit_speedup_4shards", fit_speedup_4shards)
      .Field("contrast_max_informative_diff", max_informative_diff)
      .Field("contrast_mean_abs_diff", mean_abs_diff)
      .Field("contrast_max_abs_diff", max_abs_diff)
      .Field("sharded_identical", sharded_identical)
      .Field("merge_within_tolerance", merge_within_tolerance)
      .Field("one_shard_identical", one_shard_identical)
      .EndObject();
  if (bench::WriteJsonFile("BENCH_sharded.json", json)) {
    std::printf("\n-> BENCH_sharded.json\n");
  }
  return sharded_identical && merge_within_tolerance && one_shard_identical
             ? 0
             : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
