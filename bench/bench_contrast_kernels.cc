// Contrast kernel calibration: times one ContrastEstimator evaluation
// (M Monte Carlo iterations) through both deviation kernels over an
// (N, |S|, M, alpha, test) grid:
//
//   oracle — the materializing gather+sort reference
//            (tests/contrast_oracle.h): per-draw O(N) counter clear,
//            gather of the conditional sample, and (for rank tests) a
//            per-draw O(m log m) sort,
//   rank   — ContrastEstimator's rank-space kernel (DESIGN.md §5d):
//            rank-predicate selection + DeviationFromSelection (fused
//            slice select + moments for Welch, slice mask + sorted-order
//            emission for KS/CvM).
//
// It also times the whole per-draw select on every runnable SIMD tier
// per (N, |S|, alpha): SliceSampler::DrawSelection plus what the
// deviation runs before its statistic — the fused slice_select for Welch
// (SelectInIdOrder), slice_mask + compact_selected_sorted for KS/CvM
// (SelectSorted).
//
// Output: a table on stdout and BENCH_contrast_kernels.json with every
// cell, the per-cell speedup, and an `identical` flag — the two kernels
// must agree bit for bit on every cell (the CI perf-smoke job asserts
// `all_identical`) — plus the per-draw select cost per tier and
// `select_identical`: on every tier and draw, slice_select wrote the
// bytes scalar slice_mask + compact_selected write (CI asserts it too).
// Rerun after kernel changes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_kernels.h"
#include "tests/contrast_oracle.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "engine/prepared_dataset.h"
#include "simd/simd.h"
#include "stats/two_sample_test.h"

namespace hics {
namespace {

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

Subspace FirstDims(std::size_t k) {
  std::vector<std::size_t> dims(k);
  for (std::size_t i = 0; i < k; ++i) dims[i] = i;
  return Subspace(dims);
}

/// Median of `runs` timed executions of fn(); rejects one-off scheduler
/// hiccups.
template <typename Fn>
double MedianSeconds(int runs, const Fn& fn) {
  std::vector<double> times;
  times.reserve(runs);
  for (int r = 0; r < runs; ++r) {
    Timer timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Runnable tiers, lowest first.
std::vector<simd::SimdTier> RunnableTiers() {
  std::vector<simd::SimdTier> tiers;
  for (simd::SimdTier tier : {simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
                              simd::SimdTier::kAvx512}) {
    if (tier <= simd::DetectedTier()) tiers.push_back(tier);
  }
  return tiers;
}

struct SelectCost {
  std::size_t n;
  std::size_t dims;
  double alpha;
  simd::SimdTier tier;
  double welch_seconds_per_draw;  // DrawSelection + SelectInIdOrder
  double rank_seconds_per_draw;   // DrawSelection + SelectSorted
};

/// The rank-space view of one drawn selection, as ContrastEstimator
/// builds it.
stats::SelectionView ViewOf(const PreparedDataset& prepared,
                            const SliceSelection& selection) {
  stats::SelectionView view;
  const std::size_t attribute = selection.test_attribute;
  view.marginal_sorted = prepared.SortedColumn(attribute);
  view.column = prepared.dataset().Column(attribute);
  view.sorted_order = prepared.sorted_index().SortedOrder(attribute);
  view.condition_ranks = selection.condition_ranks;
  view.condition_starts = selection.condition_starts;
  view.block = selection.block;
  return view;
}

/// Median wall clock of one draw + select over `draws` consecutive draws
/// (the RNG stream a contrast evaluation would consume), on `tier`.
/// `select` is SelectInIdOrder or SelectSorted.
template <typename Select>
double SelectSeconds(const PreparedDataset& prepared,
                     const SliceSampler& sampler, const Subspace& subspace,
                     double alpha, std::uint64_t seed, int draws, int runs,
                     simd::SimdTier tier, const Select& select) {
  const simd::ScopedSimdTier forced(tier);
  SliceScratch scratch;
  SliceSelection selection;
  stats::SelectionScratch deviation;
  std::size_t selected = 0;
  const double seconds = MedianSeconds(runs, [&] {
    Rng rng(seed);
    for (int d = 0; d < draws; ++d) {
      sampler.DrawSelection(subspace, alpha, &rng, &scratch, &selection);
      selected += select(ViewOf(prepared, selection), &deviation).size();
    }
  });
  bench::KeepAlive(selected);
  return seconds / draws;
}

/// Whether, for `draws` draws, every tier's fused slice_select writes the
/// count and bytes of scalar slice_mask + compact_selected.
bool SelectIdentical(const PreparedDataset& prepared,
                     const SliceSampler& sampler, const Subspace& subspace,
                     double alpha, std::uint64_t seed, int draws) {
  const simd::SimdKernels& scalar =
      simd::KernelsForTier(simd::SimdTier::kScalar);
  const std::size_t n = prepared.dataset().num_objects();
  SliceScratch scratch;
  SliceSelection selection;
  std::vector<std::uint32_t> mask(n);
  std::vector<double> want(n + simd::kCompactPad);
  std::vector<double> got(n + simd::kCompactPad);
  Rng rng(seed);
  for (int d = 0; d < draws; ++d) {
    sampler.DrawSelection(subspace, alpha, &rng, &scratch, &selection);
    const std::vector<double>& column =
        prepared.dataset().Column(selection.test_attribute);
    scalar.slice_mask(selection.condition_ranks.data(),
                      selection.condition_starts.data(),
                      selection.num_conditions(), selection.block, n,
                      mask.data());
    const std::size_t k = scalar.compact_selected(column.data(), mask.data(),
                                                  n, 1, want.data());
    for (simd::SimdTier tier : RunnableTiers()) {
      const std::size_t got_k = simd::KernelsForTier(tier).slice_select(
          selection.condition_ranks.data(), selection.condition_starts.data(),
          selection.num_conditions(), selection.block, column.data(), n,
          got.data());
      if (got_k != k ||
          !std::equal(want.begin(), want.begin() + k, got.begin(),
                      [](double a, double b) {
                        return std::memcmp(&a, &b, sizeof(double)) == 0;
                      })) {
        return false;
      }
    }
  }
  return true;
}

struct Cell {
  std::size_t n;
  std::size_t dims;
  std::size_t iterations;
  double alpha;
  std::string test;
  double oracle_seconds;
  double rank_seconds;
  bool identical;
};

/// Appends a "kernels" object: effective GB/s and GFLOP/s of the
/// dispatched deviation-path kernels over a contrast-shaped working set
/// (one N=2000 column, ~alpha=0.1 selection density). These are the
/// kernels DeviationFromSelection runs per Monte Carlo draw: the fused
/// slice select (two conditions, |S| = 3) + moments for Welch,
/// sorted-order compaction for KS/CvM.
void WriteDeviationKernelThroughput(bench::JsonWriter& json) {
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  Rng rng(4242);
  const std::size_t n = 2000;
  std::vector<double> column(n);
  for (double& v : column) v = rng.UniformDouble();
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<std::uint32_t> stamps(n);
  const std::uint32_t target = 3;
  for (std::uint32_t& s : stamps) {
    s = rng.UniformDouble() < 0.1 ? target : 1;
  }
  // Two random rank permutations with |S| = 3 blocks of ceil(N * 0.1^(1/3)).
  std::vector<std::vector<std::uint32_t>> rank_columns(
      2, std::vector<std::uint32_t>(n));
  for (auto& ranks : rank_columns) {
    std::iota(ranks.begin(), ranks.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(ranks[i - 1], ranks[rng.UniformIndex(i)]);
    }
  }
  const std::uint32_t* ranks[2] = {rank_columns[0].data(),
                                   rank_columns[1].data()};
  const std::uint32_t block = 929;
  const std::uint32_t starts[2] = {300, 700};
  std::vector<double> out(n + simd::kCompactPad);
  const bench::KernelRate select = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.slice_select(ranks, starts, 2, block,
                                              column.data(), n, out.data()));
      },
      static_cast<double>(n * 2 * sizeof(std::uint32_t) +
                          n * sizeof(double)),
      0.0);
  const bench::KernelRate compact_sorted = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.compact_selected_sorted(
            sorted.data(), order.data(), stamps.data(), n, target,
            out.data()));
      },
      // Full sweep of order + gathered stamps, plus the selected ~10% of
      // sorted values read and written.
      static_cast<double>(n * (sizeof(std::size_t) +
                               sizeof(std::uint32_t)) +
                          0.1 * n * 2 * sizeof(double)),
      0.0);
  const bench::KernelRate sum_rate = bench::MeasureKernel(
      [&] { bench::KeepAlive(kernels.sum(column.data(), n)); },
      static_cast<double>(n * sizeof(double)), static_cast<double>(n));
  const bench::KernelRate ssd_rate = bench::MeasureKernel(
      [&] { bench::KeepAlive(kernels.sum_sq_dev(column.data(), n, 0.5)); },
      static_cast<double>(n * sizeof(double)),
      static_cast<double>(3 * n));
  json.BeginObject("kernels");
  bench::WriteKernelRate(json, "slice_select", select);
  bench::WriteKernelRate(json, "compact_selected_sorted", compact_sorted);
  bench::WriteKernelRate(json, "sum", sum_rate);
  bench::WriteKernelRate(json, "sum_sq_dev", ssd_rate);
  json.EndObject();
}

}  // namespace

int Run() {
  const std::vector<std::size_t> sizes = {500, 2000};
  const std::vector<std::size_t> subspace_dims = {2, 3, 5, 8};
  const std::vector<std::size_t> iteration_counts = {50};
  const std::vector<double> alphas = {0.1, 0.3};
  const std::vector<std::string> tests = {"welch", "ks", "cvm"};
  // Repeated evaluations per timed run so small cells stay measurable;
  // each rep re-seeds its RNG, so both kernels see identical draws.
  const int kContrastsPerRun = 20;
  const int kRuns = 3;

  // Per-draw select timing: draws per timed run and runs per median.
  const int kSelectDraws = 1000;
  const int kSelectRuns = 5;

  std::vector<Cell> cells;
  std::vector<SelectCost> select_costs;
  bool all_identical = true;
  bool select_identical = true;
  std::printf(
      "contrast kernel wall clock (%d evaluations, median of %d), seconds\n",
      kContrastsPerRun, kRuns);
  std::printf("%6s %4s %4s %6s %6s %12s %12s %8s %s\n", "N", "|S|", "M",
              "alpha", "test", "oracle", "rank", "speedup", "identical");
  for (std::size_t n : sizes) {
    const Dataset ds = UniformData(
        n, *std::max_element(subspace_dims.begin(), subspace_dims.end()),
        2000 + n);
    const auto prepared = PreparedDataset::Build(ds, 1);
    const SliceSampler sampler(prepared->dataset(), prepared->sorted_index());
    for (std::size_t dims : subspace_dims) {
      const Subspace subspace = FirstDims(dims);
      for (double alpha : alphas) {
        const std::uint64_t seed = 11 * n + dims;
        select_identical =
            SelectIdentical(*prepared, sampler, subspace, alpha, seed,
                            kSelectDraws) &&
            select_identical;
        for (simd::SimdTier tier : RunnableTiers()) {
          select_costs.push_back(
              {n, dims, alpha, tier,
               SelectSeconds(*prepared, sampler, subspace, alpha, seed,
                             kSelectDraws, kSelectRuns, tier,
                             stats::SelectInIdOrder),
               SelectSeconds(*prepared, sampler, subspace, alpha, seed,
                             kSelectDraws, kSelectRuns, tier,
                             stats::SelectSorted)});
        }
      }
      for (std::size_t iterations : iteration_counts) {
        for (double alpha : alphas) {
          for (const std::string& test_name : tests) {
            const auto test = stats::MakeTwoSampleTest(test_name);
            const ContrastParams params{iterations, alpha};
            const ContrastOracle oracle(ds, *test, params);
            const ContrastEstimator rank(ds, *test, params);
            const std::uint64_t seed = 7 * n + dims + iterations;
            double oracle_sum = 0.0, rank_sum = 0.0;
            const double oracle_seconds = MedianSeconds(kRuns, [&] {
              oracle_sum = 0.0;
              OracleScratch scratch;
              for (int rep = 0; rep < kContrastsPerRun; ++rep) {
                Rng rng(seed + rep);
                oracle_sum += oracle.Contrast(subspace, &rng, &scratch);
              }
            });
            const double rank_seconds = MedianSeconds(kRuns, [&] {
              rank_sum = 0.0;
              ContrastScratch scratch;
              for (int rep = 0; rep < kContrastsPerRun; ++rep) {
                Rng rng(seed + rep);
                rank_sum += rank.Contrast(subspace, &rng, &scratch);
              }
            });
            // Bitwise-identical per-draw deviations make the accumulated
            // sums bitwise-equal too.
            const bool identical = oracle_sum == rank_sum;
            all_identical = all_identical && identical;
            cells.push_back({n, dims, iterations, alpha, test_name,
                             oracle_seconds, rank_seconds, identical});
            std::printf("%6zu %4zu %4zu %6.2f %6s %12.6f %12.6f %7.2fx %s\n",
                        n, dims, iterations, alpha, test_name.c_str(),
                        oracle_seconds, rank_seconds,
                        oracle_seconds / rank_seconds,
                        identical ? "yes" : "NO (BUG)");
          }
        }
      }
    }
  }
  std::printf(
      "\nexpected shape: the rank kernel wins everywhere — most at low |S|\n"
      "(the O(N) per-draw clear dominates there) and on the rank tests\n"
      "(the per-draw conditional sort disappears); `identical` must be yes\n"
      "in every cell.\n");
  std::printf(
      "\nper-draw select (DrawSelection + select), microseconds per draw\n"
      "welch = fused slice_select, rank = slice_mask + sorted compaction\n");
  std::printf("%6s %4s %6s %7s %10s %10s\n", "N", "|S|", "alpha", "tier",
              "welch", "rank");
  for (const SelectCost& d : select_costs) {
    std::printf("%6zu %4zu %6.2f %7s %10.3f %10.3f\n", d.n, d.dims, d.alpha,
                simd::SimdTierName(d.tier), d.welch_seconds_per_draw * 1e6,
                d.rank_seconds_per_draw * 1e6);
  }
  std::printf("select_identical: %s\n", select_identical ? "yes" : "NO (BUG)");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_contrast_kernels.rank_vs_oracle")
      .Field("contrasts_per_run",
             static_cast<std::uint64_t>(kContrastsPerRun));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  WriteDeviationKernelThroughput(json);
  json.BeginArray("grid");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("subspace_dims", static_cast<std::uint64_t>(c.dims))
        .Field("num_iterations", static_cast<std::uint64_t>(c.iterations))
        .Field("alpha", c.alpha)
        .Field("test", c.test)
        .Field("oracle_seconds", c.oracle_seconds)
        .Field("rank_seconds", c.rank_seconds)
        .Field("speedup", c.oracle_seconds / c.rank_seconds)
        .Field("identical", c.identical)
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("draw_select");
  for (const SelectCost& d : select_costs) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(d.n))
        .Field("subspace_dims", static_cast<std::uint64_t>(d.dims))
        .Field("alpha", d.alpha)
        .Field("tier", simd::SimdTierName(d.tier))
        .Field("welch_seconds_per_draw", d.welch_seconds_per_draw)
        .Field("rank_seconds_per_draw", d.rank_seconds_per_draw)
        .EndObject();
  }
  json.EndArray();
  json.Field("all_identical", all_identical)
      .Field("select_identical", select_identical)
      .EndObject();
  if (bench::WriteJsonFile("BENCH_contrast_kernels.json", json)) {
    std::printf("\n-> BENCH_contrast_kernels.json\n");
  }
  return all_identical && select_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
