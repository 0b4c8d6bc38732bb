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
//            moments for Welch, sorted-order emission for KS/CvM).
//
// It also times SliceSampler::DrawSelection alone per (N, |S|, alpha) —
// the selection step the rank kernel adds before every deviation.
//
// Output: a table on stdout and BENCH_contrast_kernels.json with every
// cell, the per-cell speedup, and an `identical` flag — the two kernels
// must agree bit for bit on every cell (the CI perf-smoke job asserts
// `all_identical`) — plus the per-draw selection cost. Rerun after kernel
// changes.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_kernels.h"
#include "tests/contrast_oracle.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "index/sorted_index.h"
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

struct DrawCost {
  std::size_t n;
  std::size_t dims;
  double alpha;
  double seconds_per_draw;
};

/// Median wall clock of one DrawSelection call over `draws` consecutive
/// draws (the RNG stream a contrast evaluation would consume).
double DrawSelectionSeconds(const SliceSampler& sampler,
                            const Subspace& subspace, double alpha,
                            std::uint64_t seed, int draws, int runs) {
  SliceScratch scratch;
  SliceSelection selection;
  std::uint64_t selected = 0;
  const double seconds = MedianSeconds(runs, [&] {
    Rng rng(seed);
    for (int d = 0; d < draws; ++d) {
      sampler.DrawSelection(subspace, alpha, &rng, &scratch, &selection);
      selected += scratch.mask[d % scratch.mask.size()];
    }
  });
  bench::KeepAlive(selected);
  return seconds / draws;
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
/// kernels DeviationFromSelection runs per Monte Carlo draw: id-order
/// compaction + fused moments for Welch, sorted-order compaction for
/// KS/CvM.
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
  std::vector<double> out(n + simd::kCompactPad);
  const bench::KernelRate compact = bench::MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.compact_selected(
            column.data(), stamps.data(), n, target, out.data()));
      },
      static_cast<double>(n * (sizeof(double) + sizeof(std::uint32_t))),
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
  bench::WriteKernelRate(json, "compact_selected", compact);
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

  std::vector<Cell> cells;
  std::vector<DrawCost> draw_costs;
  bool all_identical = true;
  std::printf(
      "contrast kernel wall clock (%d evaluations, median of %d), seconds\n",
      kContrastsPerRun, kRuns);
  std::printf("%6s %4s %4s %6s %6s %12s %12s %8s %s\n", "N", "|S|", "M",
              "alpha", "test", "oracle", "rank", "speedup", "identical");
  for (std::size_t n : sizes) {
    const Dataset ds = UniformData(
        n, *std::max_element(subspace_dims.begin(), subspace_dims.end()),
        2000 + n);
    const SortedAttributeIndex index(ds);
    const SliceSampler sampler(ds, index);
    for (std::size_t dims : subspace_dims) {
      const Subspace subspace = FirstDims(dims);
      for (double alpha : alphas) {
        draw_costs.push_back(
            {n, dims, alpha,
             DrawSelectionSeconds(
                 sampler, subspace, alpha, 11 * n + dims,
                 kContrastsPerRun * static_cast<int>(iteration_counts[0]),
                 kRuns)});
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
  std::printf("\nDrawSelection alone, microseconds per draw\n");
  std::printf("%6s %4s %6s %10s\n", "N", "|S|", "alpha", "us/draw");
  for (const DrawCost& d : draw_costs) {
    std::printf("%6zu %4zu %6.2f %10.3f\n", d.n, d.dims, d.alpha,
                d.seconds_per_draw * 1e6);
  }

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
  json.BeginArray("draw_selection");
  for (const DrawCost& d : draw_costs) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(d.n))
        .Field("subspace_dims", static_cast<std::uint64_t>(d.dims))
        .Field("alpha", d.alpha)
        .Field("seconds_per_draw", d.seconds_per_draw)
        .EndObject();
  }
  json.EndArray();
  json.Field("all_identical", all_identical).EndObject();
  if (bench::WriteJsonFile("BENCH_contrast_kernels.json", json)) {
    std::printf("\n-> BENCH_contrast_kernels.json\n");
  }
  return all_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
