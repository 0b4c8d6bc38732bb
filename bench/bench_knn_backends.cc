// kNN backend crossover calibration: times the all-kNN workload (the
// ranking stage's inner problem — every object's k nearest neighbors in
// one subspace) for these strategies:
//
//   brute_per_query  — N independent bound-abandoning scans (the
//                      pre-batching reference path),
//   brute_batched    — the blocked SoA + symmetric-pair kernel,
//   kd_tree          — the tree-ordered KD-tree's batched search,
//   resolved         — ResolveKnnSearcher's choice, probe included.
//
// Two row sets:
//
//   grid            — uniform i.i.d. data over an (N, |S|) grid: the
//                     KD-tree's worst case, which the static
//                     ChooseKnnBackend verdict is calibrated on;
//   hics_selected   — the subspaces a HiCS search selects on the
//                     repository benchmark's pipeline generator (N objects,
//                     10 attributes in 4-attribute clustered groups plus 2
//                     noise attributes), grouped by |S|: the workload the
//                     kd-tree probe exists for.
//
// Every cell also records the probe's points scanned per query over N
// (the kd-tree's, without early exit) and the resolved verdict, and checks
// that the kd-tree and brute-force tables are element-identical; any
// mismatch makes the binary exit nonzero (`tables_identical`).
//
// Timings depend on the dispatched SIMD tier (the brute kernels run the
// tier's screen-row kernels, the kd-tree its leaf_screen kernel), so the
// header line and the JSON "simd" object record the tier each record came
// from.
//
// Output: a table on stdout and BENCH_knn_backends.json with every cell,
// the per-N crossover dimensionality where the KD-tree stops winning on
// uniform data, and the selector constants the library pins from this
// record. Rerun after kernel or flag changes and re-pin the constants if
// the crossover moved.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/hics.h"
#include "data/synthetic.h"
#include "index/neighbor_searcher.h"
#include "simd/simd.h"
#include "tests/knn_oracle.h"

namespace hics {
namespace {

constexpr std::size_t kK = 10;  // the LOF default (min_pts = 10)
constexpr int kRuns = 5;

Dataset UniformData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.Set(i, j, rng.UniformDouble());
  }
  return ds;
}

/// The repository benchmark's pipeline generator (bench_e2e): the paper's
/// generator with every correlated group pinned at 4 attributes and 3
/// clusters, 10 attributes of which 2 stay noise.
Dataset PipelineData(std::size_t n, std::uint64_t seed) {
  SyntheticParams gen;
  gen.num_objects = n;
  gen.num_attributes = 10;
  gen.noise_attributes = 2;
  gen.min_subspace_dims = 4;
  gen.max_subspace_dims = 4;
  gen.min_clusters = 3;
  gen.max_clusters = 3;
  gen.outliers_per_subspace = 5;
  gen.seed = seed;
  Result<SyntheticDataset> generated = GenerateSynthetic(gen);
  HICS_CHECK(generated.ok());
  return std::move(generated).ValueOrDie().data;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double Seconds(const std::function<void()>& fn) {
  Timer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Median of `runs` timed executions of fn() (each a full all-kNN pass);
/// the median rejects one-off scheduler hiccups.
double MedianSeconds(int runs, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < runs; ++r) times.push_back(Seconds(fn));
  return Median(times);
}

bool SameTable(const KnnResultTable& a, const KnnResultTable& b) {
  if (a.num_queries() != b.num_queries()) return false;
  for (std::size_t q = 0; q < a.num_queries(); ++q) {
    const auto ra = a.Row(q);
    const auto rb = b.Row(q);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
  }
  return true;
}

const char* BackendName(KnnBackend backend) {
  return backend == KnnBackend::kKdTree ? "kd_tree" : "brute_force";
}

/// One subspace workload measured every way the selector weighs it. Build
/// cost is part of each timing on purpose: the ranking stage builds one
/// fresh index per subspace, so the selector must weigh construction too.
struct Measurement {
  double kd_seconds = 0.0;
  double brute_seconds = 0.0;
  double resolved_seconds = 0.0;
  double probe_points_per_n = 0.0;
  KnnBackend verdict = KnnBackend::kBruteForce;
  bool identical = true;
};

Measurement Measure(const Dataset& ds, const Subspace& subspace) {
  Measurement m;
  const std::size_t n = ds.num_objects();
  KnnResultTable kd_table, brute_table, resolved_table;
  // The three strategies alternate within each repetition, so a stretch
  // of host contention lands on all of them rather than on one.
  std::vector<double> kd, brute, resolved;
  for (int r = 0; r < kRuns; ++r) {
    kd.push_back(Seconds([&] {
      MakeKdTreeSearcher(ds, subspace)->QueryAllKnn(kK, &kd_table);
    }));
    brute.push_back(Seconds([&] {
      MakeBruteForceSearcher(ds, subspace)->QueryAllKnn(kK, &brute_table);
    }));
    resolved.push_back(Seconds([&] {
      const auto s = ResolveKnnSearcher(ds, subspace, kK);
      s->QueryAllKnn(kK, &resolved_table);
      m.verdict = s->backend();
    }));
  }
  m.kd_seconds = Median(kd);
  m.brute_seconds = Median(brute);
  m.resolved_seconds = Median(resolved);
  const std::size_t scanned =
      MakeProbedKdTreeSearcher(ds, subspace, kK, knn_policy::kProbeQueries,
                               std::numeric_limits<std::size_t>::max())
          .scanned;
  m.probe_points_per_n =
      static_cast<double>(scanned) /
      static_cast<double>(knn_policy::kProbeQueries * n);
  m.identical = SameTable(kd_table, brute_table) &&
                SameTable(resolved_table, brute_table);
  return m;
}

/// The resolved backend's time against the faster of the two backends.
double ResolvedOverBest(const Measurement& m) {
  return m.resolved_seconds / std::min(m.kd_seconds, m.brute_seconds);
}

struct Cell {
  std::size_t n;
  std::size_t dim;
  double per_query_seconds;
  Measurement m;
};

struct SelectedRow {
  std::size_t n;
  std::size_t dim;
  std::size_t subspaces = 0;
  std::size_t kd_verdicts = 0;
  Measurement total;  ///< seconds summed over the row's subspaces
  std::vector<double> probe_points_per_n;

  const char* verdict() const {
    return kd_verdicts == subspaces ? "kd_tree"
           : kd_verdicts == 0       ? "brute_force"
                                    : "mixed";
  }
};

}  // namespace

int Run() {
  const std::vector<std::size_t> sizes = {500, 1000, 2000, 4000};
  const std::vector<std::size_t> dims = {1, 2, 3,  4,  5,  6,
                                         7, 8, 10, 12, 14, 16};
  std::vector<Cell> cells;
  bool tables_identical = true;
  // The acceptance bound for the resolved backend at N >= the probe band.
  constexpr double kResolvedSlack = 1.25;
  double worst_resolved_ratio = 0.0;

  std::printf("uniform all-kNN wall clock (k = %zu, median of %d, simd tier "
              "%s), seconds\n",
              kK, kRuns, simd::SimdTierName(simd::ActiveTier()));
  std::printf("%6s %4s %12s %12s %12s %12s %8s %s\n", "N", "|S|",
              "brute/query", "brute/batch", "kd-tree", "resolved", "probe/N",
              "verdict");
  for (std::size_t n : sizes) {
    for (std::size_t dim : dims) {
      const Dataset ds = UniformData(n, dim, 1000 + n + dim);
      const Subspace full = ds.FullSpace();
      KnnResultTable table, reference;
      const double per_query = MedianSeconds(kRuns, [&] {
        PerQueryAllKnn(*MakeBruteForceSearcher(ds, full), kK, &reference);
      });
      // Untimed: the batched kernel against the per-query scan.
      MakeBruteForceSearcher(ds, full)->QueryAllKnn(kK, &table);
      const Measurement m = Measure(ds, full);
      const bool identical = m.identical && SameTable(table, reference);
      tables_identical = tables_identical && identical;
      if (n >= knn_policy::kProbeMinObjects) {
        worst_resolved_ratio = std::max(worst_resolved_ratio,
                                        ResolvedOverBest(m));
      }
      cells.push_back({n, dim, per_query, m});
      std::printf("%6zu %4zu %12.6f %12.6f %12.6f %12.6f %8.3f %s%s\n", n,
                  dim, per_query, m.brute_seconds, m.kd_seconds,
                  m.resolved_seconds, m.probe_points_per_n,
                  BackendName(m.verdict), identical ? "" : "  MISMATCH");
    }
  }

  // Per-N crossover on uniform data: the largest |S| at which the KD-tree
  // still beats the batched kernel (0 = never).
  std::printf("\nKD-tree crossover per N on uniform data (largest |S| where "
              "kd wins):\n");
  std::vector<std::pair<std::size_t, std::size_t>> crossovers;
  for (std::size_t n : sizes) {
    std::size_t crossover = 0;
    for (const Cell& c : cells) {
      if (c.n == n && c.m.kd_seconds < c.m.brute_seconds) {
        crossover = std::max(crossover, c.dim);
      }
    }
    crossovers.emplace_back(n, crossover);
    std::printf("  N=%6zu -> |S| <= %zu\n", n, crossover);
  }

  // HiCS-selected subspaces on the pipeline generator, grouped by |S|.
  std::printf("\nHiCS-selected subspaces (pipeline generator, D = 10), "
              "seconds summed per |S|\n");
  std::printf("%6s %4s %5s %12s %12s %12s %8s %s\n", "N", "|S|", "count",
              "brute/batch", "kd-tree", "resolved", "probe/N", "verdict");
  std::vector<SelectedRow> selected;
  for (std::size_t n : {std::size_t{2000}, std::size_t{4000}}) {
    const Dataset ds = PipelineData(n, 8 + n);
    HicsParams params;
    params.seed = 1;
    Result<std::vector<ScoredSubspace>> found = RunHicsSearch(ds, params);
    HICS_CHECK(found.ok());
    std::map<std::size_t, SelectedRow> by_dim;
    for (const ScoredSubspace& s : *found) {
      const Measurement m = Measure(ds, s.subspace);
      tables_identical = tables_identical && m.identical;
      SelectedRow& row = by_dim[s.subspace.size()];
      row.n = n;
      row.dim = s.subspace.size();
      ++row.subspaces;
      row.kd_verdicts += m.verdict == KnnBackend::kKdTree ? 1 : 0;
      row.total.kd_seconds += m.kd_seconds;
      row.total.brute_seconds += m.brute_seconds;
      row.total.resolved_seconds += m.resolved_seconds;
      row.total.identical = row.total.identical && m.identical;
      row.probe_points_per_n.push_back(m.probe_points_per_n);
    }
    for (auto& [dim, row] : by_dim) {
      std::vector<double>& probes = row.probe_points_per_n;
      std::sort(probes.begin(), probes.end());
      row.total.probe_points_per_n = probes[probes.size() / 2];
      worst_resolved_ratio = std::max(worst_resolved_ratio,
                                      ResolvedOverBest(row.total));
      std::printf("%6zu %4zu %5zu %12.6f %12.6f %12.6f %8.3f %s%s\n", n, dim,
                  row.subspaces, row.total.brute_seconds,
                  row.total.kd_seconds, row.total.resolved_seconds,
                  row.total.probe_points_per_n, row.verdict(),
                  row.total.identical ? "" : "  MISMATCH");
      selected.push_back(row);
    }
  }
  const bool resolved_within_slack = worst_resolved_ratio <= kResolvedSlack;
  std::printf("\nresolved / faster backend at N >= %zu: worst %.3f (bound "
              "%.2f)\n",
              knn_policy::kProbeMinObjects, worst_resolved_ratio,
              kResolvedSlack);
  std::printf("tables_identical: %s\n", tables_identical ? "true" : "false");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_knn_backends.all_knn_crossover")
      .Field("k", static_cast<std::uint64_t>(kK));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  json.Field("tables_identical", tables_identical)
      .Field("resolved_worst_over_best_at_probe_n", worst_resolved_ratio)
      .Field("resolved_within_1_25x", resolved_within_slack);
  json.BeginArray("grid");
  for (const Cell& c : cells) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(c.n))
        .Field("dim", static_cast<std::uint64_t>(c.dim))
        .Field("brute_per_query_seconds", c.per_query_seconds)
        .Field("brute_batched_seconds", c.m.brute_seconds)
        .Field("kd_tree_seconds", c.m.kd_seconds)
        .Field("resolved_seconds", c.m.resolved_seconds)
        .Field("probe_points_per_n", c.m.probe_points_per_n)
        .Field("verdict", BackendName(c.m.verdict))
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("hics_selected");
  for (const SelectedRow& row : selected) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(row.n))
        .Field("dim", static_cast<std::uint64_t>(row.dim))
        .Field("subspaces", static_cast<std::uint64_t>(row.subspaces))
        .Field("brute_batched_seconds", row.total.brute_seconds)
        .Field("kd_tree_seconds", row.total.kd_seconds)
        .Field("resolved_seconds", row.total.resolved_seconds)
        .Field("probe_points_per_n_median", row.total.probe_points_per_n)
        .Field("kd_tree_verdicts", static_cast<std::uint64_t>(row.kd_verdicts))
        .Field("verdict", row.verdict())
        .EndObject();
  }
  json.EndArray();
  json.BeginArray("kd_tree_crossover_dim_by_n");
  for (const auto& [n, crossover] : crossovers) {
    json.BeginObject()
        .Field("num_objects", static_cast<std::uint64_t>(n))
        .Field("max_winning_dim", static_cast<std::uint64_t>(crossover))
        .EndObject();
  }
  json.EndArray();
  // The constants the library's kNN policy pins from this record
  // (knn_policy in src/index/neighbor_searcher.h).
  using namespace knn_policy;
  json.BeginObject("selector")
      .Field("kd_tree_min_objects",
             static_cast<std::uint64_t>(kKdTreeMinObjects))
      .Field("kd_tree_max_dims", static_cast<std::uint64_t>(kKdTreeMaxDims))
      .Field("probe_min_objects", static_cast<std::uint64_t>(kProbeMinObjects))
      .Field("probe_min_dims", static_cast<std::uint64_t>(kProbeMinDims))
      .Field("probe_max_dims", static_cast<std::uint64_t>(kProbeMaxDims))
      .Field("probe_queries", static_cast<std::uint64_t>(kProbeQueries))
      .Field("probe_max_scan_fraction", kProbeMaxScanFraction)
      .EndObject()
      .EndObject();
  if (bench::WriteJsonFile("BENCH_knn_backends.json", json)) {
    std::printf("\n-> BENCH_knn_backends.json\n");
  }
  return tables_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
