// Engineering micro-benchmarks (google-benchmark): cost of the primitives
// the HiCS pipeline is built from. Not a paper artifact; used to verify
// the design decisions called out in DESIGN.md §5 (sorted-index build,
// contrast estimation, brute force vs KD-tree neighbor search).
//
// Before the google-benchmark suite runs, main() times the pipeline stages
// (search, serial ranking, parallel ranking) on one synthetic dataset and
// writes the wall-clock numbers to BENCH_micro.json in the working
// directory, so CI and scripts can track stage cost and the ranking-phase
// speedup without scraping the console output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_kernels.h"
#include "tests/contrast_oracle.h"
#include "tests/csv_oracle.h"
#include "tests/knn_oracle.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/contrast.h"
#include "core/hics.h"
#include "data/synthetic.h"
#include "engine/prepared_dataset.h"
#include "index/neighbor_searcher.h"
#include "index/sorted_index.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"
#include "serve/model_io.h"
#include "simd/simd.h"
#include "stats/two_sample_test.h"
#include "stats/welch_t_test.h"

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

void BM_SortedIndexBuild(benchmark::State& state) {
  const Dataset ds = UniformData(state.range(0), 25, 1);
  for (auto _ : state) {
    SortedAttributeIndex index(ds);
    bench::KeepAlive(index.num_objects());
  }
}
BENCHMARK(BM_SortedIndexBuild)->Arg(1000)->Arg(4000);

void BM_ContrastEstimate(benchmark::State& state) {
  const Dataset ds = UniformData(1000, 25, 6);
  const stats::WelchTDeviation welch;
  const ContrastEstimator estimator(ds, welch, {50, 0.1});
  const Subspace s = FirstDims(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    bench::KeepAlive(estimator.Contrast(s, &rng));
  }
}
BENCHMARK(BM_ContrastEstimate)->Arg(2)->Arg(3)->Arg(5);

void BM_KnnBruteForce(benchmark::State& state) {
  const Dataset ds = UniformData(2000, state.range(0), 8);
  const auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  std::size_t query = 0;
  for (auto _ : state) {
    bench::KeepAlive(searcher->QueryKnn(query, 10).size());
    query = (query + 1) % ds.num_objects();
  }
}
BENCHMARK(BM_KnnBruteForce)->Arg(2)->Arg(8)->Arg(25);

// The batched all-kNN kernel, whole-table per iteration; compare one
// iteration here against 2000x a BM_KnnBruteForce iteration.
void BM_KnnBruteForceBatched(benchmark::State& state) {
  const Dataset ds = UniformData(2000, state.range(0), 8);
  const auto searcher = MakeBruteForceSearcher(ds, ds.FullSpace());
  KnnResultTable table;
  for (auto _ : state) {
    searcher->QueryAllKnn(10, &table);
    bench::KeepAlive(table.count(0));
  }
}
BENCHMARK(BM_KnnBruteForceBatched)->Arg(2)->Arg(8)->Arg(25);

void BM_KnnKdTree(benchmark::State& state) {
  const Dataset ds = UniformData(2000, state.range(0), 9);
  const auto searcher = MakeKdTreeSearcher(ds, ds.FullSpace());
  std::size_t query = 0;
  for (auto _ : state) {
    bench::KeepAlive(searcher->QueryKnn(query, 10).size());
    query = (query + 1) % ds.num_objects();
  }
}
BENCHMARK(BM_KnnKdTree)->Arg(2)->Arg(8)->Arg(25);

void BM_LofScore(benchmark::State& state) {
  const Dataset ds = UniformData(state.range(0), 5, 10);
  const LofScorer lof({.min_pts = 10});
  for (auto _ : state) {
    bench::KeepAlive(lof.ScoreFullSpace(ds).size());
  }
}
BENCHMARK(BM_LofScore)->Arg(500)->Arg(1000)->Arg(2000);

// CSV load of a generated 2000 x 40 labelled file (41 cells a row, the
// shape of a pipeline_wide input) by ParseCsv (oracle:0) and by the strtod
// parser of tests/csv_oracle.h (oracle:1); the "cells" counter is cells/s.
void BM_ParseCsv(benchmark::State& state) {
  constexpr std::size_t kRows = 2000;
  constexpr std::size_t kAttributes = 40;
  static const std::string text = [] {
    SyntheticParams params;
    params.num_objects = kRows;
    params.num_attributes = kAttributes;
    return WriteCsv(GenerateSynthetic(params).ValueOrDie().data);
  }();
  CsvOptions options;
  options.label_column = static_cast<int>(kAttributes);
  const bool oracle = state.range(0) != 0;
  for (auto _ : state) {
    const Result<Dataset> loaded =
        oracle ? OracleParseCsv(text, options) : ParseCsv(text, options);
    HICS_CHECK(loaded.ok() && loaded->num_objects() == kRows);
    bench::KeepAlive(loaded->num_attributes());
  }
  state.counters["cells"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows * (kAttributes + 1)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParseCsv)->ArgName("oracle")->Arg(0)->Arg(1);

/// Appends a "kernels" object: effective GB/s and GFLOP/s of each hot
/// dispatched kernel on the active tier, over working sets shaped like the
/// pipeline's (screen rows over a 2000-point SoA, moment/compaction sweeps
/// over contrast-sized columns). The traffic model counts bytes actually
/// touched per call and the arithmetic the kernel's contract requires, so
/// the rates are comparable across tiers and commits.
void WriteKernelThroughput(bench::JsonWriter& json) {
  using bench::MeasureKernel;
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  Rng rng(97);
  const std::size_t n = 2000;
  const std::size_t dim = 8;
  const std::size_t w = 128;
  std::vector<double> soa(n * dim);
  for (double& v : soa) v = rng.UniformDouble();
  std::vector<double> norms(n, 0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t i = 0; i < n; ++i) {
      norms[i] += soa[d * n + i] * soa[d * n + i];
    }
  }
  std::vector<double> d2(w);
  const bench::KernelRate screen_f64 = MeasureKernel(
      [&] {
        kernels.screen_row_f64(soa.data(), n, dim, 3, 64, w, norms[3],
                               norms.data() + 64, d2.data());
        bench::KeepAlive(d2.data());
      },
      // Per call: dim column segments of w doubles + w norms read, w
      // doubles written; 2 flops per (dim, t) product-accumulate plus the
      // 3-op norm combine per output.
      static_cast<double>((dim * w + w) * sizeof(double) +
                          w * sizeof(double)),
      static_cast<double>(2 * dim * w + 3 * w));

  // One KD-tree leaf block: 16 column-major points of the SoA above
  // against one of its points, bound at a middling distance.
  const std::size_t block = simd::kLeafScreenWidth;
  std::vector<double> query(dim);
  for (std::size_t d = 0; d < dim; ++d) query[d] = soa[d * n + 3];
  const double leaf_bound = static_cast<double>(dim) / 6.0;
  const bench::KernelRate leaf = MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.leaf_screen(query.data(), soa.data() + 64, n,
                                             dim, block, leaf_bound,
                                             d2.data()));
        bench::KeepAlive(d2.data());
      },
      // Per call: dim column segments of `block` doubles + the query read,
      // `block` distances written; sub, mul and add per (dim, t) plus the
      // 3-add lane combine and the compare per point.
      static_cast<double>((dim * block + dim + block) * sizeof(double)),
      static_cast<double>(3 * dim * block + 4 * block));

  const std::size_t dist_dim = 32;
  std::vector<double> pa(dist_dim), pb(dist_dim);
  for (double& v : pa) v = rng.UniformDouble();
  for (double& v : pb) v = rng.UniformDouble();
  const bench::KernelRate distance = MeasureKernel(
      [&] {
        bench::KeepAlive(
            kernels.squared_distance(pa.data(), pb.data(), dist_dim));
      },
      static_cast<double>(2 * dist_dim * sizeof(double)),
      static_cast<double>(3 * dist_dim));

  const std::size_t cn = 100000;
  std::vector<double> column(cn);
  for (double& v : column) v = rng.UniformDouble();
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> order(cn);
  for (std::size_t i = 0; i < cn; ++i) order[i] = i;
  std::vector<std::uint32_t> stamps(cn);
  const std::uint32_t target = 5;
  for (std::uint32_t& s : stamps) {
    s = rng.UniformDouble() < 0.1 ? target : 1;
  }
  std::vector<double> compact_out(cn + simd::kCompactPad);
  double selected = 0.0;
  const bench::KernelRate compact = MeasureKernel(
      [&] {
        selected = static_cast<double>(kernels.compact_selected(
            column.data(), stamps.data(), cn, target, compact_out.data()));
        bench::KeepAlive(compact_out.data());
      },
      static_cast<double>(cn * (sizeof(double) + sizeof(std::uint32_t))),
      0.0);
  const bench::KernelRate compact_sorted = MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.compact_selected_sorted(
            sorted.data(), order.data(), stamps.data(), cn, target,
            compact_out.data()));
      },
      static_cast<double>(cn * (2 * sizeof(double) + sizeof(std::size_t) +
                                sizeof(std::uint32_t)) /
                          2),
      0.0);
  const bench::KernelRate sum_rate = MeasureKernel(
      [&] {
        bench::KeepAlive(kernels.sum(column.data(), cn));
      },
      static_cast<double>(cn * sizeof(double)), static_cast<double>(cn));
  const bench::KernelRate ssd_rate = MeasureKernel(
      [&] {
        bench::KeepAlive(
            kernels.sum_sq_dev(column.data(), cn, 0.5));
      },
      static_cast<double>(cn * sizeof(double)),
      static_cast<double>(3 * cn));

  json.BeginObject("kernels");
  bench::WriteKernelRate(json, "screen_row_f64", screen_f64);
  bench::WriteKernelRate(json, "squared_distance", distance);
  bench::WriteKernelRate(json, "leaf_screen", leaf);
  bench::WriteKernelRate(json, "compact_selected", compact);
  bench::WriteKernelRate(json, "compact_selected_sorted", compact_sorted);
  bench::WriteKernelRate(json, "sum", sum_rate);
  bench::WriteKernelRate(json, "sum_sq_dev", ssd_rate);
  json.EndObject();
  (void)selected;
}

}  // namespace

/// Times search + ranking on one synthetic dataset and writes
/// BENCH_micro.json. The search phase runs twice: at hardware concurrency
/// (search, the tracked number) and on >= 4 pool workers
/// (search_parallel); search_identical records whether both runs returned
/// byte-identical subspace lists and every reported contrast equals the
/// gather+sort oracle's (tests/contrast_oracle.h) on the search's
/// per-subspace stream. The ranking phase runs three times over the same
/// top-100 subspaces: once on the pre-batching per-query serial path
/// (rank_serial_per_query, the reference: per-query brute-force tables
/// scored by LofScorer::ScoreFromTable and aggregated), once on the
/// batched all-kNN serial path (rank_serial), and once batched on the
/// thread pool (>= 4 workers, rank_parallel). The
/// serving path then ranks twice against one PreparedDataset: rank_cold
/// (first pass, filling the subspace-keyed artifact cache) and rank_warm
/// (immediate repeat, served from the cache); warm_identical = whether
/// both prepared passes matched the per-query reference byte for byte.
/// The JSON records all wall-clocks, the batch/parallel/warm speedups,
/// the cache hit/miss tallies, and ranking_identical = whether the
/// batched serial and parallel scores matched the per-query reference
/// byte for byte.
///
/// Finally the serving path is timed end to end: a HicsModel is fitted on
/// the same dataset, 256 out-of-sample queries are scored one at a time
/// against the trained model, and serve_p50_us records the median
/// single-query latency in microseconds. serve_identical = whether a
/// model serialized to bytes and loaded back served the same 256 queries
/// byte-identically to the fresh model.
///
/// The record also carries the SIMD dispatch state ("simd" object), the
/// effective GB/s / GFLOP/s of each dispatched kernel ("kernels" object),
/// and simd_identical = whether the search repeated on every runnable
/// tier, and the batched brute-force kernel and the KD-tree forced to
/// every runnable tier reproduced the per-query kNN tables, byte for
/// byte.
void WritePipelineStageReport() {
  SyntheticParams gen;
  gen.num_objects = 1000;
  gen.num_attributes = 20;
  gen.seed = 17;
  const auto generated = GenerateSynthetic(gen);
  if (!generated.ok()) {
    std::fprintf(stderr, "synthetic data failed: %s\n",
                 generated.status().ToString().c_str());
    return;
  }
  const Dataset& data = generated->data;

  HicsParams params;
  params.num_iterations = 50;
  params.output_top_k = 100;
  params.max_dimensionality = 4;
  params.num_threads = 0;  // hardware concurrency
  Timer search_timer;
  const auto subspaces = RunHicsSearch(data, params);
  const double search_seconds = search_timer.ElapsedSeconds();
  if (!subspaces.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 subspaces.status().ToString().c_str());
    return;
  }

  // Same search on >= 4 pool workers must reproduce the tracked run byte
  // for byte, and every reported contrast must be the gather+sort
  // oracle's on the search's per-subspace stream.
  const std::size_t search_parallel_threads = std::max<std::size_t>(
      4, DefaultNumThreads());
  HicsParams parallel_params = params;
  parallel_params.num_threads = search_parallel_threads;
  Timer search_parallel_timer;
  const auto parallel_subspaces = RunHicsSearch(data, parallel_params);
  const double search_parallel_seconds =
      search_parallel_timer.ElapsedSeconds();
  auto same_subspaces = [&](const Result<std::vector<ScoredSubspace>>& got) {
    if (!got.ok() || got->size() != subspaces->size()) return false;
    for (std::size_t i = 0; i < subspaces->size(); ++i) {
      if ((*got)[i].subspace != (*subspaces)[i].subspace ||
          (*got)[i].score != (*subspaces)[i].score) {
        return false;
      }
    }
    return true;
  };
  const auto deviation = stats::MakeTwoSampleTest(params.statistical_test);
  const ContrastOracle oracle(data, *deviation,
                              {params.num_iterations, params.alpha});
  bool search_identical = same_subspaces(parallel_subspaces);
  for (const ScoredSubspace& s : *subspaces) {
    if (s.score != oracle.SearchContrast(s.subspace, params.seed)) {
      search_identical = false;
    }
  }

  const LofScorer lof({.min_pts = 10});
  const std::size_t parallel_threads = std::max<std::size_t>(
      4, DefaultNumThreads());
  Timer per_query_timer;
  std::vector<std::vector<double>> per_query_subspace(subspaces->size());
  for (std::size_t i = 0; i < subspaces->size(); ++i) {
    KnnResultTable table;
    PerQueryAllKnn(*MakeSearcher(data, (*subspaces)[i].subspace,
                                 KnnBackend::kBruteForce),
                   10, &table);
    per_query_subspace[i] =
        lof.ScoreFromTable(table, data.num_objects(), 1);
  }
  const auto per_query_scores =
      AggregateScores(per_query_subspace, ScoreAggregation::kAverage);
  const double rank_per_query_seconds = per_query_timer.ElapsedSeconds();
  Timer serial_timer;
  const std::vector<Subspace> plain = PlainSubspaces(*subspaces);
  const auto serial_scores = RankWithSubspaces(
      PreparedDataset(data), plain, lof, ScoreAggregation::kAverage, 1);
  const double rank_serial_seconds = serial_timer.ElapsedSeconds();
  Timer parallel_timer;
  const auto parallel_scores =
      RankWithSubspaces(PreparedDataset(data), plain, lof,
                        ScoreAggregation::kAverage, parallel_threads);
  const double rank_parallel_seconds = parallel_timer.ElapsedSeconds();
  const bool identical = serial_scores == per_query_scores &&
                         parallel_scores == serial_scores;

  // Serving path: one immutable prepared artifact, ranked twice. The cold
  // pass populates the subspace-keyed cache with score vectors (kNN
  // tables are computed and dropped); the warm pass must be served from
  // it, byte-identical.
  const PreparedDataset prepared(data);
  Timer cold_timer;
  const auto cold_scores = RankWithSubspaces(
      prepared, plain, lof, ScoreAggregation::kAverage, parallel_threads);
  const double rank_cold_seconds = cold_timer.ElapsedSeconds();
  Timer warm_timer;
  const auto warm_scores = RankWithSubspaces(
      prepared, plain, lof, ScoreAggregation::kAverage, parallel_threads);
  const double rank_warm_seconds = warm_timer.ElapsedSeconds();
  const bool warm_identical =
      cold_scores == per_query_scores && warm_scores == per_query_scores;
  const ArtifactCacheStats cache_stats = prepared.cache().stats();

  // Out-of-sample serving: fit a durable model (search + per-subspace
  // trained state), then score single out-of-sample queries against it and
  // track the median latency. A serialize/deserialize round trip must not
  // change a single served byte.
  HicsModelConfig model_config;
  model_config.search_params = params;
  model_config.scorer = {ScorerKind::kLof, 10};
  Timer fit_timer;
  const auto model = HicsModel::Fit(data, model_config);
  const double serve_fit_seconds = fit_timer.ElapsedSeconds();
  if (!model.ok()) {
    std::fprintf(stderr, "model fit failed: %s\n",
                 model.status().ToString().c_str());
    return;
  }
  constexpr std::size_t kNumServeQueries = 256;
  Rng query_rng(gen.seed + 1);
  std::vector<double> queries(kNumServeQueries * data.num_attributes());
  for (double& v : queries) v = query_rng.UniformDouble();
  const std::size_t query_width = data.num_attributes();
  // Warm the lazy per-subspace searcher cache so p50 measures steady-state
  // serving, not first-touch index builds.
  (void)model->ScoreQueries(
      std::span<const double>(queries.data(), query_width), 1);
  std::vector<double> fresh_scores;
  fresh_scores.reserve(kNumServeQueries);
  std::vector<double> query_seconds(kNumServeQueries);
  Timer serve_timer;
  for (std::size_t q = 0; q < kNumServeQueries; ++q) {
    Timer one;
    const auto score = model->ScoreQueries(
        std::span<const double>(queries.data() + q * query_width,
                                query_width),
        1);
    query_seconds[q] = one.ElapsedSeconds();
    if (!score.ok()) {
      std::fprintf(stderr, "serve failed: %s\n",
                   score.status().ToString().c_str());
      return;
    }
    fresh_scores.push_back(score->front());
  }
  const double serve_seconds = serve_timer.ElapsedSeconds();
  std::nth_element(query_seconds.begin(),
                   query_seconds.begin() + kNumServeQueries / 2,
                   query_seconds.end());
  const double serve_p50_us = query_seconds[kNumServeQueries / 2] * 1e6;
  const auto reloaded = DeserializeHicsModel(SerializeHicsModel(*model));
  bool serve_identical = reloaded.ok();
  if (serve_identical) {
    const auto reloaded_scores = reloaded->ScoreQueries(
        queries, kNumServeQueries);
    serve_identical = reloaded_scores.ok() && *reloaded_scores == fresh_scores;
  }

  // SIMD cross-tier identity: re-run the tracked search forced down to
  // each runnable tier (a ScopedSimdTier around the run) and
  // require the byte-identical subspace list; then require the batched
  // brute-force kernel and the KD-tree, under every runnable tier, to
  // reproduce the per-query brute-force kNN tables element for element
  // on the top search results. Together with search_identical /
  // ranking_identical this pins the CANONICAL-kernel contract: the
  // dispatched tier must never be observable in results.
  bool simd_identical = true;
  std::vector<simd::SimdTier> tiers;
  for (simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
        simd::SimdTier::kAvx512}) {
    if (tier <= simd::DetectedTier()) tiers.push_back(tier);
  }
  for (simd::SimdTier tier : tiers) {
    simd::ScopedSimdTier forced(tier);
    if (!same_subspaces(RunHicsSearch(data, params))) {
      simd_identical = false;
    }
  }
  const auto same_table = [](const KnnResultTable& x,
                             const KnnResultTable& y) {
    if (x.num_queries() != y.num_queries()) return false;
    for (std::size_t q = 0; q < x.num_queries(); ++q) {
      const auto a = x.Row(q);
      const auto b = y.Row(q);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
    }
    return true;
  };
  const std::size_t table_check =
      std::min<std::size_t>(5, subspaces->size());
  for (std::size_t s = 0; simd_identical && s < table_check; ++s) {
    const Subspace& sub = (*subspaces)[s].subspace;
    KnnResultTable exact_table, table;
    PerQueryAllKnn(*MakeBruteForceSearcher(data, sub), 10, &exact_table);
    for (simd::SimdTier tier : tiers) {
      simd::ScopedSimdTier forced(tier);
      MakeBruteForceSearcher(data, sub)->QueryAllKnn(10, &table, 1);
      simd_identical = simd_identical && same_table(exact_table, table);
      MakeKdTreeSearcher(data, sub)->QueryAllKnn(10, &table, 1);
      simd_identical = simd_identical && same_table(exact_table, table);
    }
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_micro.pipeline_stages")
      .Field("hardware_concurrency",
             static_cast<std::uint64_t>(DefaultNumThreads()));
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json);
  json.BeginObject("dataset")
      .Field("num_objects", static_cast<std::uint64_t>(data.num_objects()))
      .Field("num_attributes",
             static_cast<std::uint64_t>(data.num_attributes()))
      .Field("seed", static_cast<std::uint64_t>(gen.seed))
      .EndObject()
      .BeginObject("params")
      .Field("num_iterations",
             static_cast<std::uint64_t>(params.num_iterations))
      .Field("alpha", params.alpha)
      .Field("output_top_k", static_cast<std::uint64_t>(params.output_top_k))
      .Field("statistical_test", params.statistical_test)
      .Field("lof_min_pts", static_cast<std::uint64_t>(10))
      .EndObject()
      .BeginObject("stages")
      .BeginObject("search")
      .Field("seconds", search_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(DefaultNumThreads()))
      .Field("subspaces_found",
             static_cast<std::uint64_t>(subspaces->size()))
      .EndObject()
      .BeginObject("search_parallel")
      .Field("seconds", search_parallel_seconds)
      .Field("num_threads",
             static_cast<std::uint64_t>(search_parallel_threads))
      .EndObject()
      .BeginObject("rank_serial_per_query")
      .Field("seconds", rank_per_query_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(1))
      .EndObject()
      .BeginObject("rank_serial")
      .Field("seconds", rank_serial_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(1))
      .EndObject()
      .BeginObject("rank_parallel")
      .Field("seconds", rank_parallel_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(parallel_threads))
      .EndObject()
      .BeginObject("rank_cold")
      .Field("seconds", rank_cold_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(parallel_threads))
      .EndObject()
      .BeginObject("rank_warm")
      .Field("seconds", rank_warm_seconds)
      .Field("num_threads", static_cast<std::uint64_t>(parallel_threads))
      .EndObject()
      .BeginObject("serve_fit")
      .Field("seconds", serve_fit_seconds)
      .EndObject()
      .BeginObject("serve")
      .Field("seconds", serve_seconds)
      .Field("queries", static_cast<std::uint64_t>(kNumServeQueries))
      .EndObject()
      .BeginObject("total")
      .Field("seconds", search_seconds + rank_parallel_seconds)
      .EndObject()
      .EndObject()
      .BeginObject("cache")
      .Field("hits", cache_stats.hits())
      .Field("misses", cache_stats.misses())
      .Field("score_hits", cache_stats.score_hits)
      .Field("score_misses", cache_stats.score_misses)
      .Field("hit_rate", cache_stats.hit_rate())
      .EndObject();
  WriteKernelThroughput(json);
  json.Field("ranking_speedup", rank_serial_seconds / rank_parallel_seconds)
      .Field("batch_knn_speedup",
             rank_per_query_seconds / rank_serial_seconds)
      .Field("warm_speedup", rank_cold_seconds / rank_warm_seconds)
      .Field("serve_p50_us", serve_p50_us)
      .Field("search_identical", search_identical)
      .Field("ranking_identical", identical)
      .Field("warm_identical", warm_identical)
      .Field("serve_identical", serve_identical)
      .Field("simd_identical", simd_identical)
      .EndObject();
  if (bench::WriteJsonFile("BENCH_micro.json", json)) {
    std::printf(
        "pipeline stages: search %.3fs (parallel %zu threads %.3fs, "
        "identical=%s), rank serial/per-query "
        "%.3fs, rank serial/batched %.3fs (%.2fx), rank parallel (%zu "
        "threads) %.3fs (%.2fx), identical=%s, rank cold %.3fs, rank warm "
        "%.3fs (%.2fx, hit rate %.2f), warm identical=%s, serve fit "
        "%.3fs + %zu queries p50 %.1fus, reload identical=%s, simd tier "
        "%s identical=%s -> BENCH_micro.json\n\n",
        search_seconds, search_parallel_threads,
        search_parallel_seconds, search_identical ? "yes" : "NO (BUG)",
        rank_per_query_seconds, rank_serial_seconds,
        rank_per_query_seconds / rank_serial_seconds, parallel_threads,
        rank_parallel_seconds, rank_serial_seconds / rank_parallel_seconds,
        identical ? "yes" : "NO (BUG)", rank_cold_seconds,
        rank_warm_seconds, rank_cold_seconds / rank_warm_seconds,
        cache_stats.hit_rate(), warm_identical ? "yes" : "NO (BUG)",
        serve_fit_seconds, kNumServeQueries, serve_p50_us,
        serve_identical ? "yes" : "NO (BUG)",
        simd::SimdTierName(simd::ActiveTier()),
        simd_identical ? "yes" : "NO (BUG)");
  }
}

}  // namespace hics

int main(int argc, char** argv) {
  hics::WritePipelineStageReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
