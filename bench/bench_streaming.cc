// Streaming data plane calibration (DESIGN.md §5j): pins the byte-identity
// drill of the sliding-window path and measures what the incremental
// maintenance buys over rebuilding from scratch.
//
//   streaming_identical — after every slide, searching and ranking the
//                         StreamingDataset must equal a cold rebuild of
//                         the identical window byte for byte: a fresh
//                         ShardedDataset at the same shard count for the
//                         sharded window, a fresh PreparedDataset for a
//                         one-shard window. The sharded window serves
//                         from its kept shard slots and epoch-keyed
//                         caches; the one-shard window is the shape whose
//                         slides merge the sorted orders its search
//                         built. CI asserts both on every push.
//
// Latency: per-slide wall clock of the sharded StreamingDataset::Slide
// (epoch sweep + changed-shard rebuild) vs a cold rebuild of the same
// window (ShardedDataset construction + per-shard sorted indexes). The
// ratio is recorded for trend tracking; only the identity drill gates.
//
// Output: a table on stdout and BENCH_streaming.json (window/slide
// geometry in the machine record). Exit is nonzero when the identity
// drill fails. Rerun after changes to the streaming plane or the cache
// epoch protocol.

#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_dataset.h"
#include "engine/streaming_search.h"
#include "outlier/grid_density.h"
#include "outlier/subspace_ranker.h"

namespace hics {
namespace {

/// Same population as bench_sharded's CorrelatedDataset, produced row by
/// row so the stream can feed it incrementally: two clustered attribute
/// pairs the search can find, uniform noise elsewhere.
std::vector<double> CorrelatedRow(Rng& rng, std::size_t d) {
  std::vector<double> row(d);
  const double c0 = rng.Bernoulli(0.5) ? 0.25 : 0.75;
  const double c1 = rng.Bernoulli(0.5) ? 0.3 : 0.7;
  for (std::size_t a = 0; a < d; ++a) {
    if (a < 2) {
      row[a] = c0 + rng.Gaussian(0.0, 0.04);
    } else if (a < 4) {
      row[a] = c1 + rng.Gaussian(0.0, 0.05);
    } else {
      row[a] = rng.UniformDouble();
    }
  }
  return row;
}

std::vector<std::vector<double>> CorrelatedRows(Rng& rng, std::size_t n,
                                                std::size_t d) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) row = CorrelatedRow(rng, d);
  return rows;
}

/// Searches and ranks `cold` and compares with what the streaming window
/// answered, byte for byte.
bool MatchesCold(const std::vector<ScoredSubspace>& found,
                 const std::vector<double>& ranked, const ShardPlane& cold,
                 const HicsParams& search, const OutlierScorer& scorer,
                 std::size_t threads) {
  const auto cold_found = RunHicsSearch(cold, search);
  HICS_CHECK(cold_found.ok());
  const auto cold_ranked = RankWithSubspacesSharded(
      cold, *cold_found, scorer, ScoreAggregation::kAverage,
      ShardedScoringPolicy::kRequireExactMerge, threads);
  HICS_CHECK(cold_ranked.ok());
  bool identical = found.size() == cold_found->size() &&
                   ranked == *cold_ranked;
  for (std::size_t i = 0; identical && i < found.size(); ++i) {
    identical = found[i].subspace == (*cold_found)[i].subspace &&
                found[i].score == (*cold_found)[i].score;
  }
  return identical;
}

/// The identity drill on a one-shard window: every slide after the
/// first merges the sorted orders the previous search built, and each
/// answer must equal a cold PreparedDataset of the same rows.
bool OneShardIdentical(Rng& rng, std::size_t window, std::size_t slide,
                       std::size_t steps, std::size_t d,
                       const HicsParams& search, const OutlierScorer& scorer,
                       std::size_t threads) {
  StreamingOptions options;
  options.capacity = window;
  options.build_threads = threads;
  StreamingDataset streaming(d, options);
  HICS_CHECK(streaming.Admit(CorrelatedRows(rng, window, d)).ok());
  bool all_identical = true;
  for (std::size_t step = 0; step < steps; ++step) {
    HICS_CHECK(streaming.Slide(slide, CorrelatedRows(rng, slide, d)).ok());
    const auto found = RunHicsSearch(streaming, search);
    HICS_CHECK(found.ok());
    const auto ranked = RankWithSubspaces(
        streaming, *found, scorer, ScoreAggregation::kAverage,
        ShardedScoringPolicy::kRequireExactMerge, threads);
    HICS_CHECK(ranked.ok());
    const Dataset rows = streaming.window();
    const PreparedDataset cold(rows, threads);
    const bool identical =
        MatchesCold(*found, *ranked, cold, search, scorer, threads);
    all_identical = all_identical && identical;
    std::printf("  one-shard step %zu: %s\n", step + 1,
                identical ? "identical" : "MISMATCH (BUG)");
  }
  return all_identical;
}

}  // namespace

int Run() {
  const std::size_t kWindow = 16000;
  const std::size_t kSlide = 2000;
  const std::size_t kShards = 4;
  const std::size_t kThreads = 4;
  const std::size_t kSteps = 8;
  const std::size_t kOneShardSteps = 3;
  const std::size_t kD = 6;

  Rng rng(20120403);
  StreamingOptions options;
  options.capacity = kWindow;
  options.num_shards = kShards;
  options.build_threads = kThreads;
  StreamingDataset streaming(kD, options);
  {
    const auto filled = streaming.Admit(CorrelatedRows(rng, kWindow, kD));
    HICS_CHECK(filled.ok());
  }

  HicsParams search;
  search.num_iterations = 30;
  search.output_top_k = 8;
  search.max_dimensionality = 3;
  search.num_threads = kThreads;
  const GridDensityScorer grid(
      {.bins_per_dim = 32, .smooth = true, .num_threads = kThreads});

  std::printf("streaming slide vs cold rebuild "
              "(window=%zu, slide=%zu, shards=%zu, threads=%zu)\n",
              kWindow, kSlide, kShards, kThreads);
  bool streaming_identical = true;
  double slide_seconds = 0.0;
  double cold_seconds = 0.0;
  double stream_query_seconds = 0.0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const auto rows = CorrelatedRows(rng, kSlide, kD);
    Timer slide_timer;
    const auto slid = streaming.Slide(kSlide, rows);
    const double slide_s = slide_timer.ElapsedSeconds();
    HICS_CHECK(slid.ok());
    slide_seconds += slide_s;

    // Streaming answers from the maintained plane and its warm caches.
    Timer query_timer;
    const auto found = RunHicsSearch(streaming, search);
    HICS_CHECK(found.ok());
    const auto ranked = RankWithSubspaces(
        streaming, *found, grid, ScoreAggregation::kAverage,
        ShardedScoringPolicy::kRequireExactMerge, kThreads);
    HICS_CHECK(ranked.ok());
    stream_query_seconds += query_timer.ElapsedSeconds();

    // Cold rebuild of the identical window: fresh partition, fresh
    // per-shard sorted indexes, no cache reuse.
    const Dataset window = streaming.window();
    Timer cold_timer;
    const ShardedDataset cold(window, kShards, kThreads);
    for (std::size_t s = 0; s < cold.num_shards(); ++s) {
      cold.shard(s).sorted_index();
    }
    const double cold_s = cold_timer.ElapsedSeconds();
    cold_seconds += cold_s;

    const bool identical =
        MatchesCold(*found, *ranked, cold, search, grid, kThreads);
    streaming_identical = streaming_identical && identical;
    std::printf("  step %zu: slide %8.2f ms, cold rebuild %8.2f ms  %s\n",
                step + 1, 1e3 * slide_s, 1e3 * cold_s,
                identical ? "identical" : "MISMATCH (BUG)");
  }

  streaming_identical =
      OneShardIdentical(rng, kWindow, kSlide, kOneShardSteps, kD, search,
                        grid, kThreads) &&
      streaming_identical;

  const double avg_slide_ms =
      1e3 * slide_seconds / static_cast<double>(kSteps);
  const double avg_cold_ms = 1e3 * cold_seconds / static_cast<double>(kSteps);
  const double rebuild_ratio = cold_seconds / slide_seconds;
  std::printf("  avg: slide %.2f ms, cold rebuild %.2f ms (%.2fx), "
              "streaming query %.2f ms\n",
              avg_slide_ms, avg_cold_ms, rebuild_ratio,
              1e3 * stream_query_seconds / static_cast<double>(kSteps));
  std::printf("  streaming_identical: %s\n",
              streaming_identical ? "yes" : "NO");

  bench::JsonWriter json;
  json.BeginObject().Field("benchmark", "bench_streaming.data_plane");
  bench::WriteBuildInfo(json);
  bench::WriteSimdInfo(json);
  bench::WriteMachineInfo(json, kShards, kWindow, kSlide);
  json.BeginObject("dataset")
      .Field("num_attributes", static_cast<std::uint64_t>(kD))
      .Field("steps", static_cast<std::uint64_t>(kSteps))
      .EndObject();
  json.Field("avg_slide_ms", avg_slide_ms)
      .Field("avg_cold_rebuild_ms", avg_cold_ms)
      .Field("cold_over_slide_ratio", rebuild_ratio)
      .Field("avg_stream_query_ms",
             1e3 * stream_query_seconds / static_cast<double>(kSteps))
      .Field("streaming_identical", streaming_identical)
      .EndObject();
  if (bench::WriteJsonFile("BENCH_streaming.json", json)) {
    std::printf("\n-> BENCH_streaming.json\n");
  }
  return streaming_identical ? 0 : 1;
}

}  // namespace hics

int main() { return hics::Run(); }
