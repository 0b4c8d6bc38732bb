// The paper's Fig. 1 scenario: an environmental sensor network where
// suspicious readings hide in *specific attribute combinations*.
//
//  - outlier1 deviates w.r.t. {air pollution index, noise level} only,
//  - outlier2 deviates w.r.t. {humidity, temperature} only,
//  - both look perfectly normal in every single attribute and in the
//    full 12-dimensional space (8 telemetry channels are pure noise).
//
// The example shows (a) full-space LOF failing to isolate them and
// (b) the HiCS pipeline surfacing exactly the two meaningful attribute
// combinations and both sensors.
//
// Build & run:  ./build/examples/sensor_surveillance
//
// `--shards N` instead runs the archive-scale analysis through the
// sharded data plane (DESIGN.md §5i): the 500k-reading archive is
// partitioned into N shards, the subspace search fans its Monte Carlo
// budget out per shard, and the grid ranking merges per-shard histograms
// exactly. Exits nonzero unless both planted contradictions rank top-2.
//
// `--window N --slide K` instead replays the archive as a stream through
// the sliding-window data plane (DESIGN.md §5j): a StreamingDataset holds
// the most recent N readings, slides forward K readings at a time, and
// after every slide re-runs the subspace search + grid ranking against
// the warm epoch-keyed artifact caches. Exits nonzero unless each planted
// contradiction ranks top-2 every time it is inside the window.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/random.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_dataset.h"
#include "engine/streaming_search.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"

namespace {

constexpr std::size_t kNumSensors = 400;
// Attribute layout.
enum : std::size_t {
  kPollution = 0,
  kNoise = 1,
  kHumidity = 2,
  kTemperature = 3,
  kWindSpeed = 4,
  kBattery = 5,
};

hics::Dataset SimulateSensorNetwork() {
  hics::Rng rng(20120401);
  hics::Dataset data(kNumSensors, 12);
  (void)data.SetAttributeNames(
      {"air_pollution", "noise_level", "humidity", "temperature",
       "wind_speed", "battery", "uptime", "rssi", "cpu_temp", "queue_len",
       "uv_index", "rainfall"});
  std::vector<bool> labels(kNumSensors, false);

  for (std::size_t i = 0; i < kNumSensors; ++i) {
    // Pollution correlates with noise (traffic drives both): sensors sit
    // either in a busy zone or a quiet zone.
    const bool busy_zone = rng.Bernoulli(0.5);
    const double traffic = busy_zone ? 0.75 : 0.25;
    data.Set(i, kPollution, traffic + rng.Gaussian(0.0, 0.04));
    data.Set(i, kNoise, traffic + rng.Gaussian(0.0, 0.04));

    // Humidity anti-correlates with temperature (weather front).
    const bool warm_front = rng.Bernoulli(0.5);
    data.Set(i, kHumidity, (warm_front ? 0.3 : 0.7) + rng.Gaussian(0.0, 0.04));
    data.Set(i, kTemperature,
             (warm_front ? 0.7 : 0.3) + rng.Gaussian(0.0, 0.04));

    // Wind speed, battery level, and six more telemetry channels:
    // independent noise that scatters the full space.
    for (std::size_t j = kWindSpeed; j < 12; ++j) {
      data.Set(i, j, rng.UniformDouble());
    }
  }

  // outlier1 (sensor 42): high pollution but LOW noise -- a reading that
  // matches no traffic pattern (defective pollution sensor? illegal
  // emission at night?). Each value alone is perfectly common.
  data.Set(42, kPollution, 0.75);
  data.Set(42, kNoise, 0.25);
  labels[42] = true;

  // outlier2 (sensor 300): warm AND humid -- violates the front pattern.
  data.Set(300, kHumidity, 0.7);
  data.Set(300, kTemperature, 0.7);
  labels[300] = true;

  (void)data.SetLabels(labels);
  return data;
}

void PrintRank(const char* what, const std::vector<double>& scores,
               std::size_t id) {
  const auto ranking = hics::RankingFromScores(scores);
  for (std::size_t r = 0; r < ranking.size(); ++r) {
    if (ranking[r] == id) {
      std::printf("  %s: sensor %3zu ranked %3zu / %zu (score %.2f)\n", what,
                  id, r + 1, scores.size(), scores[id]);
      return;
    }
  }
}

// A season of the same network at city scale: half a million readings
// with the same two hidden per-subspace anomalies. At this N the kNN
// scorers need minutes per subspace; the O(N) grid-density tier — the
// backend ChooseScoringBackend picks here — ranks it in milliseconds.
hics::Dataset SimulateSensorArchive(std::size_t num_readings) {
  hics::Rng rng(20120402);
  hics::Dataset data(num_readings, 6);
  for (std::size_t i = 0; i < num_readings; ++i) {
    // Traffic load varies continuously across a season, driving pollution
    // and noise together: the joint support is a tight diagonal band.
    const double traffic = rng.UniformDouble();
    data.Set(i, kPollution, traffic + rng.Gaussian(0.0, 0.008));
    data.Set(i, kNoise, traffic + rng.Gaussian(0.0, 0.008));
    // Weather fronts likewise: humidity anti-correlates with temperature.
    const double front = rng.UniformDouble();
    data.Set(i, kHumidity, front + rng.Gaussian(0.0, 0.008));
    data.Set(i, kTemperature, 1.0 - front + rng.Gaussian(0.0, 0.008));
    data.Set(i, kWindSpeed, rng.UniformDouble());
    data.Set(i, kBattery, rng.UniformDouble());
  }
  // The same two contradiction patterns, planted mid-archive: each value
  // is common on its own, the combination lies far off its band.
  data.Set(123456, kPollution, 0.75);
  data.Set(123456, kNoise, 0.25);
  data.Set(424242, kHumidity, 0.7);
  data.Set(424242, kTemperature, 0.7);
  return data;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const char* BackendName(hics::ScoringBackend backend) {
  switch (backend) {
    case hics::ScoringBackend::kKdTree:
      return "kd-tree kNN";
    case hics::ScoringBackend::kBruteSimd:
      return "brute-force SIMD kNN";
    case hics::ScoringBackend::kGrid:
      return "O(N) grid density";
  }
  return "?";
}

void RunArchiveScale() {
  constexpr std::size_t kNumReadings = 500000;
  std::printf("\n-- archive scale: the grid-density tier --\n");

  auto start = std::chrono::steady_clock::now();
  const hics::Dataset archive = SimulateSensorArchive(kNumReadings);
  std::printf("  simulate %zu readings x %zu attributes   %7.3f s\n",
              archive.num_objects(), archive.num_attributes(),
              SecondsSince(start));

  const std::vector<hics::Subspace> subspaces = {
      hics::Subspace({kPollution, kNoise}),
      hics::Subspace({kHumidity, kTemperature}),
  };
  std::printf("  backend for (N=%zu, |S|=%zu): %s\n", kNumReadings,
              subspaces[0].size(),
              BackendName(hics::ChooseScoringBackend(kNumReadings,
                                                     subspaces[0].size())));

  start = std::chrono::steady_clock::now();
  const hics::PreparedDataset prepared(archive, /*build_threads=*/0);
  prepared.AttributeRange(0);  // force the range memoization into the timing
  std::printf("  prepare dataset artifact              %7.3f s\n",
              SecondsSince(start));

  hics::GridDensityParams grid_params;
  grid_params.bins_per_dim = 32;
  // Neighbor smoothing separates a contradiction (empty cell amid empty
  // neighbors) from an ordinary Gaussian-tail reading (sparse cell next
  // to a packed one) — at this N the tails alone fill thousands of cells.
  grid_params.smooth = true;
  grid_params.num_threads = 0;
  const hics::GridDensityScorer grid(grid_params);
  start = std::chrono::steady_clock::now();
  // kMax alerting: a contradiction lives in ONE subspace; averaging would
  // dilute it with the (normal) score from the other.
  const auto scores = hics::RankWithSubspaces(prepared, subspaces, grid,
                                              hics::ScoreAggregation::kMax);
  const double rank_seconds = SecondsSince(start);
  std::printf("  grid-rank %zu subspaces               %7.3f s  "
              "(%.1f M readings/s)\n",
              subspaces.size(), rank_seconds,
              static_cast<double>(kNumReadings * subspaces.size()) /
                  rank_seconds / 1e6);

  PrintRank("outlier1", scores, 123456);
  PrintRank("outlier2", scores, 424242);
}

/// The archive analysis through the sharded data plane: per-shard search
/// streams, exact per-shard histogram merge. Returns false when the two
/// planted contradictions are not the top-2 ranked readings.
bool RunArchiveScaleSharded(std::size_t num_shards) {
  constexpr std::size_t kNumReadings = 500000;
  std::printf("\n-- archive scale, sharded data plane (%zu shards) --\n",
              num_shards);

  auto start = std::chrono::steady_clock::now();
  const hics::Dataset archive = SimulateSensorArchive(kNumReadings);
  std::printf("  simulate %zu readings x %zu attributes   %7.3f s\n",
              archive.num_objects(), archive.num_attributes(),
              SecondsSince(start));

  start = std::chrono::steady_clock::now();
  const hics::ShardedDataset sharded(archive, num_shards,
                                     /*build_threads=*/0);
  std::printf("  partition into %zu shards             %7.3f s\n",
              sharded.num_shards(), SecondsSince(start));
  // Force each shard's rank artifacts up front so the per-shard prepare
  // cost is visible (the search would otherwise pay it lazily).
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    start = std::chrono::steady_clock::now();
    sharded.shard(s).sorted_index();
    std::printf("    shard %zu: rows [%6zu, %6zu)  prepare %7.3f s\n", s,
                sharded.shard_begin(s),
                sharded.shard_begin(s) + sharded.shard_size(s),
                SecondsSince(start));
  }

  // The sharded search discovers the two correlated sensor pairs itself:
  // each shard runs its slice of the Monte Carlo budget on its own rows,
  // the row-count-weighted merge ranks the candidates.
  hics::HicsParams params;
  params.num_iterations = 50;
  params.output_top_k = 2;
  params.max_dimensionality = 2;
  params.num_threads = 0;
  start = std::chrono::steady_clock::now();
  const auto found = hics::RunHicsSearch(sharded, params);
  if (!found.ok()) {
    std::fprintf(stderr, "sharded search failed: %s\n",
                 found.status().ToString().c_str());
    return false;
  }
  std::printf("  sharded subspace search               %7.3f s\n",
              SecondsSince(start));
  std::printf("  high contrast subspaces found:\n");
  for (const auto& s : *found) {
    std::printf("    contrast %.3f: %s\n", s.score,
                s.subspace.ToString().c_str());
  }

  hics::GridDensityParams grid_params;
  grid_params.bins_per_dim = 32;
  grid_params.smooth = true;
  grid_params.num_threads = 0;
  const hics::GridDensityScorer grid(grid_params);
  start = std::chrono::steady_clock::now();
  const auto scores = hics::RankWithSubspacesSharded(
      sharded, *found, grid, hics::ScoreAggregation::kMax,
      hics::ShardedScoringPolicy::kRequireExactMerge, /*num_threads=*/0);
  if (!scores.ok()) {
    std::fprintf(stderr, "sharded ranking failed: %s\n",
                 scores.status().ToString().c_str());
    return false;
  }
  const double rank_seconds = SecondsSince(start);
  std::printf("  sharded grid-rank (exact merge)       %7.3f s  "
              "(%.1f M readings/s)\n",
              rank_seconds,
              static_cast<double>(kNumReadings * found->size()) /
                  rank_seconds / 1e6);

  PrintRank("outlier1", *scores, 123456);
  PrintRank("outlier2", *scores, 424242);

  const auto ranking = hics::RankingFromScores(*scores);
  const bool top2 =
      ranking.size() >= 2 &&
      ((ranking[0] == 123456 && ranking[1] == 424242) ||
       (ranking[0] == 424242 && ranking[1] == 123456));
  std::printf("  planted contradictions rank top-2: %s\n",
              top2 ? "yes" : "NO");
  return top2;
}

/// The archive replayed as a stream through the sliding-window data
/// plane. Returns false when a planted contradiction fails to rank top-2
/// while inside the window.
bool RunArchiveStream(std::size_t window, std::size_t slide) {
  constexpr std::size_t kNumReadings = 500000;
  constexpr std::size_t kPlanted[] = {123456, 424242};
  std::printf("\n-- archive replay, streaming data plane "
              "(window %zu, slide %zu) --\n",
              window, slide);

  auto start = std::chrono::steady_clock::now();
  const hics::Dataset archive = SimulateSensorArchive(kNumReadings);
  std::printf("  simulate %zu readings x %zu attributes   %7.3f s\n",
              archive.num_objects(), archive.num_attributes(),
              SecondsSince(start));

  hics::StreamingOptions stream_options;
  stream_options.capacity = window;
  stream_options.num_shards = 4;
  stream_options.build_threads = 0;
  hics::StreamingDataset streaming(archive.num_attributes(), stream_options);

  hics::HicsParams params;
  params.num_iterations = 20;
  params.output_top_k = 2;
  params.max_dimensionality = 2;
  params.num_threads = 0;

  hics::GridDensityParams grid_params;
  grid_params.bins_per_dim = 32;
  grid_params.smooth = true;
  grid_params.num_threads = 0;
  const hics::GridDensityScorer grid(grid_params);

  const auto rows_in = [&](std::size_t begin, std::size_t count) {
    std::vector<std::vector<double>> rows(count);
    for (std::size_t i = 0; i < count; ++i) {
      rows[i].resize(archive.num_attributes());
      for (std::size_t a = 0; a < archive.num_attributes(); ++a) {
        rows[i][a] = archive.Column(a)[begin + i];
      }
    }
    return rows;
  };

  std::size_t fed = 0;         // archive rows consumed so far
  std::size_t ranked = 0;      // re-rankings performed
  std::size_t verified[] = {std::size_t{0}, std::size_t{0}};
  bool ok = true;
  double rank_seconds = 0.0;
  start = std::chrono::steady_clock::now();
  while (fed < kNumReadings && ok) {
    const std::size_t batch =
        std::min(fed == 0 ? window : slide, kNumReadings - fed);
    const auto admitted = streaming.Admit(rows_in(fed, batch));
    if (!admitted.ok()) {
      std::fprintf(stderr, "slide failed: %s\n",
                   admitted.status().ToString().c_str());
      return false;
    }
    fed += batch;
    const std::size_t window_begin = fed - streaming.size();

    // Re-rank the current window from the streaming plane: the search
    // and ranking read through the epoch-keyed caches, so artifacts of
    // shards the slide did not touch are served warm.
    const auto rank_start = std::chrono::steady_clock::now();
    const auto found = hics::RunHicsSearch(streaming, params);
    if (!found.ok()) {
      std::fprintf(stderr, "streaming search failed: %s\n",
                   found.status().ToString().c_str());
      return false;
    }
    const auto scores = hics::RankWithSubspaces(
        streaming, *found, grid, hics::ScoreAggregation::kMax,
        hics::ShardedScoringPolicy::kRequireExactMerge, /*num_threads=*/0);
    if (!scores.ok()) {
      std::fprintf(stderr, "streaming ranking failed: %s\n",
                   scores.status().ToString().c_str());
      return false;
    }
    rank_seconds += SecondsSince(rank_start);
    ++ranked;

    // Every planted contradiction currently inside the window must be at
    // the very top of the alert ranking.
    const auto ranking = hics::RankingFromScores(*scores);
    for (std::size_t p = 0; p < 2; ++p) {
      if (kPlanted[p] < window_begin || kPlanted[p] >= fed) continue;
      const std::size_t in_window = kPlanted[p] - window_begin;
      std::size_t rank = ranking.size();
      for (std::size_t r = 0; r < ranking.size(); ++r) {
        if (ranking[r] == in_window) {
          rank = r;
          break;
        }
      }
      ++verified[p];
      if (rank >= 2) {
        std::printf("  epoch %llu: planted reading %zu ranked %zu / %zu "
                    "(expected top-2)\n",
                    static_cast<unsigned long long>(streaming.epoch()),
                    kPlanted[p], rank + 1, ranking.size());
        ok = false;
      }
    }
  }
  const double total_seconds = SecondsSince(start);

  std::printf("  replayed %zu readings in %zu windows  %7.3f s "
              "(rank %7.3f s, %.1f ms/window)\n",
              fed, ranked, total_seconds, rank_seconds,
              1e3 * rank_seconds / static_cast<double>(ranked));
  const hics::ArtifactCacheStats window_stats =
      streaming.window_cache_stats();
  std::uint64_t shard_hits = 0, shard_misses = 0;
  for (std::size_t s = 0; s < streaming.num_shards(); ++s) {
    shard_hits += streaming.shard_cache_stats(s).hits();
    shard_misses += streaming.shard_cache_stats(s).misses();
  }
  std::printf("  artifact caches: window %llu hits / %llu misses, shards "
              "%llu hits / %llu misses\n",
              static_cast<unsigned long long>(window_stats.hits()),
              static_cast<unsigned long long>(window_stats.misses()),
              static_cast<unsigned long long>(shard_hits),
              static_cast<unsigned long long>(shard_misses));
  std::printf("  outlier1 verified in %zu windows, outlier2 in %zu\n",
              verified[0], verified[1]);
  if (verified[0] == 0 || verified[1] == 0) {
    std::fprintf(stderr, "a planted contradiction never entered the window "
                         "(window/slide too small?)\n");
    return false;
  }
  std::printf("  planted contradictions surfaced while in-window: %s\n",
              ok ? "yes" : "NO");
  return ok;
}

int RunDefault() {
  const hics::Dataset data = SimulateSensorNetwork();
  std::printf("sensor network: %zu sensors x %zu attributes\n",
              data.num_objects(), data.num_attributes());
  std::printf("hidden anomalies: sensor 42 in {air_pollution, noise_level}, "
              "sensor 300 in\n{humidity, temperature}\n\n");

  const hics::LofScorer lof({/*min_pts=*/15});

  // One prepared artifact shared by the full-space baseline and the
  // pipeline: the sorted index is built once for both analyses.
  const hics::PreparedDataset prepared(data);

  std::printf("-- traditional full-space LOF --\n");
  const auto full_scores = lof.ScoreSubspacePrepared(prepared, data.FullSpace());
  PrintRank("outlier1", full_scores, 42);
  PrintRank("outlier2", full_scores, 300);

  std::printf("\n-- HiCS pipeline (subspace search + LOF) --\n");
  hics::HicsParams params;
  params.output_top_k = 5;
  params.num_iterations = 100;
  auto result = hics::RunHicsPipeline(prepared, params, lof);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("high contrast subspaces found:\n");
  for (const auto& s : result->subspaces) {
    std::printf("  contrast %.3f: {", s.score);
    for (std::size_t i = 0; i < s.subspace.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  data.attribute_names()[s.subspace[i]].c_str());
    }
    std::printf("}\n");
  }
  PrintRank("outlier1", result->scores, 42);
  PrintRank("outlier2", result->scores, 300);

  RunArchiveScale();

  std::printf("\nexpected: HiCS surfaces the two correlated sensor-pair "
              "subspaces and ranks both\nhidden anomalies at the very top "
              "(at survey and archive scale alike), while\nfull-space LOF "
              "buries them.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  long window = 0, slide = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      const long shards = std::atol(argv[i + 1]);
      if (shards < 1) {
        std::fprintf(stderr, "--shards wants a positive count, got %s\n",
                     argv[i + 1]);
        return 1;
      }
      return RunArchiveScaleSharded(static_cast<std::size_t>(shards)) ? 0
                                                                      : 1;
    }
    if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--slide") == 0 && i + 1 < argc) {
      slide = std::atol(argv[++i]);
    }
  }
  if (window > 0 || slide > 0) {
    if (window < 2 || slide < 1 || slide > window) {
      std::fprintf(stderr, "--window N --slide K wants N >= 2 and "
                           "1 <= K <= N (got N=%ld, K=%ld)\n",
                   window, slide);
      return 1;
    }
    return RunArchiveStream(static_cast<std::size_t>(window),
                            static_cast<std::size_t>(slide))
               ? 0
               : 1;
  }
  return RunDefault();
}
