// Engineering ablation: parallel scaling of the three expensive stages --
// the HiCS contrast lattice (per-subspace Monte Carlo, embarrassingly
// parallel), the outlier-ranking phase (one scorer run per top subspace),
// and LOF's kNN pass (quadratic, read-only). Verifies the determinism
// guarantee (identical scores for any worker count), reports the speedups
// backing DESIGN.md §5, and writes the raw numbers to
// BENCH_ablation_parallel.json in the working directory.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/hics.h"
#include "data/synthetic.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"

namespace {

using hics::bench::Unwrap;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// One stage's timing at a fixed thread count, plus whether its output was
// bit-identical to the single-threaded reference.
struct Sample {
  std::size_t threads = 1;
  double seconds = 0.0;
  bool identical = true;
};

void PrintAndRecord(const char* label, const std::vector<Sample>& samples,
                    hics::bench::JsonWriter* json) {
  json->BeginArray(label);
  for (const Sample& s : samples) {
    std::printf("  threads=%zu  %6.2fs  speedup %4.2fx  identical=%s\n",
                s.threads, s.seconds, samples.front().seconds / s.seconds,
                s.identical ? "yes" : "NO (BUG)");
    json->BeginObject()
        .Field("num_threads", static_cast<std::uint64_t>(s.threads))
        .Field("seconds", s.seconds)
        .Field("speedup", samples.front().seconds / s.seconds)
        .Field("identical", s.identical)
        .EndObject();
  }
  json->EndArray();
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("== Ablation: deterministic parallelism ==\n");
  std::printf("hardware concurrency: %zu\n\n", hics::DefaultNumThreads());

  hics::SyntheticParams gen;
  gen.num_objects = 1500;
  gen.num_attributes = 30;
  gen.seed = 1;
  const hics::Dataset data =
      Unwrap(hics::GenerateSynthetic(gen), "synthetic data").data;

  hics::bench::JsonWriter json;
  json.BeginObject()
      .Field("benchmark", "bench_ablation_parallel")
      .Field("hardware_concurrency",
             static_cast<std::uint64_t>(hics::DefaultNumThreads()))
      .BeginObject("dataset")
      .Field("num_objects", static_cast<std::uint64_t>(data.num_objects()))
      .Field("num_attributes",
             static_cast<std::uint64_t>(data.num_attributes()))
      .Field("seed", static_cast<std::uint64_t>(gen.seed))
      .EndObject();

  // --- HiCS search.
  std::printf("HiCS search (N=%zu, D=%zu, M=50):\n", data.num_objects(),
              data.num_attributes());
  std::vector<hics::ScoredSubspace> reference;
  std::vector<Sample> search_samples;
  for (std::size_t threads : kThreadCounts) {
    hics::HicsParams params;
    params.num_threads = threads;
    hics::Timer timer;
    auto result = Unwrap(hics::RunHicsSearch(data, params), "HiCS");
    Sample sample{threads, timer.ElapsedSeconds(), true};
    if (threads == 1) reference = result;
    sample.identical = result.size() == reference.size();
    for (std::size_t i = 0; sample.identical && i < result.size(); ++i) {
      sample.identical = result[i].subspace == reference[i].subspace &&
                         result[i].score == reference[i].score;
    }
    search_samples.push_back(sample);
  }
  PrintAndRecord("search", search_samples, &json);

  // --- Ranking phase: one LOF run per searched subspace, outer-parallel.
  std::printf("\nsubspace ranking (%zu subspaces, LOF MinPts=10):\n",
              reference.size());
  const hics::LofScorer ranking_lof({.min_pts = 10});
  std::vector<double> rank_reference;
  std::vector<Sample> rank_samples;
  for (std::size_t threads : kThreadCounts) {
    hics::Timer timer;
    const auto scores = hics::RankWithSubspaces(
        hics::PreparedDataset(data), hics::PlainSubspaces(reference),
        ranking_lof, hics::ScoreAggregation::kAverage, threads);
    Sample sample{threads, timer.ElapsedSeconds(), true};
    if (threads == 1) rank_reference = scores;
    sample.identical = scores == rank_reference;
    rank_samples.push_back(sample);
  }
  PrintAndRecord("ranking", rank_samples, &json);

  // --- LOF.
  std::printf("\nfull-space LOF (N=%zu, D=%zu, MinPts=10):\n",
              data.num_objects(), data.num_attributes());
  std::vector<double> lof_reference;
  std::vector<Sample> lof_samples;
  for (std::size_t threads : kThreadCounts) {
    hics::LofScorer lof({.min_pts = 10, .num_threads = threads});
    hics::Timer timer;
    const auto scores = lof.ScoreFullSpace(data);
    Sample sample{threads, timer.ElapsedSeconds(), true};
    if (threads == 1) lof_reference = scores;
    sample.identical = scores == lof_reference;
    lof_samples.push_back(sample);
  }
  PrintAndRecord("lof_full_space", lof_samples, &json);

  json.EndObject();
  if (hics::bench::WriteJsonFile("BENCH_ablation_parallel.json", json)) {
    std::printf("\nwrote BENCH_ablation_parallel.json\n");
  }

  std::printf("\nexpected shape: results stay bit-identical for every "
              "worker count\n(per-subspace RNG streams / pre-sized ranking "
              "slots / read-only kNN\npass); speedup approaches the core "
              "count on multi-core machines (flat\n~1.0x on a single-core "
              "host).\n");
  return 0;
}
