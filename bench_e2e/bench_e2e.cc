// bench_e2e: the repository benchmark. One process runs one workload
// through the library's public API and writes a result file that
// run_e2e.py turns into the reported metrics.
//
// Workloads (why each exists: README.md in this directory):
//   pipeline_wide — paper Fig. 5 shape (N=2000, D=40): cold prepare →
//                   RunHicsSearch → RankWithSubspacesDegraded(LOF), ops
//                   cycling over 8 seeded datasets. Search is the larger
//                   part, LOF ranking most of the rest.
//   pipeline_tall — paper Fig. 6 shape (N=4000, D=10), same calls. LOF
//                   ranking and batched kNN dominate.
//   serve_lof     — LoadHicsModel, then 3 closed-loop clients scoring one
//                   held-out row per ScoreQueries call on a model of 2-3
//                   dimensional subspaces. Per-point kNN and the model's
//                   searcher mutex; no search, no batch kNN.
//   stream_grid   — 8-shard StreamingDataset window sliding one shard per
//                   step: Slide → streaming search → grid-density ranking.
//                   Surviving shards keep their artifacts and grids; no kNN.
//
// Input generation is seeded by --seed and never timed; the library
// receives only the generated data (through CSV and model files where a
// user would). Each workload measures for --seconds, then checks its
// outputs; any failed check makes the run incorrect.
//
// --trace 1 interleaves traced and untraced ops (the difference is
// trace.overhead_pct), records spans around every call into a layer,
// runs the per-layer probes, and writes trace_<workload>.json (Chrome
// trace events) and counters_<workload>.json next to result.json.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_kernels.h"
#include "bench_e2e/bench_trace.h"
#include "cluster/grid.h"
#include "common/csv.h"
#include "common/dataset.h"
#include "common/random.h"
#include "common/run_context.h"
#include "common/timer.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_dataset.h"
#include "engine/streaming_search.h"
#include "eval/roc.h"
#include "index/neighbor_searcher.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"
#include "serve/model_io.h"
#include "simd/simd.h"
#include "stats/descriptive.h"

namespace hics::bench {
namespace {

// Every thread count and client count stays at or below 4, the core count
// the sizes below were chosen on.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kServeClients = 3;
constexpr std::size_t kLofMinPts = 10;
constexpr std::size_t kPipelineDatasets = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

// --- small helpers -----------------------------------------------------

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameSubspaces(const std::vector<ScoredSubspace>& a,
                   const std::vector<ScoredSubspace>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].subspace != b[i].subspace ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over the result bits, for the informational result_digest and
/// the cross-rep identity checks.
class Digest {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<double>& v) {
    Add(v.data(), v.size() * sizeof(double));
  }
  void Add(const std::vector<ScoredSubspace>& subspaces) {
    for (const ScoredSubspace& s : subspaces) {
      for (std::size_t dim : s.subspace) Add(&dim, sizeof(dim));
      Add(&s.score, sizeof(s.score));
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::vector<Subspace> Plain(const std::vector<ScoredSubspace>& scored) {
  std::vector<Subspace> plain;
  plain.reserve(scored.size());
  for (const ScoredSubspace& s : scored) plain.push_back(s.subspace);
  return plain;
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so under a launcher it
/// would report the launcher's peak when that is larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  if (f != nullptr) std::fclose(f);
  HICS_CHECK_GE(kib, 0);
  return static_cast<double>(kib) / 1024.0;
}

const char* BackendName(ScoringBackend backend) {
  switch (backend) {
    case ScoringBackend::kKdTree: return "kd_tree";
    case ScoringBackend::kBruteSimd: return "brute_simd";
    case ScoringBackend::kGrid: return "grid";
  }
  return "unknown";
}

/// Durations (ms) of the spans named `name` that belong to timed ops.
std::vector<double> OpSpanMs(const TraceRecorder& trace,
                             const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : trace.spans()) {
    if (s.op != 0 && s.name == name) {
      ms.push_back((s.end_us - s.start_us) / 1e3);
    }
  }
  return ms;
}

/// Rows [begin, end) of `data` as an owned dataset (labels kept).
Dataset RowRange(const Dataset& data, std::size_t begin, std::size_t end) {
  std::vector<std::vector<double>> columns(data.num_attributes());
  for (std::size_t a = 0; a < columns.size(); ++a) {
    const std::vector<double>& col = data.Column(a);
    columns[a].assign(col.begin() + static_cast<std::ptrdiff_t>(begin),
                      col.begin() + static_cast<std::ptrdiff_t>(end));
  }
  Dataset out =
      std::move(Dataset::FromColumns(std::move(columns))).ValueOrDie();
  if (data.has_labels()) {
    HICS_CHECK(out.SetLabels(std::vector<bool>(
                   data.labels().begin() + static_cast<std::ptrdiff_t>(begin),
                   data.labels().begin() + static_cast<std::ptrdiff_t>(end)))
                   .ok());
  }
  return out;
}

/// The paper's generator with the group shape pinned: every correlated
/// group has 4 attributes and 3 clusters (the paper draws 2-5 and 2-4).
/// A drawn 5-attribute group deepens the lattice and a 2-attribute one
/// shortens it, which made the work per op the largest seed effect on
/// timing; pinning it leaves the seed to change values only.
SyntheticDataset Generate(std::size_t n, std::size_t d,
                          std::size_t outliers_per_subspace,
                          std::uint64_t seed) {
  SyntheticParams gen;
  gen.num_objects = n;
  gen.num_attributes = d;
  gen.noise_attributes = d % 4;
  gen.min_subspace_dims = 4;
  gen.max_subspace_dims = 4;
  gen.min_clusters = 3;
  gen.max_clusters = 3;
  gen.outliers_per_subspace = outliers_per_subspace;
  gen.seed = seed;
  Result<SyntheticDataset> generated = GenerateSynthetic(gen);
  HICS_CHECK(generated.ok());
  return std::move(generated).ValueOrDie();
}

/// Row-major copy of a column-major dataset (the ScoreQueries layout).
std::vector<double> RowMajor(const Dataset& data) {
  const std::size_t n = data.num_objects();
  const std::size_t d = data.num_attributes();
  std::vector<double> rows(n * d);
  for (std::size_t a = 0; a < d; ++a) {
    const std::vector<double>& col = data.Column(a);
    for (std::size_t i = 0; i < n; ++i) rows[i * d + a] = col[i];
  }
  return rows;
}

// --- result file -------------------------------------------------------

class Report {
 public:
  void E2e(const std::string& name, double value, std::size_t samples) {
    e2e_[name] = {value, samples};
  }
  void Check(const std::string& name, bool ok, const std::string& detail = "") {
    checks_.push_back({name, ok, detail});
    if (!ok) {
      std::fprintf(stderr, "bench_e2e: check %s FAILED %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  void Attempt(bool ok) { Attempts(1, ok ? 0 : 1); }
  void Attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_digest(std::string digest) { digest_ = std::move(digest); }
  void set_num_shards(std::uint64_t num_shards) { num_shards_ = num_shards; }

  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  std::uint64_t failed() const { return failed_; }

  std::string ToJson(const Args& args, const TraceRecorder& trace) const {
    JsonWriter json;
    json.BeginObject()
        .Field("workload", args.workload)
        .Field("seed", args.seed)
        .Field("trace", args.trace)
        .Field("scale", args.smoke ? "smoke" : "full")
        .Field("correct", correct())
        .Field("attempted", attempted_)
        .Field("failed", failed_)
        .Field("result_digest", digest_);
    WriteBuildInfo(json);
    WriteSimdInfo(json);
    WriteMachineInfo(json, num_shards_);
    WriteHostLoad(json);
    json.BeginArray("checks");
    for (const CheckResult& c : checks_) {
      json.BeginObject()
          .Field("name", c.name)
          .Field("ok", c.ok)
          .Field("detail", c.detail)
          .EndObject();
    }
    json.EndArray().BeginObject("e2e");
    for (const auto& [name, m] : e2e_) {
      json.BeginObject(name)
          .Field("value", m.first)
          .Field("samples", static_cast<std::uint64_t>(m.second))
          .EndObject();
    }
    json.EndObject().BeginObject("counters");
    for (const auto& [name, value] : trace.counters()) json.Field(name, value);
    json.EndObject().EndObject();
    return json.str();
  }

 private:
  /// What WriteMachineInfo does not record yet: the CPUs this process may
  /// run on and how busy the shared machine was when the run ended.
  static void WriteHostLoad(JsonWriter& json) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    double load[1] = {0.0};
    if (getloadavg(load, 1) != 1) load[0] = -1.0;
    json.BeginObject("host")
        .Field("affinity_cpus", affinity)
        .Field("loadavg_1m", load[0])
        .Field("threads", static_cast<std::uint64_t>(kThreads))
        .EndObject();
  }

  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, std::pair<double, std::size_t>> e2e_;
  std::vector<CheckResult> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t num_shards_ = 1;
  std::string digest_;
};

/// Records the end-to-end latency metrics shared by every workload:
/// percentiles of the latency samples `ms` and a rate over `ops` ops.
void ReportLatencies(Report& report, const std::vector<double>& ms,
                     double ops_per_s, std::size_t ops) {
  report.E2e("latency_p50_ms", stats::Median(ms), ms.size());
  report.E2e("latency_p90_ms", stats::Quantile(ms, 0.9), ms.size());
  report.E2e("ops_per_s", ops_per_s, ops);
}

/// trace.overhead_pct: root-op median with spans on vs off, same run.
void ReportTraceOverhead(TraceRecorder& trace,
                         const std::vector<double>& untraced_ms,
                         const std::vector<double>& traced_ms) {
  const double off = stats::Median(untraced_ms);
  trace.SetCounter(
      "trace.overhead_pct",
      off > 0.0 ? 100.0 * (stats::Median(traced_ms) / off - 1.0) : 0.0);
}

/// simd layer probes: effective GB/s of the canonical contrast kernels and
/// the f64 screening row, at this workload's column length `n`.
void SimdProbes(std::size_t n, TraceRecorder& trace) {
  ScopedSpan probe(trace, "probe.simd");
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  Rng rng(20120401);
  std::vector<double> column(n);
  for (double& v : column) v = rng.UniformDouble();
  // A slice keeps ~alpha = 10% of the objects; the stamp density matches.
  std::vector<std::uint32_t> stamps(n);
  for (std::uint32_t& s : stamps) s = rng.UniformDouble() < 0.1 ? 5 : 1;
  std::vector<double> out(n + simd::kCompactPad);
  {
    ScopedSpan span(trace, "simd.compact_selected");
    const KernelRate rate = MeasureKernel(
        [&] {
          KeepAlive(kernels.compact_selected(column.data(), stamps.data(), n,
                                             5, out.data()));
          KeepAlive(out.data());
        },
        static_cast<double>(n * (sizeof(double) + sizeof(std::uint32_t))),
        0.0);
    trace.SetCounter("simd.compact_selected_gbps", rate.gb_per_s);
  }
  {
    ScopedSpan span(trace, "simd.sum_sq_dev");
    const KernelRate rate = MeasureKernel(
        [&] { KeepAlive(kernels.sum_sq_dev(column.data(), n, 0.5)); },
        static_cast<double>(n * sizeof(double)), 3.0 * static_cast<double>(n));
    trace.SetCounter("simd.sum_sq_dev_gbps", rate.gb_per_s);
  }
  {
    // One Gram-tile row over a 2-d projection (the most common selected
    // subspace size), full tile width.
    ScopedSpan span(trace, "simd.screen_row_f64");
    const std::size_t dim = 2;
    const std::size_t w = std::min(simd::kMaxScreenWidth, n / 2);
    std::vector<double> soa(dim * n);
    for (double& v : soa) v = rng.UniformDouble();
    std::vector<double> norms(n, 0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t i = 0; i < n; ++i) {
        norms[i] += soa[d * n + i] * soa[d * n + i];
      }
    }
    std::vector<double> d2(w);
    const KernelRate rate = MeasureKernel(
        [&] {
          kernels.screen_row_f64(soa.data(), n, dim, 0, n - w, w, norms[0],
                                 norms.data() + (n - w), d2.data());
          KeepAlive(d2.data());
        },
        static_cast<double>((dim * w + 2 * w) * sizeof(double)),
        static_cast<double>(2 * dim * w + 3 * w));
    trace.SetCounter("simd.screen_row_f64_gbps", rate.gb_per_s);
  }
}

/// Sums the stats of every artifact cache into the engine.cache_* counters.
void ReportCacheStats(TraceRecorder& trace,
                      const std::vector<ArtifactCacheStats>& caches) {
  ArtifactCacheStats total;
  for (const ArtifactCacheStats& s : caches) {
    total.searcher_hits += s.searcher_hits;
    total.searcher_misses += s.searcher_misses;
    total.knn_table_hits += s.knn_table_hits;
    total.knn_table_misses += s.knn_table_misses;
    total.score_hits += s.score_hits;
    total.score_misses += s.score_misses;
    total.grid_hits += s.grid_hits;
    total.grid_misses += s.grid_misses;
    total.approx_bytes += s.approx_bytes;
    total.evicted_artifacts += s.evicted_artifacts;
    total.invalidated_bytes += s.invalidated_bytes;
  }
  trace.SetCounter("engine.cache_hits", static_cast<double>(total.hits()));
  trace.SetCounter("engine.cache_misses", static_cast<double>(total.misses()));
  trace.SetCounter("engine.cache_hit_rate", total.hit_rate());
  trace.SetCounter("engine.evicted_artifacts",
                   static_cast<double>(total.evicted_artifacts));
  trace.SetCounter("engine.invalidated_bytes",
                   static_cast<double>(total.invalidated_bytes));
  trace.SetCounter("engine.cache_approx_bytes",
                   static_cast<double>(total.approx_bytes));
}

// --- pipeline_wide / pipeline_tall --------------------------------------

struct PipelineOutput {
  bool ok = false;
  std::vector<ScoredSubspace> subspaces;
  std::vector<double> scores;
  HicsRunStats stats;
  ArtifactCacheStats cache;

  std::string DigestHex() const {
    Digest d;
    d.Add(subspaces);
    d.Add(scores);
    return d.Hex();
  }
};

/// One cold op, exactly RunHicsPipeline's prepared path split at its layer
/// calls: fresh PreparedDataset (rank artifacts built eagerly so the build
/// is its own span), RunHicsSearch, RankWithSubspacesDegraded, release.
PipelineOutput PipelineOp(const Dataset& data, const HicsParams& params,
                          const OutlierScorer& scorer, TraceRecorder& trace,
                          std::uint64_t op) {
  ScopedSpan root(trace, "op", op);
  PipelineOutput out;
  std::unique_ptr<PreparedDataset> prepared;
  {
    ScopedSpan span(trace, "engine.prepare");
    prepared = std::make_unique<PreparedDataset>(data, params.num_threads);
    prepared->sorted_index();
  }
  const RunContext ctx;
  {
    ScopedSpan span(trace, "core.search");
    Result<std::vector<ScoredSubspace>> found =
        RunHicsSearch(*prepared, params, ctx, &out.stats);
    if (!found.ok()) return out;
    out.subspaces = std::move(found).ValueOrDie();
  }
  DegradedRankingResult ranked;
  {
    ScopedSpan span(trace, "outlier.rank");
    ranked = RankWithSubspacesDegraded(*prepared, Plain(out.subspaces), scorer,
                                       ScoreAggregation::kAverage, ctx,
                                       params.num_threads);
  }
  out.ok = !out.stats.interrupted() && ranked.failures.empty() &&
           !ranked.scores.empty() && !ranked.cancelled &&
           !ranked.deadline_exceeded;
  out.scores = std::move(ranked.scores);
  out.cache = prepared->cache().stats();
  {
    ScopedSpan span(trace, "engine.release");
    prepared.reset();
  }
  return out;
}

/// Traced-run probes of the layers the pipeline op calls only indirectly.
void PipelineProbes(const Dataset& data, const HicsParams& params,
                    const LofScorer& lof, const PipelineOutput& ref,
                    Report& report, TraceRecorder& trace) {
  const std::size_t n = data.num_objects();
  const RunContext ctx;

  // core: per-level search cost. max_dimensionality only truncates the
  // lattice, so each capped run repeats the start of the full one and
  // successive differences isolate levels 2, 3 and 4+.
  {
    ScopedSpan probe(trace, "probe.levels");
    PreparedDataset prepared(data, params.num_threads);
    prepared.sorted_index();
    const std::size_t caps[3] = {2, 3, 0};
    double seconds[3] = {0.0, 0.0, 0.0};
    bool ok = true;
    for (int k = 0; k < 3; ++k) {
      HicsParams capped = params;
      capped.max_dimensionality = caps[k];
      ScopedSpan span(trace, "core.search");
      span.Attr("max_dim", std::to_string(caps[k]));
      Timer timer;
      ok = ok && RunHicsSearch(prepared, capped, ctx).ok();
      seconds[k] = timer.ElapsedSeconds();
    }
    report.Check("core.level_search_ok", ok);
    trace.SetCounter("core.level2_s", seconds[0]);
    trace.SetCounter("core.level3_s", seconds[1] - seconds[0]);
    trace.SetCounter("core.level4plus_s", seconds[2] - seconds[1]);
  }

  // index: the searcher builds and batched all-kNN passes LOF runs per
  // selected subspace.
  {
    ScopedSpan probe(trace, "probe.knn");
    double build_s = 0.0;
    double query_s = 0.0;
    KnnResultTable table;
    for (const ScoredSubspace& s : ref.subspaces) {
      const KnnBackend backend = ChooseKnnBackend(n, s.subspace.size());
      std::unique_ptr<NeighborSearcher> searcher;
      {
        ScopedSpan span(trace, "index.knn_build");
        Timer timer;
        searcher = MakeSearcher(data, s.subspace, backend);
        build_s += timer.ElapsedSeconds();
      }
      {
        ScopedSpan span(trace, "index.knn_query");
        Timer timer;
        searcher->QueryAllKnn(kLofMinPts, &table, params.num_threads);
        query_s += timer.ElapsedSeconds();
      }
    }
    trace.SetCounter("index.knn_build_s", build_s);
    trace.SetCounter("index.knn_query_s", query_s);
  }

  // outlier: per-subspace scoring tagged with the backend the ranking
  // layer's policy picks, then the aggregation on its own.
  {
    ScopedSpan probe(trace, "probe.scoring");
    std::map<std::string, std::vector<double>> ms_by_backend;
    std::vector<std::vector<double>> per_subspace;
    for (const ScoredSubspace& s : ref.subspaces) {
      const char* backend =
          BackendName(ChooseScoringBackend(n, s.subspace.size()));
      ScopedSpan span(trace, "outlier.score_subspace");
      span.Attr("backend", backend);
      Timer timer;
      per_subspace.push_back(lof.ScoreSubspace(data, s.subspace));
      ms_by_backend[backend].push_back(timer.ElapsedMillis());
    }
    std::vector<double> aggregated;
    {
      ScopedSpan span(trace, "outlier.aggregate");
      Timer timer;
      aggregated = AggregateScores(per_subspace, ScoreAggregation::kAverage);
      trace.SetCounter("outlier.aggregate_ms", timer.ElapsedMillis());
    }
    for (const char* backend : {"kd_tree", "brute_simd"}) {
      const std::vector<double>& ms = ms_by_backend[backend];
      trace.SetCounter(std::string("outlier.subspace_ms_p50.") + backend,
                       ms.empty() ? 0.0 : stats::Median(ms));
      trace.SetCounter(std::string("outlier.subspaces.") + backend,
                       static_cast<double>(ms.size()));
    }
    report.Check("pipeline.cold_scoring_equals_rank",
                 SameBytes(aggregated, ref.scores));
  }

  // common: thread scaling of search and ranking (fresh artifacts per
  // thread count, so the rank pass starts from a cold cache each time).
  {
    ScopedSpan probe(trace, "probe.parallel");
    const std::size_t thread_counts[3] = {1, 2, 4};
    double search_s[3] = {0.0, 0.0, 0.0};
    double rank_s[3] = {0.0, 0.0, 0.0};
    std::string digests[3];
    for (int k = 0; k < 3; ++k) {
      HicsParams threaded = params;
      threaded.num_threads = thread_counts[k];
      PreparedDataset prepared(data, thread_counts[k]);
      prepared.sorted_index();
      PipelineOutput out;
      {
        ScopedSpan span(trace, "core.search");
        span.Attr("threads", std::to_string(thread_counts[k]));
        Timer timer;
        Result<std::vector<ScoredSubspace>> found =
            RunHicsSearch(prepared, threaded, ctx);
        search_s[k] = timer.ElapsedSeconds();
        if (found.ok()) out.subspaces = std::move(found).ValueOrDie();
      }
      {
        ScopedSpan span(trace, "outlier.rank");
        span.Attr("threads", std::to_string(thread_counts[k]));
        Timer timer;
        out.scores = RankWithSubspacesDegraded(prepared, Plain(out.subspaces),
                                               lof, ScoreAggregation::kAverage,
                                               ctx, thread_counts[k])
                         .scores;
        rank_s[k] = timer.ElapsedSeconds();
      }
      digests[k] = out.DigestHex();
    }
    trace.SetCounter("common.parallel.search_speedup_2t",
                     search_s[0] / search_s[1]);
    trace.SetCounter("common.parallel.search_speedup_4t",
                     search_s[0] / search_s[2]);
    trace.SetCounter("common.parallel.rank_speedup_2t", rank_s[0] / rank_s[1]);
    trace.SetCounter("common.parallel.rank_speedup_4t", rank_s[0] / rank_s[2]);
    report.Check("pipeline.digest_threads_1_vs_4",
                 digests[0] == digests[2] && digests[0] == ref.DigestHex(),
                 digests[0] + " vs " + digests[2]);
  }
}

void RunPipeline(const Args& args, bool wide, Report& report,
                 TraceRecorder& trace) {
  const std::size_t n = wide ? (args.smoke ? 300 : 2000)
                             : (args.smoke ? 600 : 4000);
  const std::size_t d = wide ? (args.smoke ? 12 : 40) : (args.smoke ? 6 : 10);
  CsvOptions csv;
  csv.label_column = static_cast<int>(d);

  // Ops cycle over several inputs of one shape, drawn from the seed. How
  // deep the lattice goes, and which near-tied subspaces fill the top 100
  // (so how many need the brute-force kNN tier), is Monte Carlo luck per
  // dataset; cycling spreads that luck over the run instead of fixing it
  // per seed. Dataset 0 always repeats (warm-up and first op), which the
  // digest check needs.
  std::vector<std::string> paths(kPipelineDatasets);
  for (std::size_t j = 0; j < kPipelineDatasets; ++j) {
    paths[j] = args.out_dir + "/input_" + std::to_string(j) + ".csv";
    HICS_CHECK(WriteCsvFile(
                   Generate(n, d, 5, args.seed * kPipelineDatasets + j).data,
                   paths[j])
                   .ok());
  }

  // Set-up: what a user pays before an op — load and validate its input
  // file. It is measured before every op rather than in a burst up front:
  // contention on a shared host comes in stretches of seconds, and samples
  // spread over the whole run give a median that one stretch cannot move.
  std::vector<double> setup_s;
  std::vector<double> csv_s;
  const auto load = [&](std::size_t j) {
    Timer timer;
    Result<Dataset> loaded = ReadCsvFile(paths[j], csv);
    csv_s.push_back(timer.ElapsedSeconds());
    HICS_CHECK(loaded.ok());
    HICS_CHECK(loaded->Validate().ok());
    setup_s.push_back(timer.ElapsedSeconds());
    return std::move(loaded).ValueOrDie();
  };

  HicsParams params;
  params.num_threads = kThreads;
  params.seed = args.seed;
  const LofScorer lof(LofParams{.min_pts = kLofMinPts});

  // Warm-up op, then the byte-identity check against the monolithic
  // pipeline entry point (untimed).
  const Dataset warm_input = load(0);
  const PipelineOutput warm = PipelineOp(warm_input, params, lof, trace, 0);
  report.Check("pipeline.warmup_ok", warm.ok);
  {
    const PreparedDataset prepared(warm_input, kThreads);
    Result<PipelineResult> piped = RunHicsPipeline(prepared, params, lof);
    report.Check("pipeline.decomposed_equals_RunHicsPipeline",
                 piped.ok() && SameBytes(piped->scores, warm.scores) &&
                     SameSubspaces(piped->subspaces, warm.subspaces));
  }
  report.set_digest(warm.DigestHex());

  // First result per dataset: later reps must reproduce its digest, and
  // its scores give the dataset's AUC.
  std::vector<PipelineOutput> first(kPipelineDatasets);
  std::vector<std::vector<bool>> labels(kPipelineDatasets);
  first[0] = warm;
  labels[0] = warm_input.labels();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> evals;
  bool reps_identical = true;
  const std::size_t min_ops = kPipelineDatasets;
  Timer wall;
  for (std::uint64_t i = 1;; ++i) {
    const std::size_t j = (i - 1) % kPipelineDatasets;
    const Dataset input = load(j);
    const bool traced = args.trace && i % 2 == 0;
    trace.set_enabled(traced);
    Timer timer;
    PipelineOutput out = PipelineOp(input, params, lof, trace, i);
    const double ms = timer.ElapsedMillis();
    trace.set_enabled(false);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    report.Attempt(out.ok);
    evals.push_back(static_cast<double>(out.stats.contrast_evaluations));
    if (first[j].scores.empty()) {
      first[j] = std::move(out);
      labels[j] = input.labels();
    } else {
      reps_identical =
          reps_identical && out.DigestHex() == first[j].DigestHex();
    }
    if (wall.ElapsedSeconds() >= args.seconds && i >= min_ops) break;
  }
  report.E2e("setup_s", stats::Median(setup_s), setup_s.size());
  trace.SetCounter("common.csv_load_s", stats::Median(csv_s));
  report.Check("pipeline.digest_identical_across_reps", reps_identical);

  std::vector<double> aucs;
  for (std::size_t j = 0; j < kPipelineDatasets; ++j) {
    Result<double> auc = ComputeAuc(first[j].scores, labels[j]);
    if (auc.ok()) aucs.push_back(*auc);
  }
  report.Check("pipeline.auc_computed", aucs.size() == kPipelineDatasets);
  const double auc = stats::Median(aucs);
  const double floor = wide ? 0.85 : 0.99;
  if (!args.smoke) {
    report.Check("pipeline.auc_floor", auc >= floor,
                 std::to_string(auc) + " < " + std::to_string(floor));
  }

  if (!args.trace) {
    ReportLatencies(report, untraced_ms, 1e3 / stats::Mean(untraced_ms),
                    untraced_ms.size());
    report.E2e("auc", auc, aucs.size());
    return;
  }

  ReportTraceOverhead(trace, untraced_ms, traced_ms);
  trace.SetCounter("engine.prepare_s",
                   stats::Median(OpSpanMs(trace, "engine.prepare")) / 1e3);
  const double search_s = stats::Median(OpSpanMs(trace, "core.search")) / 1e3;
  trace.SetCounter("core.search_s", search_s);
  trace.SetCounter("outlier.rank_s",
                   stats::Median(OpSpanMs(trace, "outlier.rank")) / 1e3);
  const double median_evals = stats::Median(evals);
  trace.SetCounter("core.contrast_evals", median_evals);
  trace.SetCounter("core.slice_rows",
                   median_evals * static_cast<double>(params.num_iterations) *
                       static_cast<double>(n));
  trace.SetCounter("core.us_per_contrast_eval",
                   median_evals > 0.0 ? search_s * 1e6 / median_evals : 0.0);
  const double warm_evals =
      static_cast<double>(warm.stats.contrast_evaluations);
  trace.SetCounter("core.kept_ratio",
                   warm_evals > 0.0
                       ? static_cast<double>(warm.subspaces.size()) / warm_evals
                       : 0.0);
  ReportCacheStats(trace, {warm.cache});

  trace.set_enabled(true);
  PipelineProbes(warm_input, params, lof, warm, report, trace);
  SimdProbes(n, trace);
  trace.set_enabled(false);
}

// --- serve_lof -----------------------------------------------------------

/// What a run of closed-loop clients measured.
struct ClientRun {
  std::vector<double> untraced_ms;  ///< sampled query latencies
  std::vector<double> traced_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< calls that returned an error
  std::uint64_t mismatched = 0;  ///< answers that differ from `expected`
  double wall_s = 0.0;
};

/// Closed-loop clients: each sends its next one-row ScoreQueries call only
/// after the previous one returned. Client c owns queries c, c+C, c+2C, ...
/// (wrapping over the pool), and every answer is compared, bit for bit,
/// with `expected`, the serial batch's score of the same row. Every 8th
/// query's latency is kept: storing all of them made the process's peak
/// RSS grow with throughput. With `alternate_trace`, every other kept query
/// is traced.
ClientRun RunClients(const HicsModel& model, const std::vector<double>& rows,
                     const std::vector<double>& expected, std::size_t clients,
                     double seconds, std::size_t min_per_client,
                     bool alternate_trace, TraceRecorder& trace) {
  constexpr std::size_t kSampleEvery = 8;
  const std::size_t d = model.num_attributes();
  const std::size_t pool = expected.size();
  std::vector<ClientRun> runs(clients);
  const Timer wall;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientRun& run = runs[c];
        for (std::size_t k = 0;; ++k) {
          const std::size_t j = c + k * clients;
          const std::size_t q = j % pool;
          const bool sampled = k % kSampleEvery == 0;
          const bool traced =
              sampled && alternate_trace && k / kSampleEvery % 2 == 1;
          trace.set_enabled(traced);
          Timer timer;
          {
            ScopedSpan root(trace, "op", j + 1);
            ScopedSpan span(trace, "serve.score_queries");
            Result<std::vector<double>> scored = model.ScoreQueries(
                std::span<const double>(rows.data() + q * d, d), 1);
            ++run.attempted;
            if (!scored.ok() || scored->size() != 1) {
              ++run.failed;
            } else if (std::memcmp(&(*scored)[0], &expected[q],
                                   sizeof(double)) != 0) {
              ++run.mismatched;
            }
          }
          const double ms = timer.ElapsedMillis();
          trace.set_enabled(false);
          if (sampled) (traced ? run.traced_ms : run.untraced_ms).push_back(ms);
          if (k + 1 >= min_per_client && wall.ElapsedSeconds() >= seconds) {
            break;
          }
        }
      });
    }
  }
  ClientRun merged;
  merged.wall_s = wall.ElapsedSeconds();
  for (const ClientRun& run : runs) {
    merged.untraced_ms.insert(merged.untraced_ms.end(),
                              run.untraced_ms.begin(), run.untraced_ms.end());
    merged.traced_ms.insert(merged.traced_ms.end(), run.traced_ms.begin(),
                            run.traced_ms.end());
    merged.attempted += run.attempted;
    merged.failed += run.failed;
    merged.mismatched += run.mismatched;
  }
  return merged;
}

void RunServe(const Args& args, Report& report, TraceRecorder& trace) {
  // A small training set keeps the model (100 searchers and their LOF
  // state) near the size of one core's L2. On a model fit on 4000 rows,
  // which lives in the shared last-level cache, per-query latency moved by
  // up to 2.2x between runs with the load of other tenants of the host;
  // on this one, by up to 1.6x.
  const std::size_t n_train = args.smoke ? 100 : 500;
  const std::size_t n = n_train + (args.smoke ? 1000 : 9000);
  const std::size_t d = args.smoke ? 8 : 12;
  // Enough planted outliers that the held-out AUC is not decided by a
  // handful of points.
  const SyntheticDataset generated =
      Generate(n, d, args.smoke ? 20 : 60, args.seed);
  const Dataset train = RowRange(generated.data, 0, n_train);
  const Dataset held_out = RowRange(generated.data, n_train, n);

  // Untimed prep: fit, save, and write the query file. Subspaces are
  // capped at 3 dimensions so every seed's model has the same shape (100
  // subspaces of 2-3 dimensions) and per-query work does not depend on
  // which near-tied high-dimensional subspaces the search happened to keep.
  // The fit runs on one thread: spread over the pool, its allocations
  // landed in per-thread malloc arenas in a different pattern every run,
  // which moved the process's peak RSS by 10%. Per-query scoring does not
  // use the thread count.
  HicsModelConfig config;
  config.search_params.num_threads = 1;
  config.search_params.seed = args.seed;
  config.search_params.max_dimensionality = 3;
  config.scorer = ScorerSpec{ScorerKind::kLof, kLofMinPts};
  Result<HicsModel> fitted = HicsModel::Fit(train, config);
  HICS_CHECK(fitted.ok());
  const std::string model_path = args.out_dir + "/model.hics";
  const std::string queries_path = args.out_dir + "/queries.csv";
  HICS_CHECK(SaveHicsModel(*fitted, model_path).ok());
  HICS_CHECK(WriteCsvFile(held_out, queries_path).ok());

  // Set-up: load the model, read the queries, answer the first query
  // (which builds the per-subspace searchers lazily). Half the reps run
  // before the clients and half after, so that one stretch of host
  // contention cannot move the median (see the pipeline set-up).
  constexpr std::size_t kSetupReps = 11;
  CsvOptions csv;
  csv.label_column = static_cast<int>(d);
  std::vector<double> setup_s, load_s, csv_s, warm_s;
  const auto set_up = [&]() -> std::pair<HicsModel, Dataset> {
    Timer timer;
    Result<HicsModel> loaded = LoadHicsModel(model_path);
    load_s.push_back(timer.ElapsedSeconds());
    HICS_CHECK(loaded.ok());
    Timer csv_timer;
    Result<Dataset> read = ReadCsvFile(queries_path, csv);
    csv_s.push_back(csv_timer.ElapsedSeconds());
    HICS_CHECK(read.ok());
    std::vector<double> first(read->num_attributes());
    for (std::size_t a = 0; a < first.size(); ++a) first[a] = read->Get(0, a);
    Timer warm_timer;
    HICS_CHECK(loaded->ScoreQueries(first, 1).ok());
    warm_s.push_back(warm_timer.ElapsedSeconds());
    setup_s.push_back(timer.ElapsedSeconds());
    return {std::move(loaded).ValueOrDie(), std::move(read).ValueOrDie()};
  };
  const auto [model, queries] = set_up();
  while (setup_s.size() <= kSetupReps / 2) set_up();
  trace.SetCounter("serve.model_bytes",
                   static_cast<double>(std::filesystem::file_size(model_path)));

  const std::size_t pool = queries.num_objects();
  const std::vector<double> rows = RowMajor(queries);
  {
    const std::size_t m = std::min<std::size_t>(256, pool);
    const std::span<const double> head(rows.data(), m * d);
    Result<std::vector<double>> a = model.ScoreQueries(head, m);
    Result<std::vector<double>> b = fitted->ScoreQueries(head, m);
    report.Check("serve.loaded_equals_fitted_256",
                 a.ok() && b.ok() && SameBytes(*a, *b));
  }

  // Reference: one serial batch over the whole pool, which every
  // concurrent answer must equal (and the AUC input).
  Result<std::vector<double>> batch = model.ScoreQueries(rows, pool);
  report.Check("serve.batch_ok", batch.ok());
  if (!batch.ok()) return;
  Digest digest;
  digest.Add(*batch);
  report.set_digest(digest.Hex());
  Result<double> auc = ComputeAuc(*batch, queries.labels());
  report.Check("serve.auc_computed", auc.ok());

  const ClientRun run =
      RunClients(model, rows, *batch, kServeClients, args.seconds,
                 args.smoke ? 20 : 100, args.trace, trace);
  while (setup_s.size() < kSetupReps) set_up();
  report.E2e("setup_s", stats::Median(setup_s), setup_s.size());
  trace.SetCounter("serve.load_s", stats::Median(load_s));
  trace.SetCounter("serve.warm_s", stats::Median(warm_s));
  trace.SetCounter("common.csv_load_s", stats::Median(csv_s));
  report.Attempts(run.attempted, run.failed);
  report.Check("serve.concurrent_equals_serial_batch", run.mismatched == 0,
               std::to_string(run.mismatched) + " answers differ");

  if (!args.trace) {
    ReportLatencies(report, run.untraced_ms,
                    static_cast<double>(run.attempted) / run.wall_s,
                    run.attempted);
    report.E2e("auc", auc.ok() ? *auc : 0.0, 1);
    return;
  }

  ReportTraceOverhead(trace, run.untraced_ms, run.traced_ms);
  // Waiting: the same queries from one client, with nothing to contend
  // with.
  const ClientRun single =
      RunClients(model, rows, *batch, 1, args.seconds / 3.0,
                 args.smoke ? 20 : 100, false, trace);
  report.Check("serve.single_client_equals_serial_batch",
               single.failed == 0 && single.mismatched == 0);
  const double single_p50 = stats::Median(single.untraced_ms);
  trace.SetCounter("serve.query_us_p50_1client", 1e3 * single_p50);
  trace.SetCounter(
      "serve.contention_ratio",
      single_p50 > 0.0 ? stats::Median(run.untraced_ms) / single_p50 : 0.0);

  // index: per-point kNN as the model runs it, one (query, subspace)
  // pair at a time.
  trace.set_enabled(true);
  {
    ScopedSpan probe(trace, "probe.point_knn");
    const Dataset& training = model.training_data();
    std::vector<std::unique_ptr<NeighborSearcher>> searchers;
    {
      ScopedSpan span(trace, "index.knn_build");
      for (const TrainedSubspace& t : model.subspaces()) {
        searchers.push_back(MakeSearcher(
            training, t.subspace,
            ChooseKnnBackend(training.num_objects(), t.subspace.size())));
      }
    }
    ScopedSpan span(trace, "index.query_knn_point");
    const std::size_t probe_queries = std::min<std::size_t>(pool, 500);
    std::vector<double> us;
    std::vector<double> projected;
    std::vector<Neighbor> neighbors;
    for (std::size_t q = 0; q < probe_queries; ++q) {
      for (std::size_t s = 0; s < searchers.size(); ++s) {
        projected.clear();
        for (std::size_t dim : model.subspaces()[s].subspace) {
          projected.push_back(rows[q * d + dim]);
        }
        Timer timer;
        searchers[s]->QueryKnnPoint(projected, kLofMinPts, &neighbors);
        us.push_back(timer.ElapsedSeconds() * 1e6);
      }
    }
    trace.SetCounter("index.point_knn_us_p50", stats::Median(us));
    trace.SetCounter("index.point_knn_us_p99", stats::Quantile(us, 0.99));
  }
  SimdProbes(n_train, trace);
  trace.set_enabled(false);
}

// --- stream_grid ---------------------------------------------------------

/// bench_streaming's population — two clustered attribute pairs the search
/// can find, uniform noise elsewhere — plus planted non-trivial outliers:
/// one coordinate of each clustered pair moved to the other cluster, so
/// the point sits in an empty cell of both pairs while every marginal
/// stays dense.
class StreamSource {
 public:
  StreamSource(std::uint64_t seed, std::size_t d) : rng_(seed), d_(d) {}

  std::vector<std::vector<double>> Rows(std::size_t n,
                                        std::vector<bool>* labels) {
    std::vector<std::vector<double>> rows(n, std::vector<double>(d_));
    for (auto& row : rows) {
      const double c0 = rng_.Bernoulli(0.5) ? 0.25 : 0.75;
      const double c1 = rng_.Bernoulli(0.5) ? 0.3 : 0.7;
      for (std::size_t a = 0; a < d_; ++a) {
        if (a < 2) {
          row[a] = c0 + rng_.Gaussian(0.0, 0.04);
        } else if (a < 4) {
          row[a] = c1 + rng_.Gaussian(0.0, 0.05);
        } else {
          row[a] = rng_.UniformDouble();
        }
      }
      const bool outlier = rng_.Bernoulli(kOutlierRate);
      if (outlier) {
        row[1] = 1.0 - c0 + rng_.Gaussian(0.0, 0.04);
        row[3] = 1.0 - c1 + rng_.Gaussian(0.0, 0.05);
      }
      labels->push_back(outlier);
    }
    return rows;
  }

 private:
  static constexpr double kOutlierRate = 0.005;
  Rng rng_;
  std::size_t d_;
};

std::size_t CachedGrids(const StreamingDataset& streaming) {
  std::size_t grids = streaming.prepared().cache().num_grids();
  for (std::size_t s = 0; s < streaming.num_shards(); ++s) {
    grids += streaming.shard(s).cache().num_grids();
  }
  return grids;
}

void RunStream(const Args& args, Report& report, TraceRecorder& trace) {
  const std::size_t d = 6;
  const std::size_t window = args.smoke ? 3200 : 32000;
  // A slot survives a slide only if its rows are unchanged, so the slide
  // retires exactly one shard's worth of rows: 7 of 8 slots keep their
  // prepared artifacts and cached grids. A slide shorter than a shard
  // would shift every slot boundary and rebuild all of them.
  const std::size_t shards = 8;
  const std::size_t slide = window / shards;
  const std::size_t check_every = 100;
  StreamingOptions options;
  options.capacity = window;
  options.num_shards = shards;
  options.build_threads = kThreads;
  report.set_num_shards(shards);

  StreamSource source(args.seed, d);
  std::deque<bool> labels;
  std::vector<bool> initial_labels;
  const auto initial = source.Rows(window, &initial_labels);
  labels.assign(initial_labels.begin(), initial_labels.end());

  // Set-up: admitting the first full window into a fresh dataset. Repeated
  // every kSetupEvery steps, so that the samples span the run (see the
  // pipeline set-up).
  constexpr std::uint64_t kSetupEvery = 50;
  std::vector<double> setup_s;
  const auto admit_window = [&] {
    auto fresh = std::make_unique<StreamingDataset>(d, options);
    Timer timer;
    const bool ok = fresh->Admit(initial).ok();
    setup_s.push_back(timer.ElapsedSeconds());
    HICS_CHECK(ok);
    return fresh;
  };
  const std::unique_ptr<StreamingDataset> streaming = admit_window();

  HicsParams search;
  search.num_iterations = 30;
  search.output_top_k = 8;
  search.max_dimensionality = 3;
  search.num_threads = kThreads;
  search.seed = args.seed;
  const GridDensityScorer grid(
      {.bins_per_dim = 32, .smooth = true, .num_threads = kThreads});
  const RunContext ctx;

  struct StepOutput {
    bool ok = false;
    std::vector<ScoredSubspace> found;
    std::vector<double> scores;
  };
  // Grid carry: cached grids that survive a slide over those present
  // before it, counted in traced runs only (both op kinds, so the count
  // does not bias trace.overhead_pct).
  std::size_t grids_before = 0;
  std::size_t grids_after = 0;
  const auto step = [&](std::uint64_t op,
                        const std::vector<std::vector<double>>& rows) {
    ScopedSpan root(trace, "op", op);
    StepOutput out;
    if (args.trace) grids_before += CachedGrids(*streaming);
    {
      ScopedSpan span(trace, "engine.slide");
      if (!streaming->Slide(slide, rows, &ctx).ok()) return out;
    }
    if (args.trace) grids_after += CachedGrids(*streaming);
    {
      ScopedSpan span(trace, "core.search");
      Result<std::vector<ScoredSubspace>> found =
          RunHicsSearch(*streaming, search, ctx);
      if (!found.ok()) return out;
      out.found = std::move(found).ValueOrDie();
    }
    {
      ScopedSpan span(trace, "outlier.rank");
      Result<std::vector<double>> ranked = RankWithSubspaces(
          *streaming, out.found, grid, ScoreAggregation::kAverage,
          ShardedScoringPolicy::kRequireExactMerge, kThreads);
      if (!ranked.ok()) return out;
      out.scores = std::move(ranked).ValueOrDie();
    }
    out.ok = true;
    return out;
  };
  const auto next_rows = [&] {
    std::vector<bool> fresh;
    auto rows = source.Rows(slide, &fresh);
    for (std::size_t i = 0; i < slide; ++i) labels.pop_front();
    labels.insert(labels.end(), fresh.begin(), fresh.end());
    return rows;
  };

  report.Check("stream.warmup_ok", step(0, next_rows()).ok);

  std::vector<double> untraced_ms, traced_ms, aucs, grid_build_ms;
  bool identical = true;
  bool auc_ok = true;
  const std::size_t min_steps = 10;
  Timer wall;
  for (std::uint64_t i = 1;; ++i) {
    if (i % kSetupEvery == 0) admit_window();
    const auto rows = next_rows();
    const bool traced = args.trace && i % 2 == 0;
    trace.set_enabled(traced);
    Timer timer;
    const StepOutput out = step(i, rows);
    const double ms = timer.ElapsedMillis();
    trace.set_enabled(false);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    report.Attempt(out.ok);

    if (out.ok && (i == 1 || i % check_every == 0)) {
      // Untimed: a cold ShardedDataset over the identical window must
      // give the same subspaces and scores byte for byte.
      const Dataset snapshot = streaming->window();
      const ShardedDataset cold(snapshot, options.num_shards, kThreads);
      Result<std::vector<ScoredSubspace>> cold_found =
          RunHicsSearch(cold, search, ctx);
      Result<std::vector<double>> cold_ranked =
          cold_found.ok()
              ? RankWithSubspacesSharded(
                    cold, *cold_found, grid, ScoreAggregation::kAverage,
                    ShardedScoringPolicy::kRequireExactMerge, kThreads)
              : Result<std::vector<double>>(cold_found.status());
      identical = identical && cold_found.ok() && cold_ranked.ok() &&
                  SameSubspaces(*cold_found, out.found) &&
                  SameBytes(*cold_ranked, out.scores);
      const std::vector<bool> window_labels(labels.begin(), labels.end());
      Result<double> auc = ComputeAuc(out.scores, window_labels);
      auc_ok = auc_ok && auc.ok();
      if (auc.ok()) aucs.push_back(*auc);
      if (i == 1) {
        Digest digest;
        digest.Add(out.found);
        digest.Add(out.scores);
        report.set_digest(digest.Hex());
      }
      if (args.trace) {
        // cluster: what a cold grid build of the selected subspaces costs
        // on this window (the work the grid carry and shard caches save).
        trace.set_enabled(true);
        ScopedSpan probe(trace, "probe.grid_build");
        Timer grid_timer;
        for (const ScoredSubspace& s : out.found) {
          ScopedSpan span(trace, "cluster.grid_build");
          const SubspaceGrid built(snapshot, s.subspace,
                                   GridOptions{.bins_per_dim = 32,
                                               .num_threads = kThreads});
          KeepAlive(built.num_nonempty_cells());
        }
        grid_build_ms.push_back(grid_timer.ElapsedMillis());
        trace.set_enabled(false);
      }
    }
    if (wall.ElapsedSeconds() >= args.seconds && i >= min_steps) break;
  }
  report.E2e("setup_s", stats::Median(setup_s), setup_s.size());
  report.Check("stream.equals_cold_rebuild", identical);
  report.Check("stream.auc_computed", auc_ok && !aucs.empty());

  if (!args.trace) {
    ReportLatencies(report, untraced_ms, 1e3 / stats::Mean(untraced_ms),
                    untraced_ms.size());
    report.E2e("auc", stats::Median(aucs), aucs.size());
    return;
  }

  ReportTraceOverhead(trace, untraced_ms, traced_ms);
  const std::vector<double> slide_ms = OpSpanMs(trace, "engine.slide");
  trace.SetCounter("engine.slide_ms_p50", stats::Median(slide_ms));
  trace.SetCounter("engine.slide_ms_p99", stats::Quantile(slide_ms, 0.99));
  trace.SetCounter("core.stream_search_ms_p50",
                   stats::Median(OpSpanMs(trace, "core.search")));
  trace.SetCounter("outlier.stream_rank_ms_p50",
                   stats::Median(OpSpanMs(trace, "outlier.rank")));
  trace.SetCounter("cluster.grid_build_ms", stats::Median(grid_build_ms));
  trace.SetCounter("engine.grid_carry_ratio",
                   grids_before > 0 ? static_cast<double>(grids_after) /
                                          static_cast<double>(grids_before)
                                    : 0.0);
  std::vector<ArtifactCacheStats> caches = {streaming->window_cache_stats()};
  for (std::size_t s = 0; s < streaming->num_shards(); ++s) {
    caches.push_back(streaming->shard_cache_stats(s));
  }
  ReportCacheStats(trace, caches);
  trace.set_enabled(true);
  SimdProbes(window / options.num_shards, trace);
  trace.set_enabled(false);
}

// --- main ------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out DIR]\n");
    return 2;
  }
  TraceRecorder trace;
  Report report;
  if (args.workload == "pipeline_wide" || args.workload == "pipeline_tall") {
    RunPipeline(args, args.workload == "pipeline_wide", report, trace);
  } else if (args.workload == "serve_lof") {
    RunServe(args, report, trace);
  } else if (args.workload == "stream_grid") {
    RunStream(args, report, trace);
  } else {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!args.trace) report.E2e("peak_rss_mb", PeakRssMb(), 1);

  bool written = true;
  const auto write = [&](const std::string& name, const std::string& text) {
    std::FILE* f = std::fopen((args.out_dir + "/" + name).c_str(), "w");
    if (f == nullptr) {
      written = false;
      return;
    }
    std::fputs(text.c_str(), f);
    std::fputc('\n', f);
    written = std::fclose(f) == 0 && written;
  };
  if (args.trace) {
    write("trace_" + args.workload + ".json", trace.ChromeTraceJson());
    write("counters_" + args.workload + ".json", trace.CountersJson());
  }
  write("result.json", report.ToJson(args, trace));
  if (!written) {
    std::fprintf(stderr, "bench_e2e: cannot write results to %s\n",
                 args.out_dir.c_str());
    return 2;
  }
  return report.correct() && report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hics::bench

int main(int argc, char** argv) { return hics::bench::Main(argc, argv); }
