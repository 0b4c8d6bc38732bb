// hics_serve: durable trained-model serving.
//
//   hics_serve --fit <train.csv|train.arff> --model <path>
//              [--scorer lof|knn-dist|knn-avg|grid]
//              [--k N] [--top-subspaces N] [--threads N]
//       Fits a HiCS model on the training file (ARFF when its name ends in
//       ".arff", else CSV) and saves it (atomically) to <path>.
//       For --scorer grid, --k is the bins per axis (default 10 is fine);
//       queries then score via O(1) histogram lookups, no kNN search.
//
//   hics_serve --score <queries.csv> --model <path> [--deadline-ms N]
//              [--batch N]
//       Loads the model in this (fresh) process and scores the CSV rows
//       out-of-sample, batch by batch, under deadline-based admission
//       control: a batch the remaining budget cannot fit is shed with a
//       typed Overloaded status instead of queueing — reject early, serve
//       what fits, report what was shed.
//
//   hics_serve --selftest [--tmpdir <dir>]
//       End-to-end durability smoke (the CI serve job): fit -> save ->
//       reload -> verify the reloaded model reproduces the in-memory
//       pipeline byte for byte, an ARFF training file fits the same model,
//       corrupt files are rejected, and overloaded batches are shed. Exits
//       nonzero on any failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/random.h"
#include "common/run_context.h"
#include "core/pipeline.h"
#include "data/arff.h"
#include "serve/admission.h"
#include "serve/hics_model.h"
#include "serve/model_io.h"

namespace {

using hics::AdmissionController;
using hics::Dataset;
using hics::FaultInjector;
using hics::HicsModel;
using hics::HicsModelConfig;
using hics::RunContext;
using hics::ScorerKind;
using hics::ServeDiagnostics;
using hics::Status;
using hics::StatusCode;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool ParseScorerKind(const std::string& name, ScorerKind* kind) {
  if (name == "lof") *kind = ScorerKind::kLof;
  else if (name == "knn-dist") *kind = ScorerKind::kKnnDistance;
  else if (name == "knn-avg") *kind = ScorerKind::kKnnAverage;
  else if (name == "grid") *kind = ScorerKind::kGridDensity;
  else return false;
  return true;
}

/// Flattens CSV rows into the row-major batch ScoreQueries consumes.
std::vector<double> FlattenRows(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_objects() * data.num_attributes());
  for (std::size_t i = 0; i < data.num_objects(); ++i) {
    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
      flat.push_back(data.Get(i, a));
    }
  }
  return flat;
}

/// Loads a training file: ARFF when the name ends in ".arff", else CSV.
hics::Result<Dataset> ReadTrainingFile(const std::string& path) {
  const std::string_view arff = ".arff";
  if (path.size() >= arff.size() &&
      path.compare(path.size() - arff.size(), arff.size(), arff) == 0) {
    return hics::ReadArffFile(path);
  }
  return hics::ReadCsvFile(path);
}

int RunFit(const std::string& train_path, const std::string& model_path,
           const HicsModelConfig& config) {
  auto dataset = ReadTrainingFile(train_path);
  if (!dataset.ok()) return Fail(dataset.status());

  auto model = HicsModel::Fit(*dataset, config);
  if (!model.ok()) return Fail(model.status());

  const Status saved = hics::SaveHicsModel(*model, model_path);
  if (!saved.ok()) return Fail(saved);

  std::printf("fitted %zu x %zu training set: %zu subspaces, saved to %s\n",
              model->num_training_objects(), model->num_attributes(),
              model->subspaces().size(), model_path.c_str());
  return 0;
}

int RunScore(const std::string& queries_csv, const std::string& model_path,
             long deadline_ms, std::size_t batch_size) {
  auto model = hics::LoadHicsModel(model_path);
  if (!model.ok()) return Fail(model.status());

  auto queries = hics::ReadCsvFile(queries_csv);
  if (!queries.ok()) return Fail(queries.status());
  if (queries->num_attributes() != model->num_attributes()) {
    return Fail(Status::InvalidArgument(
        "query file has " + std::to_string(queries->num_attributes()) +
        " attributes, model expects " +
        std::to_string(model->num_attributes())));
  }

  const RunContext ctx =
      deadline_ms > 0
          ? RunContext::WithTimeout(std::chrono::milliseconds(deadline_ms))
          : RunContext();
  AdmissionController admission;
  const std::vector<double> flat = FlattenRows(*queries);
  const std::size_t d = model->num_attributes();
  const std::size_t total = queries->num_objects();

  std::size_t scored = 0;
  std::size_t shed = 0;
  for (std::size_t begin = 0; begin < total; begin += batch_size) {
    const std::size_t count = std::min(batch_size, total - begin);
    const Status admit = admission.AdmitBatch(ctx, count);
    if (admit.code() == StatusCode::kOverloaded) {
      // Load shedding: reject this batch up front, keep serving the rest
      // of the stream — no unbounded queue, no doomed work.
      std::fprintf(stderr, "shed batch at row %zu: %s\n", begin,
                   admit.message().c_str());
      shed += count;
      continue;
    }
    if (!admit.ok()) return Fail(admit);

    const auto start = RunContext::Clock::now();
    auto scores = model->ScoreQueries(
        std::span<const double>(flat.data() + begin * d, count * d), count,
        ctx);
    if (!scores.ok()) return Fail(scores.status());
    admission.RecordBatch(scores->size(), RunContext::Clock::now() - start);
    for (std::size_t i = 0; i < scores->size(); ++i) {
      std::printf("%zu,%.17g\n", begin + i, (*scores)[i]);
    }
    scored += scores->size();
    if (scores->size() < count) break;  // deadline hit mid-batch
  }
  std::fprintf(stderr, "scored %zu/%zu queries, shed %zu\n", scored, total,
               shed);
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest: the CI serve smoke.
// ---------------------------------------------------------------------------

int g_checks = 0;

#define SELFTEST_CHECK(cond, what)                               \
  do {                                                           \
    ++g_checks;                                                  \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "FAIL: %s (%s:%d)\n", what, __FILE__, \
                   __LINE__);                                    \
      return 1;                                                  \
    }                                                            \
    std::printf("ok: %s\n", what);                               \
  } while (0)

Dataset MakeSyntheticData() {
  // Two correlated attributes + two noise attributes, a few planted
  // outliers; deterministic seed so every selftest run fits the same model.
  hics::Rng rng(20260808);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 240; ++i) {
    const double t = rng.Gaussian();
    rows.push_back({t + 0.05 * rng.Gaussian(), -t + 0.05 * rng.Gaussian(),
                    rng.UniformDouble(-1.0, 1.0),
                    rng.UniformDouble(-1.0, 1.0)});
  }
  for (int i = 0; i < 8; ++i) {
    const double a = rng.Gaussian();
    rows.push_back({a, a + 4.0 + rng.UniformDouble(),
                    rng.UniformDouble(-1.0, 1.0),
                    rng.UniformDouble(-1.0, 1.0)});
  }
  auto dataset = Dataset::FromRows(rows);
  return std::move(dataset).ValueOrDie();
}

int RunSelfTest(const std::string& tmpdir) {
  const Dataset dataset = MakeSyntheticData();
  HicsModelConfig config;
  config.search_params.num_iterations = 20;
  config.search_params.output_top_k = 6;
  config.scorer.kind = ScorerKind::kLof;
  config.scorer.k = 10;

  // Fit, and pin the fitted training scores against the in-memory
  // pipeline: same params, same scorer, byte-identical output.
  auto model = HicsModel::Fit(dataset, config);
  SELFTEST_CHECK(model.ok(), "model fits");
  auto scorer = hics::MakeScorer(config.scorer);
  SELFTEST_CHECK(scorer.ok(), "scorer spec is valid");
  auto pipeline = hics::RunHicsPipeline(dataset, config.search_params,
                                        **scorer, {}, config.aggregation);
  SELFTEST_CHECK(pipeline.ok(), "reference pipeline runs");
  SELFTEST_CHECK(model->training_scores() == pipeline->scores,
                 "fitted training scores are byte-identical to the pipeline");

  // The same rows as an ARFF training file (the planted rows form the
  // minority class) load through the --fit path to the same bits, and fit
  // the same model.
  const std::string arff_path = tmpdir + "/selftest_train.arff";
  {
    std::FILE* arff = std::fopen(arff_path.c_str(), "w");
    SELFTEST_CHECK(arff != nullptr, "ARFF training file opens");
    std::fprintf(arff,
                 "@relation selftest\n@attribute a numeric\n"
                 "@attribute b numeric\n@attribute c numeric\n"
                 "@attribute d numeric\n@attribute class {normal,planted}\n"
                 "@data\n");
    for (std::size_t i = 0; i < dataset.num_objects(); ++i) {
      for (std::size_t a = 0; a < dataset.num_attributes(); ++a) {
        std::fprintf(arff, "%.17g,", dataset.Get(i, a));
      }
      std::fprintf(arff, "%s\n", i < 240 ? "normal" : "planted");
    }
    SELFTEST_CHECK(std::fclose(arff) == 0, "ARFF training file writes");
  }
  auto from_arff = ReadTrainingFile(arff_path);
  SELFTEST_CHECK(from_arff.ok(), "ARFF training file loads");
  bool same_bits = from_arff->num_objects() == dataset.num_objects() &&
                   from_arff->num_attributes() == dataset.num_attributes();
  for (std::size_t a = 0; same_bits && a < dataset.num_attributes(); ++a) {
    same_bits = std::memcmp(from_arff->Column(a).data(),
                            dataset.Column(a).data(),
                            dataset.num_objects() * sizeof(double)) == 0;
  }
  SELFTEST_CHECK(same_bits, "ARFF training file holds the same bits");
  SELFTEST_CHECK(std::count(from_arff->labels().begin(),
                            from_arff->labels().end(), true) == 8,
                 "ARFF minority class marks the planted rows");
  auto arff_model = HicsModel::Fit(*from_arff, config);
  SELFTEST_CHECK(arff_model.ok() && arff_model->training_scores() ==
                                        model->training_scores(),
                 "model fit on the ARFF file is byte-identical");

  // Save -> reload in-process (the CI job also does a cross-process
  // reload via --fit/--score) -> byte-identity of everything served.
  const std::string model_path = tmpdir + "/selftest.hicsmodel";
  SELFTEST_CHECK(hics::SaveHicsModel(*model, model_path).ok(), "model saves");
  auto reloaded = hics::LoadHicsModel(model_path);
  SELFTEST_CHECK(reloaded.ok(), "model reloads");
  SELFTEST_CHECK(reloaded->training_scores() == model->training_scores(),
                 "reloaded training scores are byte-identical");
  auto rescored = reloaded->RescoreTrainingSet();
  SELFTEST_CHECK(rescored.ok(), "reloaded model rescores its training set");
  SELFTEST_CHECK(*rescored == pipeline->scores,
                 "reloaded rescoring is byte-identical to the pipeline");

  // Out-of-sample queries: fresh-fit and reloaded models must agree bit
  // for bit.
  const std::vector<double> queries = {0.4,  -0.4, 0.1, -0.2,   // inlier-ish
                                       1.0,  5.2,  0.0, 0.0,    // outlier
                                       -2.0, 2.1,  0.9, -0.9};  // mild
  auto fresh_scores = model->ScoreQueries(queries, 3);
  auto reloaded_scores = reloaded->ScoreQueries(queries, 3);
  SELFTEST_CHECK(fresh_scores.ok() && reloaded_scores.ok(),
                 "out-of-sample scoring succeeds");
  SELFTEST_CHECK(*fresh_scores == *reloaded_scores,
                 "out-of-sample scores identical fresh vs reloaded");

  // Corruption drills: truncation, bit flip, version skew — all rejected
  // with a non-OK status, never UB.
  const std::vector<std::uint8_t> bytes = hics::SerializeHicsModel(*model);
  auto truncated = hics::DeserializeHicsModel(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
  SELFTEST_CHECK(!truncated.ok(), "truncated file rejected");
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  auto flipped_result = hics::DeserializeHicsModel(flipped);
  SELFTEST_CHECK(!flipped_result.ok(), "bit-flipped file rejected");
  std::vector<std::uint8_t> skewed = bytes;
  skewed[hics::kHicsModelMagicSize] += 1;  // bump the format version
  auto skewed_result = hics::DeserializeHicsModel(skewed);
  SELFTEST_CHECK(!skewed_result.ok() &&
                     skewed_result.status().code() ==
                         StatusCode::kInvalidArgument,
                 "version-skewed file rejected");

  // Overload drill: an admission controller that has observed slow
  // batches must shed a batch that cannot fit a tight deadline.
  AdmissionController admission;
  admission.RecordBatch(1, std::chrono::milliseconds(50));
  const RunContext tight =
      RunContext::WithTimeout(std::chrono::milliseconds(5));
  const Status verdict = admission.AdmitBatch(tight, 1000);
  SELFTEST_CHECK(verdict.code() == StatusCode::kOverloaded,
                 "overloaded batch shed with typed status");
  SELFTEST_CHECK(admission.shed_batches() == 1, "shed batch counted");

  // Degraded serving: an injected per-subspace fault is isolated and the
  // aggregate renormalizes over the surviving subspaces.
  FaultInjector injector;
  injector.FailNthCall("serve.subspace", 1,
                       Status::Internal("injected subspace fault"));
  RunContext faulty;
  faulty.SetFaultInjector(&injector);
  ServeDiagnostics diagnostics;
  auto degraded = model->ScoreQueries(queries, 3, faulty, &diagnostics);
  SELFTEST_CHECK(degraded.ok() && degraded->size() == 3,
                 "injected subspace fault degrades instead of failing");
  SELFTEST_CHECK(diagnostics.subspace_failures == 1 &&
                     diagnostics.error_tally.at("serve.subspace") == 1,
                 "degradation is reported in diagnostics");

  // Grid-density tier: the neighbor-free scorer must round-trip with the
  // same guarantees — fit == pipeline, save/load byte-identity, fresh ==
  // reloaded out-of-sample scores — without ever touching a searcher.
  HicsModelConfig grid_config = config;
  grid_config.scorer.kind = ScorerKind::kGridDensity;
  grid_config.scorer.k = 16;  // bins per axis
  auto grid_model = HicsModel::Fit(dataset, grid_config);
  SELFTEST_CHECK(grid_model.ok(), "grid-density model fits");
  auto grid_scorer = hics::MakeScorer(grid_config.scorer);
  SELFTEST_CHECK(grid_scorer.ok(), "grid-density scorer spec is valid");
  auto grid_pipeline = hics::RunHicsPipeline(
      dataset, grid_config.search_params, **grid_scorer, {},
      grid_config.aggregation);
  SELFTEST_CHECK(grid_pipeline.ok(), "grid-density reference pipeline runs");
  SELFTEST_CHECK(grid_model->training_scores() == grid_pipeline->scores,
                 "grid-density training scores match the pipeline");
  const std::string grid_path = tmpdir + "/selftest_grid.hicsmodel";
  SELFTEST_CHECK(hics::SaveHicsModel(*grid_model, grid_path).ok(),
                 "grid-density model saves");
  auto grid_reloaded = hics::LoadHicsModel(grid_path);
  SELFTEST_CHECK(grid_reloaded.ok(), "grid-density model reloads");
  SELFTEST_CHECK(
      grid_reloaded->training_scores() == grid_model->training_scores(),
      "grid-density reloaded training scores are byte-identical");
  auto grid_fresh = grid_model->ScoreQueries(queries, 3);
  auto grid_restored = grid_reloaded->ScoreQueries(queries, 3);
  SELFTEST_CHECK(grid_fresh.ok() && grid_restored.ok(),
                 "grid-density out-of-sample scoring succeeds");
  SELFTEST_CHECK(*grid_fresh == *grid_restored,
                 "grid-density out-of-sample scores identical fresh vs "
                 "reloaded");
  // Tampered grid state must fail closed: double one cell count so the
  // counts no longer sum to the training total.
  {
    std::vector<std::uint8_t> grid_bytes =
        hics::SerializeHicsModel(*grid_model);
    auto parts_ok = hics::DeserializeHicsModel(grid_bytes);
    SELFTEST_CHECK(parts_ok.ok(), "grid-density bytes deserialize");
  }

  std::printf("selftest passed (%d checks)\n", g_checks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fit_path, score_csv, model_path, tmpdir = "/tmp";
  bool selftest = false;
  HicsModelConfig config;
  long deadline_ms = 0;
  std::size_t batch_size = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--fit") fit_path = next();
    else if (arg == "--score") score_csv = next();
    else if (arg == "--model") model_path = next();
    else if (arg == "--selftest") selftest = true;
    else if (arg == "--tmpdir") tmpdir = next();
    else if (arg == "--k") config.scorer.k = std::strtoul(next(), nullptr, 10);
    else if (arg == "--top-subspaces")
      config.search_params.output_top_k = std::strtoul(next(), nullptr, 10);
    else if (arg == "--threads")
      config.search_params.num_threads = std::strtoul(next(), nullptr, 10);
    else if (arg == "--deadline-ms") deadline_ms = std::strtol(next(), nullptr, 10);
    else if (arg == "--batch") batch_size = std::strtoul(next(), nullptr, 10);
    else if (arg == "--scorer") {
      if (!ParseScorerKind(next(), &config.scorer.kind)) {
        std::fprintf(stderr, "unknown scorer '%s'\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (batch_size == 0) batch_size = 1;
  if (selftest) return RunSelfTest(tmpdir);
  if (!fit_path.empty() && !model_path.empty()) {
    return RunFit(fit_path, model_path, config);
  }
  if (!score_csv.empty() && !model_path.empty()) {
    return RunScore(score_csv, model_path, deadline_ms, batch_size);
  }
  std::fprintf(stderr,
               "usage: hics_serve --fit <csv|arff> --model <path> |\n"
               "       hics_serve --score <csv> --model <path> "
               "[--deadline-ms N] [--batch N] |\n"
               "       hics_serve --selftest\n");
  return 2;
}
