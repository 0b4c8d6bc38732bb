#include "serve/hics_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/sharded_dataset.h"
#include "outlier/grid_density.h"
#include "outlier/knn_outlier.h"
#include "outlier/lof.h"

namespace hics {

Result<std::unique_ptr<OutlierScorer>> MakeScorer(const ScorerSpec& spec) {
  if (spec.k == 0) {
    return Status::InvalidArgument(
        "scorer parameter k must be positive (neighborhood size; bins "
        "per axis for grid-density)");
  }
  switch (spec.kind) {
    case ScorerKind::kLof: {
      LofParams params;
      params.min_pts = spec.k;
      return std::unique_ptr<OutlierScorer>(
          std::make_unique<LofScorer>(params));
    }
    case ScorerKind::kKnnDistance:
      return std::unique_ptr<OutlierScorer>(
          std::make_unique<KnnDistanceScorer>(spec.k));
    case ScorerKind::kKnnAverage:
      return std::unique_ptr<OutlierScorer>(
          std::make_unique<KnnAverageScorer>(spec.k));
    case ScorerKind::kGridDensity: {
      GridDensityParams params;
      params.bins_per_dim = spec.k;
      return std::unique_ptr<OutlierScorer>(
          std::make_unique<GridDensityScorer>(params));
    }
  }
  return Status::InvalidArgument(
      "unknown scorer kind " +
      std::to_string(static_cast<std::uint32_t>(spec.kind)) +
      " (corrupt model file or newer format?)");
}

namespace {

/// The scorer-state channel count each kind serializes; pinned here so a
/// tampered file cannot smuggle a mismatched state past FromParts.
std::size_t ExpectedStateChannels(ScorerKind kind) {
  switch (kind) {
    case ScorerKind::kLof:
      return 2;
    case ScorerKind::kGridDensity:
      return GridDensityScorer::kStateChannels;
    default:
      return 0;
  }
}

}  // namespace

HicsModel::HicsModel(HicsModelConfig config, Dataset training_data,
                     std::vector<TrainedSubspace> subspaces,
                     std::vector<double> training_scores)
    : config_(std::move(config)),
      training_data_(std::move(training_data)),
      subspaces_(std::move(subspaces)),
      training_scores_(std::move(training_scores)),
      runtime_(std::make_unique<Runtime>()) {
  auto scorer = MakeScorer(config_.scorer);
  HICS_CHECK(scorer.ok());  // callers validated the spec already
  scorer_ = std::move(scorer).ValueOrDie();
}

std::size_t HicsModel::EffectiveK() const {
  return ClampNeighborhoodSize(scorer_->NeighborhoodSize(),
                               num_training_objects(), "serve");
}

Result<HicsModel> HicsModel::Fit(const Dataset& dataset,
                                 const HicsModelConfig& config) {
  HICS_RETURN_NOT_OK(config.search_params.Validate());
  if (config.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  // Serving needs at least one real neighborhood; Validate also rejects
  // non-finite cells, which would otherwise round-trip through the model
  // file and poison queries forever.
  HICS_RETURN_NOT_OK(dataset.Validate(/*require_non_constant=*/false));
  HICS_ASSIGN_OR_RETURN(std::unique_ptr<OutlierScorer> scorer,
                        MakeScorer(config.scorer));
  if (!scorer->SupportsOutOfSample()) {
    return Status::InvalidArgument("scorer '" + scorer->name() +
                                   "' does not support out-of-sample "
                                   "scoring and cannot be served");
  }

  const std::size_t n = dataset.num_objects();
  const std::size_t threads = config.search_params.num_threads;
  PreparedDataset prepared(dataset, threads);

  // Step 1: subspace search. Unsharded fits search the prepared plane,
  // the call the pipeline makes, so the selected subspaces are identical
  // to RunHicsPipeline's. Sharded fits select through the sharded search —
  // the fast path on large N — and only the selection differs: step 2
  // below always runs on the full prepared dataset, so training scores,
  // trained state, and serving stay byte-reproducible.
  std::unique_ptr<const ShardedDataset> sharded;
  if (config.num_shards > 1) {
    sharded = std::make_unique<const ShardedDataset>(
        dataset, config.num_shards, threads);
  }
  const ShardPlane& plane =
      sharded != nullptr ? static_cast<const ShardPlane&>(*sharded) : prepared;
  HICS_ASSIGN_OR_RETURN(std::vector<ScoredSubspace> scored,
                        RunHicsSearch(plane, config.search_params));
  sharded.reset();  // the shard copies serve the selection only

  std::vector<TrainedSubspace> trained;
  if (scored.empty()) {
    // Mirror the pipeline's full-space fallback so a fitted model always
    // has at least one subspace to serve from.
    trained.push_back(TrainedSubspace{dataset.FullSpace(), 0.0, {}});
  } else {
    trained.reserve(scored.size());
    for (ScoredSubspace& s : scored) {
      trained.push_back(TrainedSubspace{std::move(s.subspace), s.score, {}});
    }
  }

  if (scorer->NeighborhoodSize() > 0 && n < 2) {
    return Status::InvalidArgument(
        "cannot fit a servable model on fewer than 2 training objects");
  }

  // Step 2: each subspace's scores and trained state from one draw of its
  // neighborhood (OutlierScorer::FitSubspace), then the pipeline's own
  // aggregation over the scores in subspace order — byte-identical to
  // RunHicsPipeline with these parameters for every thread count.
  std::vector<std::vector<double>> per_subspace(trained.size());
  ParallelFor(0, trained.size(), threads, [&](std::size_t i) {
    FittedSubspace fit = scorer->FitSubspace(prepared, trained[i].subspace);
    per_subspace[i] = std::move(fit.scores);
    trained[i].scorer_state = std::move(fit.state);
  });
  std::vector<double> training_scores =
      AggregateScores(per_subspace, config.aggregation);

  return HicsModel(config, dataset, std::move(trained),
                   std::move(training_scores));
}

Result<HicsModel> HicsModel::FromParts(Parts parts) {
  HICS_ASSIGN_OR_RETURN(std::unique_ptr<OutlierScorer> scorer,
                        MakeScorer(parts.config.scorer));
  HICS_RETURN_NOT_OK(parts.config.search_params.Validate());
  if (parts.config.num_shards == 0) {
    return Status::DataLoss("model config has num_shards = 0");
  }
  HICS_RETURN_NOT_OK(
      parts.training_data.Validate(/*require_non_constant=*/false));
  const std::size_t n = parts.training_data.num_objects();
  const std::size_t d = parts.training_data.num_attributes();
  if (parts.subspaces.empty()) {
    return Status::DataLoss("model has no trained subspaces");
  }
  if (parts.training_scores.size() != n) {
    return Status::DataLoss(
        "training-score vector length " +
        std::to_string(parts.training_scores.size()) +
        " does not match the " + std::to_string(n) + " training objects");
  }
  for (double s : parts.training_scores) {
    if (std::isnan(s)) {
      return Status::DataLoss("non-finite training score in model");
    }
  }
  const std::size_t expected_channels =
      ExpectedStateChannels(parts.config.scorer.kind);
  for (const TrainedSubspace& t : parts.subspaces) {
    if (t.subspace.empty()) {
      return Status::DataLoss("model contains an empty subspace");
    }
    for (std::size_t dim : t.subspace) {
      if (dim >= d) {
        return Status::DataLoss(
            "subspace attribute " + std::to_string(dim) +
            " out of range for " + std::to_string(d) + " attributes");
      }
    }
    if (std::isnan(t.contrast)) {
      return Status::DataLoss("non-finite subspace contrast in model");
    }
    if (t.scorer_state.channels.size() != expected_channels) {
      return Status::DataLoss(
          "scorer state has " +
          std::to_string(t.scorer_state.channels.size()) +
          " channels, expected " + std::to_string(expected_channels));
    }
    if (parts.config.scorer.kind == ScorerKind::kGridDensity) {
      // Grid state channels are histogram-shaped (meta, keys, counts),
      // not per-object; the scorer owns their structural validation.
      const Status grid_state = GridDensityScorer::ValidateTrainedState(
          t.scorer_state, t.subspace.size(), n);
      if (!grid_state.ok()) {
        return Status::DataLoss(grid_state.message());
      }
    } else {
      for (const std::vector<double>& channel : t.scorer_state.channels) {
        if (channel.size() != n) {
          return Status::DataLoss(
              "scorer-state channel length " +
              std::to_string(channel.size()) + " does not match the " +
              std::to_string(n) + " training objects");
        }
        for (double v : channel) {
          // +inf is a legitimate lrd for duplicate-heavy neighborhoods;
          // NaN never is.
          if (std::isnan(v)) {
            return Status::DataLoss("NaN in trained scorer state");
          }
        }
      }
    }
  }
  return HicsModel(std::move(parts.config), std::move(parts.training_data),
                   std::move(parts.subspaces),
                   std::move(parts.training_scores));
}

std::span<const std::unique_ptr<const NeighborSearcher>>
HicsModel::Searchers(std::size_t* resolved) const {
  std::call_once(runtime_->resolved, [this, resolved] {
    const std::size_t k = EffectiveK();
    std::vector<std::unique_ptr<const NeighborSearcher>> searchers;
    searchers.reserve(subspaces_.size());
    for (const TrainedSubspace& t : subspaces_) {
      searchers.push_back(ResolveKnnSearcher(training_data_, t.subspace, k));
    }
    runtime_->searchers = std::move(searchers);
    *resolved = subspaces_.size();
  });
  return runtime_->searchers;
}

Result<std::vector<double>> HicsModel::ScoreQueries(
    std::span<const double> queries, std::size_t num_queries) const {
  RunContext ctx;  // unbounded, no faults: plain scoring
  ServeDiagnostics diagnostics;
  HICS_ASSIGN_OR_RETURN(std::vector<double> scores,
                        ScoreQueries(queries, num_queries, ctx,
                                     &diagnostics));
  HICS_CHECK(!diagnostics.degraded());  // nothing can degrade without a ctx
  return scores;
}

Result<std::vector<double>> HicsModel::ScoreQueries(
    std::span<const double> queries, std::size_t num_queries,
    const RunContext& ctx, ServeDiagnostics* diagnostics) const {
  const std::size_t d = num_attributes();
  if (queries.size() != num_queries * d) {
    return Status::InvalidArgument(
        "query batch of " + std::to_string(queries.size()) +
        " values is not " + std::to_string(num_queries) + " rows of " +
        std::to_string(d) + " attributes");
  }
  ServeDiagnostics local;
  // k == 0 for neighbor-free scorers (NeighborhoodSize() == 0): they run
  // no searcher at all, O(1) per query instead of a tree descent or scan.
  const std::size_t k = EffectiveK();
  const std::size_t num_subspaces = subspaces_.size();

  std::vector<double> scores;
  scores.reserve(num_queries);
  // Resolved at the first kNN query, so a batch that scores nothing
  // (interrupted at once, or every subspace faulted) builds no searcher.
  std::span<const std::unique_ptr<const NeighborSearcher>> searchers;
  std::vector<double> projected;
  std::vector<Neighbor> neighbors;
  std::vector<double> per_subspace;
  per_subspace.reserve(num_subspaces);

  for (std::size_t q = 0; q < num_queries; ++q) {
    // Checkpoint between queries: on interruption return the scored
    // prefix — partial-but-valid, never a hang past the deadline.
    const Status progress = ctx.CheckProgress();
    if (!progress.ok()) {
      if (progress.code() == StatusCode::kCancelled) local.cancelled = true;
      if (progress.code() == StatusCode::kDeadlineExceeded) {
        local.deadline_exceeded = true;
      }
      break;
    }

    per_subspace.clear();
    Status last_failure = Status::OK();
    for (std::size_t s = 0; s < num_subspaces; ++s) {
      // Deterministic fault ordinal: position in the logical
      // (query, subspace) evaluation sequence, independent of batching.
      const Status fault =
          ctx.InjectFault("serve.subspace", q * num_subspaces + s + 1);
      if (!fault.ok()) {
        ++local.subspace_failures;
        ++local.error_tally["serve.subspace"];
        last_failure = fault;
        continue;
      }
      const Subspace& subspace = subspaces_[s].subspace;
      projected.clear();
      for (std::size_t dim : subspace) projected.push_back(queries[q * d + dim]);
      if (k > 0) {
        if (searchers.empty()) {
          searchers = Searchers(&local.searchers_resolved);
        }
        searchers[s]->QueryKnnPoint(projected, k, &neighbors);
      }
      per_subspace.push_back(scorer_->ScoreOutOfSample(
          projected,
          std::span<const Neighbor>(neighbors.data(), neighbors.size()),
          subspaces_[s].scorer_state));
    }

    if (per_subspace.empty()) {
      // Every subspace of this query failed — nothing to renormalize
      // over; surface the cause instead of inventing a score.
      return Status(last_failure.code(),
                    "every subspace failed for query " + std::to_string(q) +
                        ": " + last_failure.message());
    }

    double aggregate = 0.0;
    if (config_.aggregation == ScoreAggregation::kMax) {
      aggregate = *std::max_element(per_subspace.begin(), per_subspace.end());
    } else {
      for (double v : per_subspace) aggregate += v;
      aggregate /= static_cast<double>(per_subspace.size());
    }
    scores.push_back(aggregate);
    ++local.queries_scored;
  }

  if (diagnostics != nullptr) *diagnostics = std::move(local);
  return scores;
}

Result<std::vector<double>> HicsModel::RescoreTrainingSet() const {
  const std::size_t threads = config_.search_params.num_threads;
  PreparedDataset prepared(training_data_, threads);
  return RankWithSubspaces(prepared, PlainSubspaces(subspaces_), *scorer_,
                           config_.aggregation, threads);
}

}  // namespace hics
