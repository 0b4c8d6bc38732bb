#include "core/hics.h"

#include <algorithm>
#include <memory>

#include "common/parallel.h"
#include "common/random.h"
#include "engine/sharded_dataset.h"
#include "stats/two_sample_test.h"

namespace hics {

Status HicsParams::Validate() const {
  ContrastParams contrast{num_iterations, alpha};
  HICS_RETURN_NOT_OK(contrast.Validate());
  if (candidate_cutoff == 0) {
    return Status::InvalidArgument("candidate_cutoff must be >= 1");
  }
  if (output_top_k == 0) {
    return Status::InvalidArgument("output_top_k must be >= 1");
  }
  if (statistical_test != "welch" && statistical_test != "ks" &&
      statistical_test != "wt" && statistical_test != "cvm") {
    return Status::InvalidArgument(
        "unknown statistical_test '" + statistical_test +
        "' (expected 'welch' (alias 'wt'), 'ks', or 'cvm')");
  }
  if (max_dimensionality == 1) {
    return Status::InvalidArgument(
        "max_dimensionality must be 0 (unbounded) or >= 2");
  }
  return Status::OK();
}

namespace internal {

std::vector<Subspace> AllTwoDimensionalSubspaces(std::size_t num_attributes) {
  std::vector<Subspace> result;
  if (num_attributes >= 2) {
    result.reserve(num_attributes * (num_attributes - 1) / 2);
  }
  for (std::size_t i = 0; i < num_attributes; ++i) {
    for (std::size_t j = i + 1; j < num_attributes; ++j) {
      result.push_back(Subspace{i, j});
    }
  }
  return result;
}

std::vector<Subspace> GenerateCandidates(const std::vector<Subspace>& level) {
  std::vector<Subspace> candidates;
  for (std::size_t i = 0; i < level.size(); ++i) {
    for (std::size_t j = i + 1; j < level.size(); ++j) {
      bool ok = false;
      Subspace merged = level[i].AprioriJoin(level[j], &ok);
      if (ok) {
        candidates.push_back(std::move(merged));
      } else if (level[i].size() >= 2) {
        // Sorted input: once the shared prefix breaks, no later j matches i.
        const std::size_t d = level[i].size();
        bool prefix_equal = true;
        for (std::size_t p = 0; p + 1 < d; ++p) {
          if (level[i][p] != level[j][p]) {
            prefix_equal = false;
            break;
          }
        }
        if (!prefix_equal) break;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

std::size_t PruneRedundant(std::vector<ScoredSubspace>* subspaces) {
  HICS_CHECK(subspaces != nullptr);
  // Bucket indices by subspace dimensionality: only (d+1)-dimensional
  // entries can make a d-dimensional one redundant, so each subspace is
  // compared against one adjacent bucket instead of the whole pool.
  // Within a bucket the original index order is preserved, keeping the
  // scan (and hence the result) identical to the all-pairs formulation.
  std::size_t max_dims = 0;
  for (const ScoredSubspace& s : *subspaces) {
    max_dims = std::max(max_dims, s.subspace.size());
  }
  std::vector<std::vector<std::size_t>> by_dims(max_dims + 1);
  for (std::size_t i = 0; i < subspaces->size(); ++i) {
    by_dims[(*subspaces)[i].subspace.size()].push_back(i);
  }
  std::vector<bool> redundant(subspaces->size(), false);
  for (std::size_t t = 0; t < subspaces->size(); ++t) {
    const ScoredSubspace& lower = (*subspaces)[t];
    if (lower.subspace.size() + 1 > max_dims) continue;
    for (std::size_t s : by_dims[lower.subspace.size() + 1]) {
      const ScoredSubspace& upper = (*subspaces)[s];
      if (upper.score > lower.score &&
          upper.subspace.ContainsAll(lower.subspace)) {
        redundant[t] = true;
        break;
      }
    }
  }
  std::vector<ScoredSubspace> kept;
  kept.reserve(subspaces->size());
  std::size_t removed = 0;
  for (std::size_t i = 0; i < subspaces->size(); ++i) {
    if (redundant[i]) {
      ++removed;
    } else {
      kept.push_back(std::move((*subspaces)[i]));
    }
  }
  *subspaces = std::move(kept);
  return removed;
}

LevelScorer MakeLevelScorer(const ShardPlane& plane,
                            const stats::TwoSampleTest& test,
                            const ContrastParams& contrast, std::uint64_t seed,
                            std::size_t num_threads) {
  const std::size_t num_shards = plane.num_shards();
  // One estimator per shard, each with its slice of the iteration budget.
  // Building them forces the per-shard lazy rank artifacts, so fan the
  // construction out — the artifact content is build-order-invariant.
  auto estimators =
      std::make_shared<std::vector<std::unique_ptr<ContrastEstimator>>>(
          num_shards);
  ParallelFor(0, num_shards, num_threads, [&](std::size_t s) {
    const ContrastParams shard_params{
        ShardIterations(contrast.num_iterations, num_shards, s),
        contrast.alpha};
    (*estimators)[s] = std::make_unique<ContrastEstimator>(
        plane.shard(s), test, shard_params);
  });
  std::vector<double> weights(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    weights[s] = static_cast<double>(plane.shard_size(s));
  }
  return [estimators, weights = std::move(weights), num_shards, seed,
          num_threads](std::vector<Subspace> level, std::uint64_t eval_base,
                       const RunContext& ctx,
                       std::vector<ScoredSubspace>* completed,
                       HicsRunStats* stats) -> Status {
    // A one-shard plane is the unsharded estimator: its shard draws from
    // the per-subspace stream, probes no "shard.contrast", and its value
    // is the subspace's score as is.
    const bool sharded = num_shards > 1;
    // Per-(subspace, shard) slot states.
    enum : char { kNotRun = 0, kOk = 1, kFailed = 2 };
    // Fan out over (subspace, shard) tasks: task t = subspace t/S, shard
    // t%S. Results land in per-task slots; the weighted merge below reads
    // them in shard-ordinal order, so neither thread count nor completion
    // order can reorder a single floating-point operation.
    const std::size_t tasks = level.size() * num_shards;
    std::vector<double> values(tasks, 0.0);
    std::vector<char> state(tasks, kNotRun);
    std::vector<ContrastScratch> scratches(
        ParallelWorkerCount(tasks, num_threads));
    const Status level_status = ParallelTryForWorker(
        0, tasks, num_threads,
        [&](std::size_t t, std::size_t worker) -> Status {
          const std::size_t i = t / num_shards;
          const std::size_t shard = t % num_shards;
          // The estimate ordinal: evaluation (eval_base + i)'s shard
          // block, shard-major — eval_base + i + 1 on one shard, the
          // arrival count of an uninterrupted serial run. "shard.contrast"
          // is probed with the bare shard ordinal so FailNthCall(site, k)
          // poisons shard k-1 on every subspace — the "one poisoned
          // shard" drill.
          const std::uint64_t ordinal =
              (eval_base + i) * num_shards + shard + 1;
          Status injected =
              sharded ? ctx.InjectFault("shard.contrast",
                                        static_cast<std::uint64_t>(shard) + 1)
                      : Status::OK();
          if (injected.ok()) {
            injected = ctx.InjectFault("contrast.estimate", ordinal);
          }
          Result<double> contrast =
              injected.ok()
                  ? [&]() -> Result<double> {
                      // Every (subspace, shard) gets its own Monte Carlo
                      // stream derived from (seed, subspace, shard),
                      // making the search reproducible independent of
                      // the evaluation order and the worker count.
                      const std::uint64_t hash = SubspaceHash{}(level[i]);
                      Rng rng(sharded ? ShardStreamSeed(seed, hash, shard)
                                      : seed ^ (hash * 0x9e3779b97f4a7c15ULL));
                      return (*estimators)[shard]->Contrast(
                          level[i], &rng, &scratches[worker], ctx, ordinal);
                    }()
                  : Result<double>(std::move(injected));
          if (contrast.ok()) {
            values[t] = *contrast;
            state[t] = kOk;
            return Status::OK();
          }
          const StatusCode code = contrast.status().code();
          if (code == StatusCode::kCancelled ||
              code == StatusCode::kDeadlineExceeded) {
            return contrast.status();  // stops the level deterministically
          }
          state[t] = kFailed;  // isolated: one shard of one subspace
          return Status::OK();
        },
        [&ctx] { return ctx.ShouldStop(); });

    // Merge: weighted average over the surviving shards, weights
    // renormalized when shards dropped out. A subspace with an unevaluated
    // shard slot (interrupted level) is not merged — partial merges would
    // make interrupted results depend on scheduling. A subspace whose
    // every shard failed is skipped: it neither enters the pool nor seeds
    // the next level.
    completed->reserve(level.size());
    for (std::size_t i = 0; i < level.size(); ++i) {
      bool all_run = true;
      bool any_ok = false;
      std::size_t shard_failures = 0;
      double weight_sum = 0.0;
      double value_sum = 0.0;
      for (std::size_t shard = 0; shard < num_shards; ++shard) {
        const std::size_t t = i * num_shards + shard;
        if (state[t] == kNotRun) {
          all_run = false;
          break;
        }
        if (state[t] == kOk) {
          any_ok = true;
          value_sum += weights[shard] * values[t];
          weight_sum += weights[shard];
        } else {
          ++shard_failures;
        }
      }
      if (!all_run) continue;
      if (sharded) stats->failed_shard_evaluations += shard_failures;
      if (!any_ok) {
        ++stats->failed_contrast_evaluations;
        continue;
      }
      // One shard's value is taken as is: (w * v) / w need not round to v.
      completed->push_back(
          {std::move(level[i]), sharded ? value_sum / weight_sum : values[i]});
    }
    return level_status;
  };
}

}  // namespace internal

Result<std::vector<ScoredSubspace>> RunHicsSearch(const Dataset& dataset,
                                                  const HicsParams& params,
                                                  const RunContext& ctx,
                                                  HicsRunStats* stats) {
  // Thin adapter: prepare privately with the run's thread budget (the
  // index content is identical for any build parallelism) and delegate.
  const std::size_t build_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const PreparedDataset prepared(dataset, build_threads);
  return RunHicsSearch(prepared, params, ctx, stats);
}

// The lattice driver (paper §IV, Alg. 1) shared by every plane: score a
// level, keep the candidate_cutoff best, Apriori-join the survivors into
// the next level, and finally prune redundant subspaces. Scoring a level
// is delegated to internal::MakeLevelScorer.
Result<std::vector<ScoredSubspace>> RunHicsSearch(const ShardPlane& plane,
                                                  const HicsParams& params,
                                                  const RunContext& ctx,
                                                  HicsRunStats* stats) {
  const Dataset& dataset = plane.dataset();
  HICS_RETURN_NOT_OK(params.Validate());
  if (dataset.num_attributes() < 2) {
    return Status::InvalidArgument(
        "HiCS requires at least 2 attributes, got " +
        std::to_string(dataset.num_attributes()));
  }
  if (dataset.num_objects() < 2) {
    return Status::InvalidArgument("HiCS requires at least 2 objects");
  }
  HICS_RETURN_NOT_OK(ctx.InjectFault("hics.search"));

  const auto test = stats::MakeTwoSampleTest(params.statistical_test);
  HICS_CHECK(test != nullptr);
  const std::size_t num_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const internal::LevelScorer score_level = internal::MakeLevelScorer(
      plane, *test,
      ContrastParams{params.num_iterations, params.alpha},
      params.seed, num_threads);

  HicsRunStats local_stats;
  auto record_interruption = [&local_stats](const Status& st) {
    if (st.code() == StatusCode::kCancelled) local_stats.cancelled = true;
    if (st.code() == StatusCode::kDeadlineExceeded) {
      local_stats.deadline_exceeded = true;
    }
  };

  std::vector<ScoredSubspace> pool;   // everything retained across levels
  std::vector<Subspace> level = internal::AllTwoDimensionalSubspaces(
      dataset.num_attributes());
  // Cumulative count of contrast evaluations issued before the current
  // level: the base of the scorers' deterministic fault ordinals.
  std::uint64_t eval_base = 0;

  while (!level.empty()) {
    const Status progress = ctx.CheckProgress();
    if (!progress.ok()) {
      record_interruption(progress);
      break;
    }
    const std::size_t dims = level.front().size();
    if (params.max_dimensionality != 0 &&
        dims > params.max_dimensionality) {
      break;
    }
    ++local_stats.levels_processed;

    // Score the whole level, then apply the adaptive threshold: keep only
    // the candidate_cutoff best (§IV-B).
    const std::size_t level_size = level.size();
    std::vector<ScoredSubspace> completed;
    const Status level_status = score_level(std::move(level), eval_base, ctx,
                                            &completed, &local_stats);
    eval_base += level_size;
    local_stats.contrast_evaluations += completed.size();
    if (!completed.empty()) {
      local_stats.max_level_reached =
          std::max(local_stats.max_level_reached, dims);
    }
    if (completed.size() > params.candidate_cutoff) {
      ++local_stats.cutoff_applications;
    }
    KeepTopK(&completed, params.candidate_cutoff);

    // Survivors seed the next level and enter the output pool.
    std::vector<Subspace> survivors = PlainSubspaces(completed);
    std::sort(survivors.begin(), survivors.end());
    for (ScoredSubspace& s : completed) pool.push_back(std::move(s));

    if (!level_status.ok()) {
      record_interruption(level_status);
      break;
    }
    const Status after_level = ctx.CheckProgress();
    if (!after_level.ok()) {
      record_interruption(after_level);
      break;
    }
    level = internal::GenerateCandidates(survivors);
  }

  if (params.prune_redundant) {
    local_stats.pruned_redundant = internal::PruneRedundant(&pool);
  }
  KeepTopK(&pool, params.output_top_k);

  if (stats != nullptr) *stats = local_stats;
  return pool;
}

}  // namespace hics
