#include "outlier/subspace_ranker.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/sharded_dataset.h"

namespace hics {

ScoringBackend ChooseScoringBackend(std::size_t num_objects,
                                    std::size_t num_dimensions) {
  // Grid crossover calibrated from BENCH_density_backends.json (end-to-end
  // per-subspace scoring wall clock, bins = 16, k = 10, grid build +
  // gather vs batched all-kNN + kNN-average, avx512-dispatched): the O(N)
  // grid tier beats both kNN backends at every measured cell from
  // N = 2048 on — ~100x at N = 2048, ~200-4000x at N = 2^15 — and at
  // N = 10^6 it scores a subspace in tens of milliseconds where the kNN
  // backends are not feasible per-subspace at all. The floor is
  // nevertheless set where the *better kNN backend* stops being cheap
  // (>= ~50 ms per subspace at N = 2^15): below it the kNN estimators'
  // distance-based fidelity costs next to nothing, so they keep the band
  // ChooseKnnBackend was calibrated on; above it the histogram estimator
  // is the only one that scales, and the margin only widens with N.
  constexpr std::size_t kGridMinObjects = 32768;
  if (num_objects >= kGridMinObjects) return ScoringBackend::kGrid;
  return ChooseKnnBackend(num_objects, num_dimensions) == KnnBackend::kKdTree
             ? ScoringBackend::kKdTree
             : ScoringBackend::kBruteSimd;
}

std::vector<double> AggregateScores(
    const std::vector<std::vector<double>>& per_subspace_scores,
    ScoreAggregation aggregation) {
  HICS_CHECK(!per_subspace_scores.empty());
  const std::size_t n = per_subspace_scores.front().size();
  for (const auto& scores : per_subspace_scores) {
    HICS_CHECK_EQ(scores.size(), n);
  }
  std::vector<double> result(n, 0.0);
  switch (aggregation) {
    case ScoreAggregation::kAverage: {
      for (const auto& scores : per_subspace_scores) {
        for (std::size_t i = 0; i < n; ++i) result[i] += scores[i];
      }
      const double inv = 1.0 / static_cast<double>(per_subspace_scores.size());
      for (double& v : result) v *= inv;
      break;
    }
    case ScoreAggregation::kMax: {
      result = per_subspace_scores.front();
      for (std::size_t s = 1; s < per_subspace_scores.size(); ++s) {
        for (std::size_t i = 0; i < n; ++i) {
          result[i] = std::max(result[i], per_subspace_scores[s][i]);
        }
      }
      break;
    }
  }
  return result;
}

namespace {

// The one ranking loop: scores every subspace (the full space when the
// list is empty) into a pre-sized slot and aggregates the slots in
// subspace order, so the result is byte-identical for every thread count
// and cache state. A one-shard plane is scored through its only shard's
// cache — exact for every scorer, and the unsharded ranking itself; more
// shards score through the scorer's sharded seam.
std::vector<double> RankPlane(const ShardPlane& plane,
                              const std::vector<Subspace>& subspaces,
                              const OutlierScorer& scorer,
                              ScoreAggregation aggregation,
                              std::size_t num_threads) {
  const auto score = [&](const Subspace& subspace) {
    return plane.num_shards() == 1
               ? scorer.ScoreSubspaceCached(plane.shard(0), subspace)
               : scorer.ScoreSubspaceSharded(plane, subspace);
  };
  if (subspaces.empty()) return score(plane.dataset().FullSpace());
  std::vector<std::vector<double>> per_subspace(subspaces.size());
  ParallelFor(0, subspaces.size(), num_threads, [&](std::size_t i) {
    per_subspace[i] = score(subspaces[i]);
  });
  return AggregateScores(per_subspace, aggregation);
}

}  // namespace

std::vector<double> RankWithSubspaces(const PreparedDataset& prepared,
                                      const std::vector<Subspace>& subspaces,
                                      const OutlierScorer& scorer,
                                      ScoreAggregation aggregation,
                                      std::size_t num_threads) {
  return RankPlane(prepared, subspaces, scorer, aggregation, num_threads);
}

Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, std::size_t num_threads) {
  // One shard is exact for every scorer, so it needs no consent.
  if (sharded.num_shards() > 1 &&
      policy == ShardedScoringPolicy::kRequireExactMerge &&
      !scorer.SupportsExactShardedMerge()) {
    return Status::InvalidArgument(
        "scorer '" + scorer.name() +
        "' cannot merge per-shard scores exactly; sharded ranking with it "
        "is a per-shard approximation — pass "
        "ShardedScoringPolicy::kAllowApproximation to opt in");
  }
  return RankPlane(sharded, subspaces, scorer, aggregation, num_threads);
}

Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads) {
  return RankWithSubspacesSharded(sharded, PlainSubspaces(subspaces), scorer,
                                  aggregation, policy, num_threads);
}

DegradedRankingResult RankWithSubspacesDegraded(
    const PreparedDataset& prepared, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    const RunContext& ctx, std::size_t num_threads) {
  // Per-subspace outcomes land in pre-sized slots and are assembled in
  // subspace order, so the result is byte-identical for every thread
  // count (each scorer call carries its subspace index as the fault
  // ordinal, pinning injected faults to the same subspaces). At one worker
  // ParallelTryFor runs the subspaces in index order and stops at the
  // first interruption, which is the serial contract.
  enum class SlotState : char { kPending, kOk, kFailed };
  DegradedRankingResult result;
  std::vector<SlotState> state(subspaces.size(), SlotState::kPending);
  std::vector<std::vector<double>> slot_scores(subspaces.size());
  std::vector<Status> slot_status(subspaces.size());
  std::atomic<std::size_t> attempted{0};

  const Status level_status = ParallelTryFor(
      0, subspaces.size(), num_threads,
      [&](std::size_t i) -> Status {
        HICS_RETURN_NOT_OK(ctx.CheckProgress());
        attempted.fetch_add(1, std::memory_order_relaxed);
        Result<std::vector<double>> scores =
            scorer.ScoreSubspacePreparedChecked(prepared, subspaces[i], ctx,
                                                i + 1);
        if (scores.ok()) {
          slot_scores[i] = std::move(scores).ValueOrDie();
          state[i] = SlotState::kOk;
          return Status::OK();
        }
        const StatusCode code = scores.status().code();
        if (code == StatusCode::kCancelled ||
            code == StatusCode::kDeadlineExceeded) {
          return scores.status();  // interruption: winds the ranking down
        }
        slot_status[i] = scores.status();
        state[i] = SlotState::kFailed;
        return Status::OK();  // isolated failure: keep ranking
      },
      [&ctx] { return ctx.ShouldStop(); });

  result.attempted = attempted.load(std::memory_order_relaxed);
  if (!level_status.ok()) {
    result.cancelled = level_status.code() == StatusCode::kCancelled;
    result.deadline_exceeded =
        level_status.code() == StatusCode::kDeadlineExceeded;
  } else if (std::find(state.begin(), state.end(), SlotState::kPending) !=
             state.end()) {
    // Holes without an error: the should_stop wind-down skipped work.
    const Status progress = ctx.CheckProgress();
    result.cancelled = progress.code() == StatusCode::kCancelled;
    result.deadline_exceeded =
        progress.code() == StatusCode::kDeadlineExceeded;
  }

  std::vector<std::vector<double>> per_subspace;
  per_subspace.reserve(subspaces.size());
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    switch (state[i]) {
      case SlotState::kOk:
        ++result.succeeded;
        per_subspace.push_back(std::move(slot_scores[i]));
        break;
      case SlotState::kFailed:
        result.failures.push_back({subspaces[i], std::move(slot_status[i])});
        break;
      case SlotState::kPending:
        break;
    }
  }
  if (!per_subspace.empty()) {
    result.scores = AggregateScores(per_subspace, aggregation);
  }
  return result;
}

}  // namespace hics
