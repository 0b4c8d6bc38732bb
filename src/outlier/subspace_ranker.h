#ifndef HICS_OUTLIER_SUBSPACE_RANKER_H_
#define HICS_OUTLIER_SUBSPACE_RANKER_H_

#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "engine/prepared_dataset.h"
#include "index/neighbor_searcher.h"
#include "outlier/outlier_scorer.h"

namespace hics {

/// The three scoring-backend tiers the ranking layer can hand an
/// (N objects, |S| dimensions) subspace workload to.
enum class ScoringBackend {
  /// kNN via KD-tree (pruned search; wins at low |S| with enough objects
  /// to amortize the build).
  kKdTree,
  /// kNN via the blocked brute-force SIMD kernel (flat in |S|; wins in
  /// the mid-N band where the tree stops pruning).
  kBruteSimd,
  /// O(N) histogram density (GridDensityScorer): no neighbor search at
  /// all, so past its crossover N it beats *both* kNN backends by
  /// widening margins — the million-point tier.
  kGrid,
};

/// Ranking-layer policy: which scoring backend fits an (N, |S|) subspace
/// workload. The kNN backends return bit-identical scores to each other,
/// so kKdTree vs kBruteSimd is purely a wall-clock crossover; kGrid is a
/// *different estimator* (histogram density instead of kNN distances)
/// that the caller may only adopt when the scorer semantics allow it —
/// it is returned where the grid tier's O(N) fit beats batched all-kNN
/// outright. Below the grid floor the kNN tier is ChooseKnnBackend's
/// verdict (index/neighbor_searcher.h). Crossover constants are
/// calibrated by `bench_density_backends` (committed record:
/// BENCH_density_backends.json) and `bench_knn_backends`
/// (BENCH_knn_backends.json); re-run them when changing the kernels or
/// build flags.
ScoringBackend ChooseScoringBackend(std::size_t num_objects,
                                    std::size_t num_dimensions);

/// How per-subspace scores are combined into the final score.
enum class ScoreAggregation {
  /// Definition 1 in the paper: score(x) = (1/|RS|) sum_S score_S(x).
  /// Cumulative: deviating in several subspaces raises the total. The
  /// paper's default.
  kAverage,
  /// max_S score_S(x). Sensitive to fluctuations; the paper reports it
  /// degrades with many subspaces (checked by bench_ablation_aggregation).
  kMax,
};

/// Aggregates per-subspace score vectors (all of equal length) into one
/// final score per object.
std::vector<double> AggregateScores(
    const std::vector<std::vector<double>>& per_subspace_scores,
    ScoreAggregation aggregation);

/// The outlier-ranking half of the decoupled pipeline: runs `scorer` on
/// every subspace in `subspaces` and aggregates. With an empty subspace
/// list, scores the full space (traditional outlier ranking).
///
/// Each subspace is scored through OutlierScorer::ScoreSubspaceCached, so
/// whole score vectors are drawn from (and published to) `prepared`'s
/// artifact cache, while a kNN table lives only as long as the scorer
/// call that computes it. A warm cache turns
/// repeated rankings of one dataset — the serving pattern — into cache
/// lookups plus one aggregation pass. To rank a plain Dataset, wrap it in
/// a PreparedDataset (its rank artifacts are built lazily, so ranking pays
/// nothing for them); to rank search output, pass
/// PlainSubspaces(scored).
///
/// `num_threads` scores subspaces concurrently on the shared thread pool
/// (1 = serial, 0 = hardware concurrency). Each subspace's scores land in
/// a pre-sized slot and aggregation runs over the slots in subspace
/// order, so the result is byte-identical for every thread count and
/// cache state. The scorer must tolerate concurrent calls (all shipped
/// scorers are stateless).
std::vector<double> RankWithSubspaces(const PreparedDataset& prepared,
                                      const std::vector<Subspace>& subspaces,
                                      const OutlierScorer& scorer,
                                      ScoreAggregation aggregation =
                                          ScoreAggregation::kAverage,
                                      std::size_t num_threads = 1);

/// Caller consent for sharded scoring semantics (DESIGN.md §5i). Sharded
/// scoring is exact only for scorers that merge per-shard state without
/// approximation (OutlierScorer::SupportsExactShardedMerge — the
/// grid-density tier); for neighbor-based scorers the sharded path falls
/// back to the per-shard approximation, which is a *different estimator*
/// than unsharded scoring. That semantic change must be an explicit
/// caller decision, never a silent fallback.
enum class ShardedScoringPolicy {
  /// Error (InvalidArgument) unless the scorer merges exactly or the
  /// plane has one shard — the ranking is then bit-identical to the
  /// unsharded prepared path.
  kRequireExactMerge,
  /// Permit the per-shard approximation for non-merging scorers (each
  /// shard scored against its own rows, concatenated in shard order).
  kAllowApproximation,
};

/// Sharded ranking: the same ranking loop as RankWithSubspaces, scoring
/// each subspace through OutlierScorer::ScoreSubspaceSharded and
/// aggregating in subspace order, byte-identical for every thread count.
/// A one-shard plane scores through its only shard's cache instead, which
/// is the unsharded ranking for every scorer, so it needs no consent.
/// With an empty subspace list, scores the full space. Fails (never
/// silently degrades) when the plane has more than one shard, `policy` is
/// kRequireExactMerge and the scorer cannot merge exactly.
Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, std::size_t num_threads = 1);

/// Sharded convenience overload for scored subspaces.
Result<std::vector<double>> RankWithSubspacesSharded(
    const ShardPlane& sharded,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads = 1);

/// One isolated per-subspace failure observed during degraded ranking.
struct SubspaceFailure {
  Subspace subspace;
  Status status;
};

/// Outcome of fault-isolated subspace ranking. HiCS is an ensemble
/// (Definition 1 averages over the selected subspaces), so the aggregate
/// stays meaningful when individual members drop out; `scores` is the
/// aggregation over the `succeeded` subspaces only — the average
/// renormalizes automatically because AggregateScores divides by the
/// number of score vectors it is given.
struct DegradedRankingResult {
  /// Aggregated scores over the subspaces that scored successfully.
  /// Empty iff `succeeded == 0` (the caller decides on a fallback).
  std::vector<double> scores;
  std::size_t attempted = 0;   ///< subspaces whose scoring was started
  std::size_t succeeded = 0;   ///< subspaces that produced valid scores
  /// Isolated failures (injected faults, non-finite scorer output, ...),
  /// in subspace order. Interruptions are not failures; they set the
  /// flags below instead.
  std::vector<SubspaceFailure> failures;
  bool cancelled = false;           ///< stopped early: cancellation
  bool deadline_exceeded = false;   ///< stopped early: deadline
};

/// Fault-isolated, context-aware ranking: scores each subspace through
/// OutlierScorer::ScoreSubspacePreparedChecked, skips and records
/// subspaces whose scorer fails, and stops early (keeping the aggregate
/// over the subspaces already scored) when the context is cancelled or
/// past its deadline. Never fails itself; with an empty `subspaces` list
/// it returns an empty result with attempted == 0 so the caller can fall
/// back to full-space scoring. Healthy subspaces hit the artifact cache;
/// the checkpoint and fault probe run before any cache access, so
/// injected fault placement — and the surviving ensemble — is
/// byte-identical between cold and warm runs, and a failed or skipped
/// subspace never populates the cache.
///
/// `num_threads` (1 = serial, 0 = hardware concurrency) scores subspaces
/// concurrently; each call passes its subspace index as the fault
/// ordinal, so injected fault placement — and therefore the surviving
/// ensemble and its aggregate — is byte-identical for every thread
/// count. On interruption a single worker stops before the next subspace
/// in order, while several workers additionally keep any later subspaces
/// that had already completed (both aggregate only completed members, in
/// subspace order). `failures` is in subspace order either way.
DegradedRankingResult RankWithSubspacesDegraded(
    const PreparedDataset& prepared, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    const RunContext& ctx, std::size_t num_threads = 1);

}  // namespace hics

#endif  // HICS_OUTLIER_SUBSPACE_RANKER_H_
