#ifndef HICS_CORE_HICS_H_
#define HICS_CORE_HICS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/contrast.h"

namespace hics {

class ShardPlane;  // engine/shard_plane.h

/// Full configuration of the HiCS subspace search.
struct HicsParams {
  /// Monte Carlo iterations per contrast estimate (the paper's M).
  std::size_t num_iterations = 50;
  /// Slice selection ratio (the paper's alpha).
  double alpha = 0.1;
  /// Maximum number of candidates retained per lattice level before
  /// generating the next level (the paper's "candidate cutoff"; 400 in the
  /// scalability experiments, quality peak around 500).
  std::size_t candidate_cutoff = 400;
  /// Number of best subspaces returned after redundancy pruning; the
  /// paper's experiments feed the best 100 to the outlier ranker.
  std::size_t output_top_k = 100;
  /// Deviation function: "welch" (HiCS_WT, default; alias "wt"), "ks"
  /// (HiCS_KS), or "cvm" (Cramer-von Mises).
  std::string statistical_test = "welch";
  /// Optional hard bound on subspace dimensionality; 0 = unbounded (search
  /// stops when the Apriori merge yields no candidates).
  std::size_t max_dimensionality = 0;
  /// Apply the redundancy pruning step (drop a d-dim subspace when a
  /// higher-contrast (d+1)-dim superset is in the result).
  bool prune_redundant = true;
  /// RNG seed; identical seeds give identical searches. Each subspace's
  /// Monte Carlo stream is derived from (seed, subspace), so results are
  /// also independent of evaluation order and thread count.
  std::uint64_t seed = 42;
  /// Worker threads for the per-level contrast evaluations, the
  /// sorted-index build, and, when the pipeline runs the ranking phase,
  /// the per-subspace outlier scoring. 1 = serial (default), 0 = hardware
  /// concurrency. Results are identical for every value — see DESIGN.md
  /// "Threading model".
  std::size_t num_threads = 1;

  Status Validate() const;
};

/// Progress/diagnostic statistics of one HiCS run.
struct HicsRunStats {
  std::size_t contrast_evaluations = 0;   ///< subspaces scored successfully
  std::size_t levels_processed = 0;       ///< lattice levels visited
  std::size_t max_level_reached = 0;      ///< highest dimensionality scored
  std::size_t pruned_redundant = 0;       ///< dropped by redundancy pruning
  std::size_t cutoff_applications = 0;    ///< levels where cutoff truncated

  /// Contrast evaluations that failed (fault injection or data errors) and
  /// were skipped; the affected subspaces neither enter the result nor seed
  /// the next lattice level. In a sharded search a subspace fails only when
  /// EVERY shard's estimate failed.
  std::size_t failed_contrast_evaluations = 0;
  /// Sharded search only: shard-level contrast estimates that failed. A
  /// failed shard is absorbed by renormalizing the merge weights over the
  /// surviving shards (the subspace still gets a score unless all shards
  /// failed), so this counts degradation, not data loss.
  std::size_t failed_shard_evaluations = 0;
  /// The run stopped early because the RunContext deadline expired; the
  /// returned subspaces are the best found up to that point.
  bool deadline_exceeded = false;
  /// The run stopped early because cancellation was requested.
  bool cancelled = false;

  /// True when the search wound down before exhausting the lattice.
  bool interrupted() const { return deadline_exceeded || cancelled; }
};

/// HiCS subspace search (paper §IV): level-wise Apriori-style generation of
/// subspace candidates scored by Monte Carlo contrast, with adaptive
/// candidate cutoff and redundancy pruning.
///
/// Typical use:
///   HicsParams params;
///   HICS_ASSIGN_OR_RETURN(auto subspaces, RunHicsSearch(dataset, params));
///   // feed `subspaces` to RankWithSubspaces(...)
///
/// Returns the output_top_k highest-contrast subspaces, sorted by
/// descending contrast. `stats`, when non-null, receives run diagnostics.
/// The Dataset overload is a thin adapter that prepares privately and
/// delegates to the ShardPlane overload.
///
/// `ctx` is checked between lattice levels, between subspace evaluations
/// within a level, and between Monte Carlo iterations within one contrast
/// estimate. On deadline expiry or cancellation the search *does not
/// fail*: it returns the best subspaces scored so far, with
/// `stats->deadline_exceeded` / `stats->cancelled` set. A contrast
/// evaluation that fails for any other reason (e.g. an injected fault at
/// "contrast.slice" or "contrast.estimate") is isolated: the subspace is
/// skipped and counted in `stats->failed_contrast_evaluations`. Errors are
/// returned only for invalid params/dataset or when a fault is injected at
/// site "hics.search" (whole-search failure).
Result<std::vector<ScoredSubspace>> RunHicsSearch(
    const Dataset& dataset, const HicsParams& params,
    const RunContext& ctx = RunContext(), HicsRunStats* stats = nullptr);

/// Search over a data plane. The rank artifacts the contrast kernels
/// consume come from the plane's prepared shards instead of being rebuilt
/// per call, so search, contrast matrix and ranking over one
/// PreparedDataset share a single O(D N log N) build.
///
/// One shard (a PreparedDataset, or a ShardedDataset / StreamingDataset
/// clamped to one shard) is the unsharded estimator: subspace S draws M
/// iterations from the stream seed ^ (hash(S) * phi), so every one-shard
/// plane over the same rows returns the same bits, and the Dataset
/// overload returns them too.
///
/// More shards (DESIGN.md §5i): each lattice-level contrast estimate fans
/// out over the shards — shard s runs ShardIterations(M, S, s) Monte
/// Carlo iterations on its own rows with its own RNG stream
/// (ShardStreamSeed(seed, subspace, s)) — and the per-shard estimates are
/// merged by a row-count-weighted average before the cutoff / candidate
/// generation, which runs once on the merged scores. Total slice work per
/// subspace drops to ~M*N/S rows, which is where the sharded speedup
/// comes from. This is a different estimator than the one-shard search:
/// expect agreement within Monte Carlo noise, not bit-equality.
///
/// Determinism: for a fixed effective shard count the result is
/// bit-identical across thread counts and shard completion orders (every
/// (subspace, shard) stream is derived, never shared; the merge reduces
/// in shard-ordinal order).
///
/// Degradation: evaluation i of a level probes "contrast.estimate" with
/// the ordinal (eval_base + i) * S + shard + 1 — eval_base + i + 1 on one
/// shard. With more than one shard, "shard.contrast" is also probed with
/// ordinal shard + 1, and a failed shard estimate is absorbed by
/// renormalizing the merge weights over the surviving shards and counted
/// in stats->failed_shard_evaluations; the subspace fails only when every
/// shard failed. Interruption (deadline/cancel) keeps best-so-far.
Result<std::vector<ScoredSubspace>> RunHicsSearch(
    const ShardPlane& plane, const HicsParams& params,
    const RunContext& ctx = RunContext(), HicsRunStats* stats = nullptr);

/// Exposed lattice utilities (used internally and unit-tested directly).
namespace internal {

/// Generates all two-dimensional subspaces of a D-dimensional space in
/// lexicographic order.
std::vector<Subspace> AllTwoDimensionalSubspaces(std::size_t num_attributes);

/// Apriori merge step: joins every pair of d-dimensional subspaces sharing
/// their first d-1 attributes into (d+1)-dimensional candidates. `level`
/// must be sorted lexicographically; output is sorted and duplicate-free.
std::vector<Subspace> GenerateCandidates(const std::vector<Subspace>& level);

/// Redundancy pruning (paper §IV-B): removes a subspace T when the list
/// contains a superset S with |S| = |T|+1 and strictly higher score.
/// Returns the number of removed subspaces. Candidate supersets are
/// bucketed by dimensionality, so each subspace is only compared against
/// the adjacent-size bucket instead of the whole pool.
std::size_t PruneRedundant(std::vector<ScoredSubspace>* subspaces);

/// Scores one lattice level — the only plane-specific step of the search.
/// Scored subspaces move from `level` into `scored` in level order;
/// evaluations that failed are skipped and added to `stats`' failure
/// counts. `eval_base` is the number of evaluations issued before this
/// level (the base of the deterministic fault ordinals). Returns the
/// interruption (Cancelled / DeadlineExceeded) that cut the level short,
/// OK otherwise. The search driver and ComputeContrastMatrix both score
/// through it, so matrix entry (i, j) is the level-2 score of {i, j}.
using LevelScorer = std::function<Status(
    std::vector<Subspace> level, std::uint64_t eval_base,
    const RunContext& ctx, std::vector<ScoredSubspace>* scored,
    HicsRunStats* stats)>;

/// The level scorer of `plane`: per-shard estimators with
/// ShardIterations(M, S, s) iterations, merged by the row-count-weighted
/// average in shard order. On one shard it is the unsharded estimator:
/// the per-subspace stream, no "shard.contrast" probe, no shard-failure
/// tally, and the shard's value unmerged (see the ShardPlane
/// RunHicsSearch).
LevelScorer MakeLevelScorer(const ShardPlane& plane,
                            const stats::TwoSampleTest& test,
                            const ContrastParams& contrast, std::uint64_t seed,
                            std::size_t num_threads);

}  // namespace internal

}  // namespace hics

#endif  // HICS_CORE_HICS_H_
