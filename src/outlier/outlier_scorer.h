#ifndef HICS_OUTLIER_OUTLIER_SCORER_H_
#define HICS_OUTLIER_OUTLIER_SCORER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "engine/prepared_dataset.h"
#include "index/neighbor_searcher.h"

namespace hics {

class ShardPlane;  // engine/shard_plane.h

/// Clamps a neighborhood size `k` to the `num_objects - 1` possible
/// neighbors an in-sample query has, logging a one-line stderr diagnostic
/// the first time a given caller clamps (so a misconfigured k >= N is
/// visible instead of silently shrunk). Returns the effective k; 0 when
/// fewer than two objects exist. `who` names the clamping entry point in
/// the diagnostic, e.g. "lof".
std::size_t ClampNeighborhoodSize(std::size_t k, std::size_t num_objects,
                                  const char* who);

/// Per-subspace trained state a scorer needs to score *out-of-sample*
/// queries against a fitted dataset without refitting: scorer-defined
/// channels of per-training-object doubles (LOF stores the k-distance and
/// lrd of every training object; the kNN scorers need no state beyond the
/// searcher). Opaque to the serving layer, which only stores, serializes,
/// and hands it back to the scorer that built it.
struct TrainedScorerState {
  std::vector<std::vector<double>> channels;

  friend bool operator==(const TrainedScorerState& a,
                         const TrainedScorerState& b) {
    return a.channels == b.channels;
  }
};

/// What fitting one subspace produces: the in-sample scores (exactly
/// ScoreSubspacePrepared's) and the trained state out-of-sample queries
/// are scored against.
struct FittedSubspace {
  std::vector<double> scores;
  TrainedScorerState state;
};

/// Interface for a density-based outlier score score_S(x): given a dataset
/// and a subspace, produce one score per object, higher = more outlying.
///
/// This is the second step of the paper's decoupled processing: HiCS (or any
/// other subspace search) selects subspaces, and any implementation of this
/// interface ranks objects within them. The paper instantiates it with LOF;
/// this library implements it for LOF, the kNN-distance and kNN-average
/// scores, the grid-density score and a univariate baseline.
///
/// One in-sample seam: a scorer implements ScoreSubspacePrepared, which
/// may draw shared derived state (projected searchers, grids) from the
/// prepared artifact's cache and computes kNN tables through it. Every
/// other in-sample entry point — the Dataset adapter, the memoizing and
/// checked variants, the ranking functions, FitSubspace's default —
/// reaches the scorer through it, so they all return the same bits; only
/// the wall clock depends on the cache state.
class OutlierScorer {
 public:
  virtual ~OutlierScorer() = default;

  /// Scores every object of `prepared.dataset()` with distances restricted
  /// to `subspace`. Returns a vector of size prepared.num_objects(). Derived
  /// state may come from (and be published to) `prepared`'s artifact
  /// cache; the result must not depend on what the cache holds.
  virtual std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const = 0;

  /// Dataset adapter: scores through a transient PreparedDataset. Its rank
  /// artifacts are built lazily, so this costs one empty ArtifactCache,
  /// and whatever the scorer caches is dropped on return.
  std::vector<double> ScoreSubspace(const Dataset& dataset,
                                    const Subspace& subspace) const {
    const PreparedDataset prepared(dataset);
    return ScoreSubspacePrepared(prepared, subspace);
  }

  /// Scores in the full data space.
  std::vector<double> ScoreFullSpace(const Dataset& dataset) const {
    return ScoreSubspace(dataset, dataset.FullSpace());
  }

  /// True when ScoreSubspaceSharded merges per-shard state *exactly*: its
  /// output is bit-identical to ScoreSubspacePrepared over the full
  /// dataset. The grid-density scorer merges histogram cell counts
  /// additively and qualifies; neighbor-based scorers (a point's kNN can
  /// cross shard boundaries) do not, and keep the default.
  virtual bool SupportsExactShardedMerge() const { return false; }

  /// Scores every object of the sharded dataset's full data against
  /// `subspace`, size sharded.num_objects(), in object-id order.
  ///
  /// Exact-merge scorers (SupportsExactShardedMerge() == true) override
  /// this to fit per-shard state against the sharded plane's GLOBAL
  /// attribute ranges and merge it exactly — bit-identical to the
  /// unsharded prepared path for any shard count.
  ///
  /// The default is the documented *per-shard approximation*: each shard
  /// is scored locally (ScoreSubspacePrepared on the shard's artifact,
  /// drawing on its own cache) and the vectors are concatenated in shard
  /// order. For neighborhood scorers this means a point's neighbors —
  /// and the normalization of its score — come from its own shard only;
  /// scores approach the unsharded ones as shards grow and are a
  /// legitimate estimator per shard, but they are NOT comparable to
  /// unsharded scores bit-for-bit. Callers opt in through
  /// ShardedScoringPolicy (subspace_ranker.h).
  virtual std::vector<double> ScoreSubspaceSharded(
      const ShardPlane& sharded, const Subspace& subspace) const;

  /// Prepared, fallible, *memoizing* entry point — what the degraded
  /// ranking path calls per subspace. It honors the context
  /// (cancellation/deadline checked up front), exposes the fault-injection
  /// site "scorer.<name>", and validates the output: a wrong-sized or
  /// non-finite score vector becomes a Status error naming the offending
  /// objects instead of silently poisoning the aggregate.
  ///
  /// `fault_ordinal`, when non-zero, is this call's 1-based position in
  /// the caller's logical scoring sequence (the subspace index in a
  /// ranking pass); the fault site is probed with it so fault placement
  /// is deterministic under parallel ranking. 0 counts by arrival order.
  ///
  /// Order of operations is part of the bit-identity contract between
  /// cold and warm caches:
  ///  1. context checkpoint, then the "scorer.<name>" fault probe — both
  ///     happen *before* any cache access, so an injected fault fires on
  ///     the same ordinal whether the cache is cold or warm;
  ///  2. cache lookup under cache_key() (skipped for scorers that opt out
  ///     with an empty key); a hit returns the memoized vector;
  ///  3. on a miss, ScoreSubspacePrepared computes, the result is
  ///     validated, and only a *valid* result is published to the cache —
  ///     a failed or skipped subspace never populates (or poisons) it.
  Result<std::vector<double>> ScoreSubspacePreparedChecked(
      const PreparedDataset& prepared, const Subspace& subspace,
      const RunContext& ctx, std::uint64_t fault_ordinal = 0) const;

  /// Infallible memoizing variant for the non-degraded prepared ranking
  /// path: cache lookup, compute on miss, publish only finite
  /// right-sized results (the same validity rule the checked path
  /// enforces, so the two paths can never observe different cache
  /// contents for one key).
  std::vector<double> ScoreSubspaceCached(const PreparedDataset& prepared,
                                          const Subspace& subspace) const;

  /// Semantic identity of this scorer for the per-subspace score cache:
  /// two scorer instances with equal cache_key() must produce bit-identical
  /// ScoreSubspacePrepared output on every (dataset, subspace). The key must
  /// therefore encode every score-affecting parameter (k, bandwidths, ...)
  /// and must exclude pure performance knobs (threads, backend, batching),
  /// which by the library's determinism discipline never change scores.
  /// Returning "" (the default) opts the scorer out of score caching —
  /// the safe choice for scorers whose parameters are not represented.
  virtual std::string cache_key() const { return ""; }

  /// True when the scorer can score out-of-sample queries from trained
  /// state (FitSubspace / ScoreOutOfSample below). Scorers that only
  /// define in-sample semantics keep the default.
  virtual bool SupportsOutOfSample() const { return false; }

  /// The neighborhood size this scorer queries with (LOF's min_pts, the
  /// kNN scorers' k) before any dataset clamping; 0 for scorers without a
  /// neighborhood notion. The serving layer uses it to size searcher
  /// queries, and runs none at all when it is 0: such a scorer answers
  /// out-of-sample queries from its trained state alone.
  virtual std::size_t NeighborhoodSize() const { return 0; }

  /// Fits one subspace of the training dataset: its in-sample scores,
  /// bit-identical to ScoreSubspacePrepared, and the trained state
  /// ScoreOutOfSample reads, both from one draw of the subspace's
  /// neighborhood (LOF: one kNN table; grid-density: one grid). The state
  /// is only meaningful when SupportsOutOfSample(); the default scores
  /// through ScoreSubspacePrepared and returns an empty state.
  virtual FittedSubspace FitSubspace(const PreparedDataset& prepared,
                                     const Subspace& subspace) const {
    return {ScoreSubspacePrepared(prepared, subspace), {}};
  }

  /// Scores one out-of-sample query from its projected coordinates
  /// (`projected[j]` = query value of subspace attribute j), its
  /// neighborhood among the *training* objects (`neighbors`, ascending
  /// (distance, id), nothing excluded; empty when NeighborhoodSize() is
  /// 0) and the state built at fit time. Neighbor scorers read
  /// `neighbors`, the grid-density scorer reads `projected`. Must not
  /// depend on other queries — serving batches in any split is
  /// bit-identical to one query at a time. CHECK-fails on scorers without
  /// out-of-sample support; the serving layer gates on
  /// SupportsOutOfSample() and returns a typed Status instead.
  virtual double ScoreOutOfSample(std::span<const double> projected,
                                  std::span<const Neighbor> neighbors,
                                  const TrainedScorerState& state) const;

  /// Short identifier, e.g. "lof".
  virtual std::string name() const = 0;
};

}  // namespace hics

#endif  // HICS_OUTLIER_OUTLIER_SCORER_H_
