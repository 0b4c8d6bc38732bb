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

/// Interface for a density-based outlier score score_S(x): given a dataset
/// and a subspace, produce one score per object, higher = more outlying.
///
/// This is the second step of the paper's decoupled processing: HiCS (or any
/// other subspace search) selects subspaces, and any implementation of this
/// interface ranks objects within them. The paper instantiates it with LOF
/// and names ORCA/OUTRES as future alternatives. This library implements
/// it for LOF, the kNN-distance and kNN-average scores, the grid-density
/// score, LOCI, ABOD, OutRes and a univariate baseline; ORCA's top-n
/// miner (outlier/orca.h) is a separate entry point, not a scorer.
///
/// Two entry-point families:
///  - the (Dataset, Subspace) pair is the self-contained cold path;
///  - the (PreparedDataset, Subspace) pair draws shared derived state
///    (projected searchers, kNN tables, memoized score vectors) from the
///    prepared artifact, amortizing repeated scoring of one dataset. Both
///    families return bit-identical scores; the prepared path only trades
///    wall clock.
class OutlierScorer {
 public:
  virtual ~OutlierScorer() = default;

  /// Scores every object of `dataset` with distances restricted to
  /// `subspace`. Returns a vector of size dataset.num_objects().
  virtual std::vector<double> ScoreSubspace(const Dataset& dataset,
                                            const Subspace& subspace) const = 0;

  /// Prepared-path scoring: same contract and bit-identical result as
  /// ScoreSubspace, but derived state may come from `prepared`'s artifact
  /// cache instead of being rebuilt. The default adapter simply scores the
  /// prepared dataset's column store; searcher-based scorers override it
  /// to reuse cached searchers / kNN tables.
  virtual std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const {
    return ScoreSubspace(prepared.dataset(), subspace);
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

  /// Fallible entry point used by the degraded-execution pipeline: honors
  /// the context (cancellation/deadline checked up front), exposes the
  /// fault-injection site "scorer.<name>", and validates the output — a
  /// wrong-sized or non-finite score vector becomes a Status error naming
  /// the offending objects instead of silently poisoning the aggregate.
  ///
  /// `fault_ordinal`, when non-zero, is this call's 1-based position in
  /// the caller's logical scoring sequence (the subspace index in a
  /// ranking pass); the fault site is probed with it so fault placement
  /// is deterministic under parallel ranking. 0 counts by arrival order.
  Result<std::vector<double>> ScoreSubspaceChecked(
      const Dataset& dataset, const Subspace& subspace, const RunContext& ctx,
      std::uint64_t fault_ordinal = 0) const;

  /// Prepared, fallible, *memoizing* entry point — what the prepared
  /// ranking paths call per subspace. Order of operations is part of the
  /// bit-identity contract with the cold path:
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
  /// ScoreSubspace output on every (dataset, subspace). The key must
  /// therefore encode every score-affecting parameter (k, bandwidths, ...)
  /// and must exclude pure performance knobs (threads, backend, batching),
  /// which by the library's determinism discipline never change scores.
  /// Returning "" (the default) opts the scorer out of score caching —
  /// the safe choice for scorers whose parameters are not represented.
  virtual std::string cache_key() const { return ""; }

  /// True when the scorer can score out-of-sample queries from trained
  /// state (BuildTrainedState / ScoreOutOfSample below). Scorers that only
  /// define in-sample semantics keep the default.
  virtual bool SupportsOutOfSample() const { return false; }

  /// The neighborhood size this scorer queries with (LOF's min_pts, the
  /// kNN scorers' k) before any dataset clamping; 0 for scorers without a
  /// neighborhood notion. The serving layer uses it to size searcher
  /// queries and trained kNN tables.
  virtual std::size_t NeighborhoodSize() const { return 0; }

  /// Builds the per-subspace trained state from the fitted dataset's
  /// all-kNN table for this subspace (row q = neighbors of training object
  /// q). Only meaningful when SupportsOutOfSample(); the default state is
  /// empty.
  virtual TrainedScorerState BuildTrainedState(
      const KnnResultTable& table) const {
    (void)table;
    return {};
  }

  /// Scores one out-of-sample query from its neighborhood among the
  /// *training* objects (`neighbors`, ascending (distance, id), nothing
  /// excluded) and the state built at fit time. Must not depend on other
  /// queries — serving batches in any split is bit-identical to one query
  /// at a time. CHECK-fails on scorers without out-of-sample support; the
  /// serving layer gates on SupportsOutOfSample() and returns a typed
  /// Status instead.
  virtual double ScoreOutOfSample(std::span<const Neighbor> neighbors,
                                  const TrainedScorerState& state) const;

  /// True when ScoreOutOfSample consumes a neighbor list — the serving
  /// layer then runs a kNN query per (query, subspace). Neighbor-free
  /// scorers (the grid-density tier answers from histogram state alone)
  /// return false, and serving skips the searcher entirely: O(1) per
  /// query instead of a tree descent or brute scan.
  virtual bool OutOfSampleNeedsNeighbors() const { return true; }

  /// Builds the per-subspace trained state directly from the prepared
  /// dataset — the fit path for scorers whose state is not a function of
  /// a kNN table (OutOfSampleNeedsNeighbors() == false). The default
  /// state is empty.
  virtual TrainedScorerState BuildTrainedStatePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const {
    (void)prepared;
    (void)subspace;
    return {};
  }

  /// Scores one out-of-sample query from its projected coordinates
  /// (`projected[j]` = query value of subspace attribute j) and the state
  /// built at fit time — the neighbor-free counterpart of
  /// ScoreOutOfSample, used when OutOfSampleNeedsNeighbors() is false.
  /// Same independence contract: must not depend on other queries.
  /// CHECK-fails on scorers that do not implement it.
  virtual double ScoreOutOfSamplePoint(std::span<const double> projected,
                                       const TrainedScorerState& state) const;

  /// Short identifier, e.g. "lof".
  virtual std::string name() const = 0;
};

}  // namespace hics

#endif  // HICS_OUTLIER_OUTLIER_SCORER_H_
