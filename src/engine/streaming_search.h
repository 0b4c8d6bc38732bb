#ifndef HICS_ENGINE_STREAMING_SEARCH_H_
#define HICS_ENGINE_STREAMING_SEARCH_H_

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "engine/streaming_dataset.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// Streaming overloads of the search and ranking entry points: the same
/// algorithms, reading the current window of a StreamingDataset through
/// whichever substrate matches its shard count. Output is byte-identical
/// to a cold rebuild of the identical window — a fresh PreparedDataset
/// when the plane is unsharded (num_shards() == 1), a fresh
/// ShardedDataset at the same shard count otherwise — at every thread
/// count; tests/streaming_dataset_test.cc and bench_streaming assert it
/// after every slide (`streaming_identical` in CI).
///
/// Routing rationale: a one-shard plane runs the *unsharded* estimator
/// over the whole-window prepared artifact (so single-stream deployments
/// keep the canonical estimator and its warm window cache), while a
/// multi-shard plane runs the sharded estimator through the ShardPlane
/// interface — identical code path, RNG streams, and merge order as
/// ShardedDataset, which is what makes cold/streaming byte-equality hold
/// by construction rather than by re-verification.
Result<std::vector<ScoredSubspace>> RunHicsSearch(
    const StreamingDataset& streaming, const HicsParams& params,
    const RunContext& ctx = RunContext(), HicsRunStats* stats = nullptr);

/// Streaming ranking over the current window. One-shard planes rank
/// through the prepared path (exact for every scorer, cache-warm across
/// slides); multi-shard planes rank through RankWithSubspacesSharded
/// under `policy` (kRequireExactMerge fails for scorers that cannot merge
/// per-shard state exactly — same consent rule as the sharded API).
/// With an empty subspace list, scores the full space.
Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

/// Streaming convenience overload for scored subspaces (the search
/// output).
Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

}  // namespace hics

#endif  // HICS_ENGINE_STREAMING_SEARCH_H_
