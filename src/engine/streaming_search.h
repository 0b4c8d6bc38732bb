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
/// code, reading the current window of a StreamingDataset. Output is
/// byte-identical to a cold rebuild of the identical window — a fresh
/// PreparedDataset when the plane has one shard, a fresh ShardedDataset
/// at the same shard count otherwise — at every thread count;
/// tests/streaming_dataset_test.cc and bench_streaming assert it after
/// every slide (`streaming_identical` in CI).
///
/// Routing: a one-shard plane is the unsharded estimator on any route
/// (DESIGN.md §5i); these overloads send it to the whole-window
/// prepared artifact only so it keeps the warm window cache and the grid
/// carry across slides. A multi-shard plane runs through the ShardPlane
/// interface — identical code path, RNG streams, and merge order as
/// ShardedDataset, which is what makes cold/streaming byte-equality hold
/// by construction rather than by re-verification. ComputeContrastMatrix
/// needs no streaming overload: it takes the window as a ShardPlane.
Result<std::vector<ScoredSubspace>> RunHicsSearch(
    const StreamingDataset& streaming, const HicsParams& params,
    const RunContext& ctx = RunContext(), HicsRunStats* stats = nullptr);

/// Streaming ranking over the current window. One-shard planes rank
/// through the prepared path (exact for every scorer, cache-warm across
/// slides, so `policy` is not consulted); multi-shard planes rank
/// through RankWithSubspacesSharded under `policy` (kRequireExactMerge
/// fails for scorers that cannot merge per-shard state exactly — same
/// consent rule as the sharded API).
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
