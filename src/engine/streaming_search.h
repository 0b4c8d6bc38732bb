#ifndef HICS_ENGINE_STREAMING_SEARCH_H_
#define HICS_ENGINE_STREAMING_SEARCH_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "engine/streaming_dataset.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// A StreamingDataset is a ShardPlane, so the search, the contrast matrix
/// and the ranking read its current window through the plane overloads
/// (RunHicsSearch, ComputeContrastMatrix, RankWithSubspacesSharded): the
/// same code, RNG streams and merge order as ShardedDataset, which makes
/// the output byte-identical to a cold rebuild of the identical window —
/// a fresh PreparedDataset when the plane has one shard, a fresh
/// ShardedDataset at the same shard count otherwise — at every thread
/// count; tests/streaming_dataset_test.cc and bench_streaming assert it
/// after every slide (`streaming_identical` in CI). A one-shard window is
/// its own shard, so it searches the window's sorted index (merged from
/// the previous epoch's when that was built) and ranks through the window
/// cache.
///
/// Streaming ranking of scored subspaces (the search output): forwards
/// to RankWithSubspacesSharded. Multi-shard planes rank under `policy`
/// (kRequireExactMerge fails for scorers that cannot merge per-shard
/// state exactly); a one-shard window is exact for every scorer.
Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation = ScoreAggregation::kAverage,
    ShardedScoringPolicy policy = ShardedScoringPolicy::kRequireExactMerge,
    std::size_t num_threads = 1);

}  // namespace hics

#endif  // HICS_ENGINE_STREAMING_SEARCH_H_
