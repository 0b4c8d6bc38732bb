#include "engine/streaming_search.h"

namespace hics {

Result<std::vector<ScoredSubspace>> RunHicsSearch(
    const StreamingDataset& streaming, const HicsParams& params,
    const RunContext& ctx, HicsRunStats* stats) {
  if (streaming.num_shards() == 1) {
    return RunHicsSearch(streaming.prepared(), params, ctx, stats);
  }
  return RunHicsSearch(static_cast<const ShardPlane&>(streaming), params, ctx,
                       stats);
}

Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming, const std::vector<Subspace>& subspaces,
    const OutlierScorer& scorer, ScoreAggregation aggregation,
    ShardedScoringPolicy policy, std::size_t num_threads) {
  if (streaming.num_shards() == 1) {
    return RankWithSubspaces(streaming.prepared(), subspaces, scorer,
                             aggregation, num_threads);
  }
  return RankWithSubspacesSharded(static_cast<const ShardPlane&>(streaming),
                                  subspaces, scorer, aggregation, policy,
                                  num_threads);
}

Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads) {
  return RankWithSubspaces(streaming, PlainSubspaces(subspaces), scorer,
                           aggregation, policy, num_threads);
}

}  // namespace hics
