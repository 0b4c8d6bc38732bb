#include "engine/streaming_search.h"

namespace hics {

Result<std::vector<double>> RankWithSubspaces(
    const StreamingDataset& streaming,
    const std::vector<ScoredSubspace>& subspaces, const OutlierScorer& scorer,
    ScoreAggregation aggregation, ShardedScoringPolicy policy,
    std::size_t num_threads) {
  return RankWithSubspacesSharded(streaming, subspaces, scorer, aggregation,
                                  policy, num_threads);
}

}  // namespace hics
