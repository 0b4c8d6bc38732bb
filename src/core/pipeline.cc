#include "core/pipeline.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/parallel.h"

namespace hics {

Result<PipelineResult> RunHicsPipeline(const Dataset& dataset,
                                       const HicsParams& params,
                                       const OutlierScorer& scorer,
                                       const RunContext& ctx,
                                       ScoreAggregation aggregation) {
  // Thin adapter: one private PreparedDataset already pays off within a
  // single run — search and ranking share the sorted-index build.
  const std::size_t build_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const PreparedDataset prepared(dataset, build_threads);
  return RunHicsPipeline(prepared, params, scorer, ctx, aggregation);
}

Result<PipelineResult> RunHicsPipeline(const PreparedDataset& prepared,
                                       const HicsParams& params,
                                       const OutlierScorer& scorer,
                                       const RunContext& ctx,
                                       ScoreAggregation aggregation) {
  PipelineResult result;
  HICS_ASSIGN_OR_RETURN(
      result.subspaces,
      RunHicsSearch(prepared, params, ctx, &result.search_stats));

  PipelineDiagnostics& diag = result.diagnostics;
  diag.deadline_exceeded = result.search_stats.deadline_exceeded;
  diag.cancelled = result.search_stats.cancelled;
  if (result.search_stats.failed_contrast_evaluations > 0) {
    diag.error_tally["contrast.estimate"] +=
        result.search_stats.failed_contrast_evaluations;
  }

  diag.requested_subspaces = result.subspaces.size();

  DegradedRankingResult ranked = RankWithSubspacesDegraded(
      prepared, PlainSubspaces(result.subspaces), scorer, aggregation, ctx,
      params.num_threads);
  diag.scored_subspaces = ranked.succeeded;
  diag.skipped_subspaces = ranked.failures.size();
  diag.deadline_exceeded |= ranked.deadline_exceeded;
  diag.cancelled |= ranked.cancelled;
  const std::string scorer_site = "scorer." + scorer.name();
  for (SubspaceFailure& failure : ranked.failures) {
    ++diag.error_tally[scorer_site];
    diag.failures.push_back(std::move(failure));
  }

  if (!ranked.scores.empty()) {
    result.scores = std::move(ranked.scores);
    return result;
  }

  // No subspace produced scores: either the search returned none
  // (degenerate data, the historical full-space path) or every member of
  // the ensemble failed. Fall back to scoring the full space; surface an
  // error only when that fails too.
  Result<std::vector<double>> full = scorer.ScoreSubspacePreparedChecked(
      prepared, prepared.dataset().FullSpace(), ctx);
  if (full.ok()) {
    diag.used_fullspace_fallback = true;
    result.scores = std::move(full).ValueOrDie();
    return result;
  }
  if (!diag.failures.empty()) {
    return Status(full.status().code(),
                  "all " + std::to_string(diag.requested_subspaces) +
                      " subspaces failed (first: " +
                      diag.failures.front().status.ToString() +
                      ") and full-space fallback failed: " +
                      full.status().ToString());
  }
  return full.status();
}

std::vector<std::size_t> RankingFromScores(
    const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

}  // namespace hics
