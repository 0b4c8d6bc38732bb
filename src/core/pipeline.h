#ifndef HICS_CORE_PIPELINE_H_
#define HICS_CORE_PIPELINE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "outlier/outlier_scorer.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// Fault-isolation record of one pipeline run. HiCS aggregates an ensemble
/// of per-subspace scores (Definition 1), so a failed member is skipped and
/// the average renormalizes over the survivors; this struct says exactly
/// what was dropped and why, so degraded results are auditable.
struct PipelineDiagnostics {
  /// Subspaces handed to the outlier ranker (search output size).
  std::size_t requested_subspaces = 0;
  /// Subspaces whose scorer succeeded and entered the aggregate.
  std::size_t scored_subspaces = 0;
  /// Subspaces skipped because their scorer failed (isolated faults).
  std::size_t skipped_subspaces = 0;
  /// The run hit its deadline / was cancelled somewhere (search or
  /// ranking); the result is partial-but-valid per the degraded-execution
  /// contract.
  bool deadline_exceeded = false;
  bool cancelled = false;
  /// Every subspace failed (or the search returned none) and the scores
  /// come from full-space scoring instead.
  bool used_fullspace_fallback = false;
  /// One entry per skipped subspace, with the error that caused the skip.
  std::vector<SubspaceFailure> failures;
  /// Error tallies keyed by failure site ("scorer.lof",
  /// "contrast.estimate", ...): how many faults each site absorbed.
  std::map<std::string, std::size_t> error_tally;

  bool degraded() const {
    return skipped_subspaces > 0 || deadline_exceeded || cancelled ||
           used_fullspace_fallback;
  }
};

/// Result of the full two-step HiCS outlier ranking.
struct PipelineResult {
  /// Final outlier score per object (higher = more outlying), aggregated
  /// over the selected subspaces per Definition 1.
  std::vector<double> scores;
  /// The high-contrast subspaces the scores were computed in, sorted by
  /// descending contrast.
  std::vector<ScoredSubspace> subspaces;
  /// Search diagnostics.
  HicsRunStats search_stats;
  /// Degraded-execution diagnostics (all zeros/false on a clean run).
  PipelineDiagnostics diagnostics;
};

/// Runs the complete decoupled pipeline from the paper:
/// (1) HiCS subspace search, (2) density-based outlier ranking with
/// `scorer` in each selected subspace, averaged (or maxed) per object.
/// The Dataset overload is a thin adapter that prepares privately and
/// delegates to the PreparedDataset overload.
///
/// If the search returns no subspace (degenerate data), the scorer runs on
/// the full space so the pipeline always produces a ranking.
///
/// Graceful degradation under `ctx`:
///  - deadline expiry / cancellation stops work at the next checkpoint and
///    returns the best result assembled so far (flagged in `diagnostics`),
///    never a hang and — as long as at least one scoring path succeeded —
///    never an error;
///  - a per-subspace scorer failure is isolated: the subspace is skipped,
///    recorded in `diagnostics`, and the aggregation renormalizes over the
///    surviving subspaces;
///  - only when *every* subspace fails does the pipeline fall back to
///    full-space scoring; an error surfaces only when that fallback fails
///    too (or the search itself cannot run at all).
Result<PipelineResult> RunHicsPipeline(
    const Dataset& dataset, const HicsParams& params,
    const OutlierScorer& scorer, const RunContext& ctx = RunContext(),
    ScoreAggregation aggregation = ScoreAggregation::kAverage);

/// Prepared-path pipeline: search and ranking share `prepared`'s sorted
/// index and artifact cache end-to-end — one rank-artifact build per
/// dataset, and repeated runs (the serving pattern) reuse cached kNN
/// tables and score vectors. Bit-identical to the Dataset
/// overload for every cache state.
Result<PipelineResult> RunHicsPipeline(
    const PreparedDataset& prepared, const HicsParams& params,
    const OutlierScorer& scorer, const RunContext& ctx = RunContext(),
    ScoreAggregation aggregation = ScoreAggregation::kAverage);

/// Returns object indices sorted by descending score — the outlier ranking.
std::vector<std::size_t> RankingFromScores(const std::vector<double>& scores);

}  // namespace hics

#endif  // HICS_CORE_PIPELINE_H_
