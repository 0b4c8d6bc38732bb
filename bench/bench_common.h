#ifndef HICS_BENCH_BENCH_COMMON_H_
#define HICS_BENCH_BENCH_COMMON_H_

// Shared helpers for the figure/table reproduction harnesses. Each bench
// binary prints the series/rows of one artifact of the paper's evaluation
// section (see DESIGN.md §3 for the index).

#include <cstdio>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "common/subspace.h"
#include "common/timer.h"
#include "eval/roc.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "search/subspace_search.h"

namespace hics::bench {

/// Aborts the bench with a readable message when a Status is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Outcome of running one subspace-search method + LOF ranking.
struct MethodRun {
  std::string method;
  double auc = 0.0;
  double runtime_seconds = 0.0;  ///< search + ranking, as in the paper
  std::size_t num_subspaces = 0;
  std::vector<double> scores;
};

/// Runs `method` as pre-processing for a LOF ranking with shared
/// parameters (paper §V: same LOF model and MinPts for all competitors)
/// and evaluates against the dataset labels.
inline MethodRun RunSubspaceMethod(const SubspaceSearchMethod& method,
                                   const Dataset& data,
                                   std::size_t lof_min_pts) {
  MethodRun run;
  run.method = method.name();
  const LofScorer lof({lof_min_pts});
  Timer timer;
  auto subspaces = Unwrap(method.Search(data), run.method.c_str());
  run.num_subspaces = subspaces.size();
  run.scores =
      RankWithSubspaces(PreparedDataset(data), PlainSubspaces(subspaces), lof);
  run.runtime_seconds = timer.ElapsedSeconds();
  if (data.has_labels()) {
    run.auc = Unwrap(ComputeAuc(run.scores, data.labels()), "AUC");
  }
  return run;
}

/// Full-space LOF baseline (no subspace search).
inline MethodRun RunFullSpaceLof(const Dataset& data,
                                 std::size_t lof_min_pts) {
  MethodRun run;
  run.method = "LOF";
  const LofScorer lof({lof_min_pts});
  Timer timer;
  run.scores = lof.ScoreFullSpace(data);
  run.runtime_seconds = timer.ElapsedSeconds();
  run.num_subspaces = 1;
  if (data.has_labels()) {
    run.auc = Unwrap(ComputeAuc(run.scores, data.labels()), "AUC");
  }
  return run;
}

}  // namespace hics::bench

#endif  // HICS_BENCH_BENCH_COMMON_H_
