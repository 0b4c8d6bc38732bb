#include "core/contrast_matrix.h"

#include <vector>

#include "common/parallel.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "stats/two_sample_test.h"

namespace hics {

// Validates, then scores every 2-D subspace through the plane's lattice
// level scorer — the same call the search makes for its first level — and
// mirrors the scores into the symmetric matrix.
Result<Matrix> ComputeContrastMatrix(const ShardPlane& plane,
                                     const ContrastMatrixParams& params) {
  const Dataset& dataset = plane.dataset();
  HICS_RETURN_NOT_OK(params.contrast.Validate());
  const auto test = stats::MakeTwoSampleTest(params.statistical_test);
  if (test == nullptr) {
    return Status::InvalidArgument("unknown statistical_test '" +
                                   params.statistical_test + "'");
  }
  const std::size_t d = dataset.num_attributes();
  if (d < 2) return Status::InvalidArgument("need at least 2 attributes");
  if (dataset.num_objects() < 2) {
    return Status::InvalidArgument("need at least 2 objects");
  }

  const std::size_t num_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const internal::LevelScorer score_level = internal::MakeLevelScorer(
      plane, *test, params.contrast, params.seed, num_threads);
  std::vector<ScoredSubspace> scored;
  HicsRunStats stats;
  HICS_RETURN_NOT_OK(score_level(internal::AllTwoDimensionalSubspaces(d),
                                 /*eval_base=*/0, RunContext(), &scored,
                                 &stats));

  Matrix result(d, d);
  for (const ScoredSubspace& s : scored) {
    result(s.subspace[0], s.subspace[1]) = s.score;
    result(s.subspace[1], s.subspace[0]) = s.score;
  }
  return result;
}

Result<Matrix> ComputeContrastMatrix(const Dataset& dataset,
                                     const ContrastMatrixParams& params) {
  const std::size_t build_threads =
      params.num_threads == 0 ? DefaultNumThreads() : params.num_threads;
  const PreparedDataset prepared(dataset, build_threads);
  return ComputeContrastMatrix(prepared, params);
}

}  // namespace hics
