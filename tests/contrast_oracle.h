// Reference contrast (Definition 5, Algorithm 1) through the materializing
// gather+sort path: each of the M Monte Carlo iterations draws a slice with
// SliceSampler::Draw, which gathers the test attribute's conditional
// sample, and scores it with TwoSampleTest::DeviationPresortedMarginal
// against the pre-sorted marginal. The library's ContrastEstimator computes
// the same quantity through the rank-space kernel (DESIGN.md §5d); both
// consume the RNG identically, so for one rng state the two contrasts must
// agree bit for bit. Header-only so tests and benches share one oracle.

#ifndef HICS_TESTS_CONTRAST_ORACLE_H_
#define HICS_TESTS_CONTRAST_ORACLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/dataset.h"
#include "common/random.h"
#include "common/subspace.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "engine/prepared_dataset.h"
#include "stats/two_sample_test.h"

namespace hics {

/// Per-caller working storage of the oracle; reusable across calls.
struct OracleScratch {
  SliceScratch slice;
  SliceDraw draw;
  std::vector<double> sorted_conditional;
};

/// The gather+sort contrast oracle over one dataset. Prepares the dataset
/// privately; `test` must outlive the oracle.
class ContrastOracle {
 public:
  ContrastOracle(const Dataset& dataset, const stats::TwoSampleTest& test,
                 ContrastParams params)
      : prepared_(PreparedDataset::Build(dataset, 1)),
        test_(test),
        params_(params),
        sampler_(prepared_->dataset(), prepared_->sorted_index()) {
    HICS_CHECK(params_.Validate().ok()) << params_.Validate().ToString();
  }

  /// Contrast of `subspace`: the mean of M gather+sort deviations,
  /// summed in iteration order exactly as ContrastEstimator::Contrast
  /// sums its rank-space deviations.
  double Contrast(const Subspace& subspace, Rng* rng,
                  OracleScratch* scratch) const {
    HICS_CHECK_GE(subspace.size(), 2u);
    double deviation_sum = 0.0;
    for (std::size_t iteration = 0; iteration < params_.num_iterations;
         ++iteration) {
      sampler_.Draw(subspace, params_.alpha, rng, &scratch->slice,
                    &scratch->draw);
      deviation_sum += test_.DeviationPresortedMarginal(
          prepared_->SortedColumn(scratch->draw.test_attribute),
          scratch->draw.conditional_sample, &scratch->sorted_conditional);
    }
    return deviation_sum / static_cast<double>(params_.num_iterations);
  }

  double Contrast(const Subspace& subspace, Rng* rng) const {
    OracleScratch scratch;
    return Contrast(subspace, rng, &scratch);
  }

  /// The contrast RunHicsSearch reports for `subspace` in an unsharded
  /// search seeded with `seed`: the oracle contrast on the search's
  /// documented per-subspace stream seed ^ (hash(S) * phi).
  double SearchContrast(const Subspace& subspace, std::uint64_t seed) const {
    Rng rng(seed ^ (SubspaceHash{}(subspace) * 0x9e3779b97f4a7c15ULL));
    return Contrast(subspace, &rng);
  }

 private:
  std::shared_ptr<const PreparedDataset> prepared_;
  const stats::TwoSampleTest& test_;
  ContrastParams params_;
  SliceSampler sampler_;
};

}  // namespace hics

#endif  // HICS_TESTS_CONTRAST_ORACLE_H_
