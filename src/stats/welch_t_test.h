#ifndef HICS_STATS_WELCH_T_TEST_H_
#define HICS_STATS_WELCH_T_TEST_H_

#include <cstddef>
#include <string>

#include "stats/two_sample_test.h"

namespace hics::stats {

/// Detailed outcome of a Welch two-sample t-test.
struct WelchResult {
  double t = 0.0;                 ///< Test statistic (Eq. 9).
  double degrees_of_freedom = 0;  ///< Welch-Satterthwaite estimate.
  double p_value = 1.0;           ///< Two-tailed p-value.
  bool valid = false;             ///< False when the test is degenerate.
};

/// Welch's unequal-variance t-test from sufficient statistics (size, mean,
/// unbiased sample variance of each sample). Over two raw samples it is
/// this after computing the moments with Mean/SampleVariance; the fused
/// contrast kernel precomputes the marginal's moments and computes the
/// conditional's over the selection, so it never touches a sample twice.
/// Returns invalid when either size is < 2.
WelchResult WelchTTestFromMoments(std::size_t n_a, double mean_a,
                                  double var_a, std::size_t n_b,
                                  double mean_b, double var_b);

/// HiCS_WT deviation function: 1 - p_t where p_t is the two-tailed p-value
/// of Welch's t statistic under the Student-t distribution with
/// Welch-Satterthwaite degrees of freedom (paper §III-E).
class WelchTDeviation : public TwoSampleTest {
 public:
  /// Fused path: one slice_select pass writes the conditional in object-id
  /// order, the canonical moment kernels sum it (the same summation order
  /// Mean/SampleVariance apply to the gathered vector), and the view's
  /// precomputed marginal moments are reused — no mask, no O(N) marginal
  /// re-scan.
  double DeviationFromSelection(const SelectionView& view,
                                SelectionScratch* scratch) const override;
  std::string name() const override { return "welch"; }
};

}  // namespace hics::stats

#endif  // HICS_STATS_WELCH_T_TEST_H_
