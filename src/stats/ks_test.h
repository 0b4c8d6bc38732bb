#ifndef HICS_STATS_KS_TEST_H_
#define HICS_STATS_KS_TEST_H_

#include <span>
#include <string>

#include "stats/two_sample_test.h"

namespace hics::stats {

/// Detailed outcome of a two-sample Kolmogorov-Smirnov test.
struct KsResult {
  double statistic = 0.0;  ///< sup_x |F_A(x) - F_B(x)| (Eq. 11).
  double p_value = 1.0;    ///< Asymptotic two-sided significance.
  bool valid = false;      ///< False when either sample is empty.
};

/// Two-sample KS test over samples both sorted ascending; O(n) merge.
KsResult KsTestSorted(std::span<const double> a_sorted,
                      std::span<const double> b_sorted);

/// HiCS_KS deviation function: the KS statistic itself, the maximal
/// difference of the two empirical CDFs (paper §III-E, Eq. 11).
class KsDeviation : public TwoSampleTest {
 public:
  /// Rank-space path: emits the conditional sample already sorted
  /// (SelectSorted), then runs the O(n) sorted merge — the per-draw
  /// O(m log m) sort disappears.
  double DeviationFromSelection(const SelectionView& view,
                                SelectionScratch* scratch) const override;
  std::string name() const override { return "ks"; }
};

}  // namespace hics::stats

#endif  // HICS_STATS_KS_TEST_H_
