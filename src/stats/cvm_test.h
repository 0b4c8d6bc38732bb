#ifndef HICS_STATS_CVM_TEST_H_
#define HICS_STATS_CVM_TEST_H_

#include <span>
#include <string>

#include "stats/two_sample_test.h"

namespace hics::stats {

/// Detailed outcome of the two-sample Cramer-von Mises-type test.
struct CvmResult {
  /// Normalized L2 distance of the two empirical CDFs:
  /// sqrt( (1/K) * sum_k (F_A(z_k) - F_B(z_k))^2 ) over the K points of
  /// the combined sample. Lies in [0, 1]; the L2 analog of the KS
  /// sup-statistic.
  double statistic = 0.0;
  /// Classic two-sample Cramer-von Mises T statistic
  /// (n*m/(n+m)) * integral (F_A - F_B)^2 dH, for reference.
  double t_statistic = 0.0;
  bool valid = false;
};

/// Runs the test over samples both sorted ascending; O(n + m) merge.
CvmResult CvmTestSorted(std::span<const double> a, std::span<const double> b);

/// Third instantiation of the HiCS deviation function ("cvm"): integrates
/// the *whole* CDF difference instead of its supremum, making it less
/// sensitive to a single crossing point than KS while sharing its
/// distribution-free nature. The paper's KS reference (Stephens 1970)
/// covers the Cramer-von Mises family alongside KS.
class CvmDeviation : public TwoSampleTest {
 public:
  /// Rank-space path: sorted-order emission of the conditional
  /// (SelectSorted) feeding the O(n) sorted merge.
  double DeviationFromSelection(const SelectionView& view,
                                SelectionScratch* scratch) const override;
  std::string name() const override { return "cvm"; }
};

}  // namespace hics::stats

#endif  // HICS_STATS_CVM_TEST_H_
