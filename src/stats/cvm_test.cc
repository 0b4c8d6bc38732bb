#include "stats/cvm_test.h"

#include <cmath>

namespace hics::stats {

CvmResult CvmTestSorted(std::span<const double> a,
                        std::span<const double> b) {
  CvmResult result;
  if (a.empty() || b.empty()) return result;

  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double sum_sq = 0.0;
  // Walk the merged sample; after consuming each distinct value z (with
  // its ties from both sides), accumulate (F_A(z) - F_B(z))^2 once per
  // consumed point (so frequent values weigh more, as in the classic
  // integral w.r.t. the combined empirical distribution H).
  while (ia < a.size() || ib < b.size()) {
    double z;
    if (ib >= b.size() || (ia < a.size() && a[ia] <= b[ib])) {
      z = a[ia];
    } else {
      z = b[ib];
    }
    std::size_t consumed = 0;
    while (ia < a.size() && a[ia] == z) {
      ++ia;
      ++consumed;
    }
    while (ib < b.size() && b[ib] == z) {
      ++ib;
      ++consumed;
    }
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    sum_sq += static_cast<double>(consumed) * (fa - fb) * (fa - fb);
  }
  const double total = na + nb;
  result.statistic = std::sqrt(sum_sq / total);
  result.t_statistic = na * nb / (total * total) * sum_sq;
  result.valid = true;
  return result;
}

double CvmDeviation::DeviationFromSelection(const SelectionView& view,
                                         SelectionScratch* scratch) const {
  const std::span<const double> conditional = SelectSorted(view, scratch);
  if (view.marginal_sorted.empty() || conditional.empty()) return 0.0;
  const CvmResult r = CvmTestSorted(view.marginal_sorted, conditional);
  return r.valid ? r.statistic : 0.0;
}

}  // namespace hics::stats
