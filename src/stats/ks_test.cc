#include "stats/ks_test.h"

#include <algorithm>
#include <cmath>

#include "stats/distributions.h"

namespace hics::stats {

KsResult KsTestSorted(std::span<const double> a_sorted,
                      std::span<const double> b_sorted) {
  KsResult result;
  if (a_sorted.empty() || b_sorted.empty()) return result;

  const double na = static_cast<double>(a_sorted.size());
  const double nb = static_cast<double>(b_sorted.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double max_diff = 0.0;
  while (ia < a_sorted.size() && ib < b_sorted.size()) {
    const double va = a_sorted[ia];
    const double vb = b_sorted[ib];
    // Advance past ties within each sample so both CDFs are evaluated just
    // after the common point.
    if (va <= vb) {
      while (ia < a_sorted.size() && a_sorted[ia] == va) ++ia;
    }
    if (vb <= va) {
      while (ib < b_sorted.size() && b_sorted[ib] == vb) ++ib;
    }
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    max_diff = std::max(max_diff, std::fabs(fa - fb));
  }
  result.statistic = max_diff;
  const double ne = na * nb / (na + nb);
  const double sqrt_ne = std::sqrt(ne);
  // Stephens (1970) small-sample correction.
  const double lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * max_diff;
  result.p_value = KolmogorovPValue(lambda);
  result.valid = true;
  return result;
}

double KsDeviation::DeviationFromSelection(const SelectionView& view,
                                         SelectionScratch* scratch) const {
  const std::span<const double> conditional = SelectSorted(view, scratch);
  if (view.marginal_sorted.empty() || conditional.empty()) return 0.0;
  const KsResult r = KsTestSorted(view.marginal_sorted, conditional);
  return r.valid ? r.statistic : 0.0;
}

}  // namespace hics::stats
