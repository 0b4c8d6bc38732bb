#include "stats/cvm_test.h"

#include <algorithm>
#include <cmath>
#include <vector>


namespace hics::stats {

namespace {

/// Core computation over two sorted samples.
CvmResult CvmSorted(std::span<const double> a, std::span<const double> b) {
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

}  // namespace

CvmResult CvmTest(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return CvmResult{};
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return CvmSorted(sa, sb);
}

double CvmDeviation::Deviation(std::span<const double> marginal,
                               std::span<const double> conditional) const {
  const CvmResult r = CvmTest(marginal, conditional);
  return r.valid ? r.statistic : 0.0;
}

double CvmDeviation::DeviationPresortedMarginal(
    std::span<const double> marginal_sorted,
    std::span<const double> conditional) const {
  std::vector<double> sort_scratch;
  return DeviationPresortedMarginal(marginal_sorted, conditional,
                                    &sort_scratch);
}

double CvmDeviation::DeviationPresortedMarginal(
    std::span<const double> marginal_sorted,
    std::span<const double> conditional,
    std::vector<double>* sort_scratch) const {
  if (marginal_sorted.empty() || conditional.empty()) return 0.0;
  sort_scratch->assign(conditional.begin(), conditional.end());
  std::sort(sort_scratch->begin(), sort_scratch->end());
  const CvmResult r = CvmSorted(marginal_sorted, *sort_scratch);
  return r.valid ? r.statistic : 0.0;
}

double CvmDeviation::DeviationFromSelection(const SelectionView& view,
                                         SelectionScratch* scratch) const {
  const std::span<const double> conditional = SelectSorted(view, scratch);
  if (view.marginal_sorted.empty() || conditional.empty()) return 0.0;
  const CvmResult r = CvmSorted(view.marginal_sorted, conditional);
  return r.valid ? r.statistic : 0.0;
}

}  // namespace hics::stats
