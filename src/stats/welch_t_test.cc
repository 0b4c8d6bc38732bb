#include "stats/welch_t_test.h"

#include <cmath>
#include <cstdint>

#include "simd/simd.h"
#include "stats/distributions.h"

namespace hics::stats {

WelchResult WelchTTestFromMoments(std::size_t size_a, double mean_a,
                                  double var_a, std::size_t size_b,
                                  double mean_b, double var_b) {
  WelchResult result;
  if (size_a < 2 || size_b < 2) return result;

  const double n_a = static_cast<double>(size_a);
  const double n_b = static_cast<double>(size_b);

  const double se_a = var_a / n_a;
  const double se_b = var_b / n_b;
  const double denom = se_a + se_b;
  if (denom <= 0.0) {
    // Both samples are constant. Identical constants -> no deviation;
    // different constants -> maximal deviation.
    result.valid = true;
    result.p_value = (mean_a == mean_b) ? 1.0 : 0.0;
    result.t = (mean_a == mean_b) ? 0.0 : INFINITY;
    result.degrees_of_freedom = 1.0;
    return result;
  }

  result.t = (mean_a - mean_b) / std::sqrt(denom);
  // Welch-Satterthwaite equation for the effective degrees of freedom.
  const double numerator = denom * denom;
  const double denominator = se_a * se_a / (n_a - 1.0) +
                             se_b * se_b / (n_b - 1.0);
  result.degrees_of_freedom =
      denominator > 0.0 ? numerator / denominator : n_a + n_b - 2.0;
  if (result.degrees_of_freedom < 1.0) result.degrees_of_freedom = 1.0;
  result.p_value = StudentTTwoTailedPValue(result.t,
                                           result.degrees_of_freedom);
  result.valid = true;
  return result;
}

double WelchTDeviation::DeviationFromSelection(
    const SelectionView& view, SelectionScratch* scratch) const {
  // The selected values in ascending object id — elementwise equal to the
  // gathered conditional — then the canonical moment kernels over the
  // dense sample, so the moments, hence the p-value, are bit-identical to
  // Mean/SampleVariance over the gathered sample on every tier.
  const std::span<const double> conditional = SelectInIdOrder(view, scratch);
  const std::size_t count = conditional.size();
  if (view.marginal_sorted.size() < 2 || count < 2) return 0.0;
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  const double sum = kernels.sum(conditional.data(), count);
  const double mean = sum / static_cast<double>(count);
  const double sum_sq = kernels.sum_sq_dev(conditional.data(), count, mean);
  const double var = sum_sq / static_cast<double>(count - 1);

  const WelchResult r = WelchTTestFromMoments(
      view.marginal_sorted.size(), view.marginal_mean, view.marginal_variance,
      count, mean, var);
  if (!r.valid) return 0.0;
  return 1.0 - r.p_value;
}

}  // namespace hics::stats
