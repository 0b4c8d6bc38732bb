#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "simd/simd.h"

namespace hics::stats {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::population_variance() const {
  if (count_ < 1) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  // Canonical 8-partial-sum reduction (src/simd): bit-identical across
  // SIMD tiers, and the definition every moment-consuming path (marginal
  // moments, Welch slice moments) shares.
  return simd::ActiveKernels().sum(values.data(), values.size()) /
         static_cast<double>(values.size());
}

double SampleVariance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  return simd::ActiveKernels().sum_sq_dev(values.data(), values.size(),
                                          mean) /
         static_cast<double>(values.size() - 1);
}

double StdDev(std::span<const double> values) {
  return std::sqrt(SampleVariance(values));
}

double Quantile(std::span<const double> values, double p) {
  HICS_CHECK(!values.empty());
  HICS_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double position = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const double frac = position - static_cast<double>(lower);
  if (lower + 1 >= sorted.size()) return sorted.back();
  return sorted[lower] * (1.0 - frac) + sorted[lower + 1] * frac;
}

double Median(std::span<const double> values) {
  return Quantile(values, 0.5);
}

std::vector<double> AverageRanks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Average 1-based rank over the tie group [i, j].
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

std::pair<double, double> RangeIgnoringNaN(std::span<const double> values) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (!(v == v)) continue;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  if (!(mn <= mx)) return {0.0, 0.0};
  return {mn, mx};
}

}  // namespace hics::stats
