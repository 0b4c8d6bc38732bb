#ifndef HICS_STATS_DESCRIPTIVE_H_
#define HICS_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace hics::stats {

/// Streaming accumulator for count / mean / variance using Welford's
/// algorithm (numerically stable for long, large-magnitude streams).
class RunningStats {
 public:
  void Add(double value);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample (n-1) variance; 0 when count < 2.
  double variance() const;
  /// Population (n) variance; 0 when count < 1.
  double population_variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double Mean(std::span<const double> values);

/// Unbiased sample variance; 0 when fewer than 2 values.
double SampleVariance(std::span<const double> values);

double StdDev(std::span<const double> values);

/// p-quantile (p in [0,1]) by linear interpolation of the sorted sample.
/// Copies and sorts internally.
double Quantile(std::span<const double> values, double p);

double Median(std::span<const double> values);

/// Ranks with average tie-handling (1-based ranks, as used by Spearman).
std::vector<double> AverageRanks(std::span<const double> values);

/// (min, max) over the values that are not NaN (infinities count); (0, 0)
/// when there are none. The attribute range every grid bins against.
std::pair<double, double> RangeIgnoringNaN(std::span<const double> values);

}  // namespace hics::stats

#endif  // HICS_STATS_DESCRIPTIVE_H_
