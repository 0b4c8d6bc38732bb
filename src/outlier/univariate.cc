#include "outlier/univariate.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/descriptive.h"

namespace hics {

namespace {

std::vector<double> ZScores(const std::vector<double>& values) {
  std::vector<double> scores(values.size(), 0.0);
  const double mean = stats::Mean(values);
  const double sd = stats::StdDev(values);
  if (sd <= 0.0) return scores;
  for (std::size_t i = 0; i < values.size(); ++i) {
    scores[i] = std::fabs(values[i] - mean) / sd;
  }
  return scores;
}

std::vector<double> RobustZScores(const std::vector<double>& values) {
  std::vector<double> scores(values.size(), 0.0);
  const double median = stats::Median(values);
  std::vector<double> abs_dev(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    abs_dev[i] = std::fabs(values[i] - median);
  }
  // 1.4826 makes the MAD a consistent sigma estimator under normality.
  const double mad = 1.4826 * stats::Median(abs_dev);
  if (mad <= 0.0) return scores;
  for (std::size_t i = 0; i < values.size(); ++i) {
    scores[i] = abs_dev[i] / mad;
  }
  return scores;
}

std::vector<double> IqrScores(const std::vector<double>& values) {
  std::vector<double> scores(values.size(), 0.0);
  const double q1 = stats::Quantile(values, 0.25);
  const double q3 = stats::Quantile(values, 0.75);
  const double iqr = q3 - q1;
  if (iqr <= 0.0) return scores;
  const double lo = q1 - 1.5 * iqr;
  const double hi = q3 + 1.5 * iqr;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < lo) {
      scores[i] = (lo - values[i]) / iqr;
    } else if (values[i] > hi) {
      scores[i] = (values[i] - hi) / iqr;
    }
  }
  return scores;
}

}  // namespace

std::vector<double> UnivariateDeviations(const std::vector<double>& values,
                                         UnivariateMethod method) {
  if (values.empty()) return {};
  switch (method) {
    case UnivariateMethod::kZScore:
      return ZScores(values);
    case UnivariateMethod::kRobustZScore:
      return RobustZScores(values);
    case UnivariateMethod::kIqr:
      return IqrScores(values);
  }
  return std::vector<double>(values.size(), 0.0);
}

std::vector<double> UnivariateScorer::ScoreSubspacePrepared(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  const Dataset& dataset = prepared.dataset();
  std::vector<double> scores(dataset.num_objects(), 0.0);
  for (std::size_t dim : subspace) {
    const std::vector<double> per_attr =
        UnivariateDeviations(dataset.Column(dim), method_);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores[i] = std::max(scores[i], per_attr[i]);
    }
  }
  return scores;
}

std::string UnivariateScorer::name() const {
  switch (method_) {
    case UnivariateMethod::kZScore:
      return "uni-zscore";
    case UnivariateMethod::kRobustZScore:
      return "uni-robust";
    case UnivariateMethod::kIqr:
      return "uni-iqr";
  }
  return "uni";
}

namespace {

/// Maps scores to their normalized average ranks in [0, 1].
std::vector<double> RankNormalize(const std::vector<double>& scores) {
  const std::vector<double> ranks = stats::AverageRanks(scores);
  std::vector<double> normalized(scores.size(), 0.0);
  if (scores.size() <= 1) return normalized;
  const double denom = static_cast<double>(scores.size() - 1);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    normalized[i] = (ranks[i] - 1.0) / denom;
  }
  return normalized;
}

}  // namespace

std::vector<double> CombineTrivialAndSubspaceScores(
    const std::vector<double>& trivial_scores,
    const std::vector<double>& subspace_scores, double weight_trivial) {
  HICS_CHECK_EQ(trivial_scores.size(), subspace_scores.size());
  HICS_CHECK_GE(weight_trivial, 0.0);
  const std::vector<double> trivial_rank = RankNormalize(trivial_scores);
  const std::vector<double> subspace_rank = RankNormalize(subspace_scores);
  std::vector<double> combined(trivial_scores.size(), 0.0);
  for (std::size_t i = 0; i < combined.size(); ++i) {
    combined[i] =
        std::max(weight_trivial * trivial_rank[i], subspace_rank[i]);
  }
  return combined;
}

}  // namespace hics
