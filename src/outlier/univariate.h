#ifndef HICS_OUTLIER_UNIVARIATE_H_
#define HICS_OUTLIER_UNIVARIATE_H_

#include <string>
#include <vector>

#include "outlier/outlier_scorer.h"

namespace hics {

/// Trivial (one-dimensional) outlier detection.
///
/// HiCS deliberately targets *non-trivial* outliers -- objects hidden in
/// multi-dimensional correlations -- and the paper notes (§V-B) that its
/// ROC curves on e.g. Ionosphere lose some steepness at low false positive
/// rates because trivially visible outliers are de-emphasized; it suggests
/// a pre-processing step for trivial outliers as a quality improvement.
/// This module provides that step: robust per-attribute deviation scores
/// that can be blended with the subspace ranking (see
/// CombineTrivialAndSubspaceScores).

/// How a single attribute's deviation is measured.
enum class UnivariateMethod {
  /// |x - mean| / stddev. Classic, but mean/stddev are themselves
  /// outlier-sensitive.
  kZScore,
  /// |x - median| / MAD (median absolute deviation, scaled by 1.4826 for
  /// normal consistency). Robust default.
  kRobustZScore,
  /// Distance beyond the [Q1 - 1.5 IQR, Q3 + 1.5 IQR] whiskers in IQR
  /// units; 0 inside the whiskers (Tukey's fences).
  kIqr,
};

/// Scores each object by its strongest one-dimensional deviation:
/// score(x) = max over attributes of the per-attribute deviation. Exactly
/// the outliers HiCS calls "trivial" get high scores here.
class UnivariateScorer : public OutlierScorer {
 public:
  explicit UnivariateScorer(
      UnivariateMethod method = UnivariateMethod::kRobustZScore)
      : method_(method) {}

  std::vector<double> ScoreSubspacePrepared(
      const PreparedDataset& prepared, const Subspace& subspace) const override;

  std::string name() const override;

  /// The method is the only parameter and name() already encodes it
  /// ("uni-zscore" / "uni-robust" / "uni-iqr").
  std::string cache_key() const override { return name(); }

 private:
  UnivariateMethod method_;
};

/// Deviation scores of a single sample under `method` (exposed for direct
/// use and testing). Returns one score per value, all >= 0.
std::vector<double> UnivariateDeviations(const std::vector<double>& values,
                                         UnivariateMethod method);

/// Blends a trivial-outlier score vector with a subspace-ranking score
/// vector: both are rank-normalized to [0, 1] (so their scales become
/// comparable) and combined as
///   max(weight_trivial * trivial_rank, subspace_rank).
/// With weight_trivial = 1 a full-blown 1-D outlier outranks everything
/// trivial-free; 0 disables the pre-processing.
std::vector<double> CombineTrivialAndSubspaceScores(
    const std::vector<double>& trivial_scores,
    const std::vector<double>& subspace_scores, double weight_trivial = 1.0);

}  // namespace hics

#endif  // HICS_OUTLIER_UNIVARIATE_H_
