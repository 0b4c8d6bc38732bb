// Agreement measures between two outlier score vectors over the same
// objects: how much two rankings agree beyond their AUCs (e.g. HiCS_WT vs
// HiCS_KS, serial vs parallel runs, LOF vs kNN instantiations). Only the
// tests compare rankings this way, so the measures live beside them;
// header-only so every test shares one copy.

#ifndef HICS_TESTS_RANK_CORRELATION_H_
#define HICS_TESTS_RANK_CORRELATION_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <set>
#include <vector>

#include "common/status.h"
#include "stats/correlation.h"

namespace hics {

inline Status ValidateScorePair(const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("score vectors differ in size");
  }
  if (a.size() < 2) {
    return Status::InvalidArgument("need at least 2 objects");
  }
  return Status::OK();
}

/// Spearman rank correlation of the two score vectors (average ranks for
/// ties). Fails when sizes differ or fewer than 2 objects.
inline Result<double> SpearmanRankCorrelation(const std::vector<double>& a,
                                              const std::vector<double>& b) {
  HICS_RETURN_NOT_OK(ValidateScorePair(a, b));
  return stats::SpearmanCorrelation(a, b);
}

/// Kendall tau-b rank correlation (tie-corrected), O(n^2) pair counting —
/// fine for the evaluation sizes used here. Fails like above.
inline Result<double> KendallTauB(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  HICS_RETURN_NOT_OK(ValidateScorePair(a, b));
  const std::size_t n = a.size();
  long long concordant = 0;
  long long discordant = 0;
  long long ties_a = 0;
  long long ties_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) continue;  // tied in both: excluded
      if (da == 0.0) {
        ++ties_a;
      } else if (db == 0.0) {
        ++ties_b;
      } else if ((da > 0.0) == (db > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n0 = static_cast<double>(concordant + discordant);
  const double denom = std::sqrt((n0 + ties_a) * (n0 + ties_b));
  if (denom <= 0.0) return 0.0;
  return (static_cast<double>(concordant) -
          static_cast<double>(discordant)) /
         denom;
}

/// Jaccard overlap |topK(a) ∩ topK(b)| / |topK(a) ∪ topK(b)| of the k
/// highest-scored objects under each scoring. k is clamped to the size.
inline Result<double> TopKJaccard(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::size_t k) {
  HICS_RETURN_NOT_OK(ValidateScorePair(a, b));
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  k = std::min(k, a.size());

  auto top_k_ids = [k](const std::vector<double>& scores) {
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (scores[x] != scores[y]) return scores[x] > scores[y];
      return x < y;
    });
    return std::set<std::size_t>(order.begin(), order.begin() + k);
  };
  const std::set<std::size_t> top_a = top_k_ids(a);
  const std::set<std::size_t> top_b = top_k_ids(b);
  std::size_t intersection = 0;
  for (std::size_t id : top_a) intersection += top_b.count(id);
  const std::size_t union_size = top_a.size() + top_b.size() - intersection;
  return static_cast<double>(intersection) /
         static_cast<double>(union_size);
}

}  // namespace hics

#endif  // HICS_TESTS_RANK_CORRELATION_H_
