// Reference contrast (Definition 5, Algorithm 1) through the gathering
// path: each of the M Monte Carlo iterations draws a slice by counting
// block memberships over the sorted index (GatherDraw), gathers the test
// attribute's conditional sample in object-id order, and scores it with
// the reference deviation (ReferenceDeviation) against the pre-sorted
// marginal. The library's ContrastEstimator computes the same quantity
// through the rank-space kernel (DESIGN.md §5d):
// SliceSampler::DrawSelection consumes the RNG exactly as GatherDraw does,
// and every TwoSampleTest::DeviationFromSelection reproduces
// ReferenceDeviation, so for one rng state the two contrasts must agree
// bit for bit. Header-only so tests and benches share one oracle.

#ifndef HICS_TESTS_CONTRAST_ORACLE_H_
#define HICS_TESTS_CONTRAST_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/dataset.h"
#include "common/random.h"
#include "common/subspace.h"
#include "core/contrast.h"
#include "core/slice.h"
#include "engine/prepared_dataset.h"
#include "index/sorted_index.h"
#include "stats/cvm_test.h"
#include "stats/descriptive.h"
#include "stats/ks_test.h"
#include "stats/two_sample_test.h"
#include "stats/welch_t_test.h"

namespace hics {

inline std::vector<double> SortedCopy(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Welch's t-test over two raw samples: WelchTTestFromMoments over their
/// Mean and SampleVariance. Invalid when either sample has < 2 values.
inline stats::WelchResult ReferenceWelchTTest(std::span<const double> a,
                                              std::span<const double> b) {
  if (a.size() < 2 || b.size() < 2) return stats::WelchResult{};
  return stats::WelchTTestFromMoments(a.size(), stats::Mean(a),
                                      stats::SampleVariance(a), b.size(),
                                      stats::Mean(b), stats::SampleVariance(b));
}

/// The deviation `test` (keyed by its name()) assigns a conditional sample
/// in any order against `marginal_sorted` (ascending): Welch is 1 - p of
/// ReferenceWelchTTest, KS and CvM sort the conditional (into
/// `sort_scratch` when given) and take the statistic of KsTestSorted /
/// CvmTestSorted. Degenerate samples deviate by 0.
inline double ReferenceDeviation(const stats::TwoSampleTest& test,
                                 std::span<const double> marginal_sorted,
                                 std::span<const double> conditional,
                                 std::vector<double>* sort_scratch = nullptr) {
  const std::string name = test.name();
  if (name == "welch") {
    const stats::WelchResult r =
        ReferenceWelchTTest(marginal_sorted, conditional);
    return r.valid ? 1.0 - r.p_value : 0.0;
  }
  std::vector<double> local;
  std::vector<double>& sorted = sort_scratch != nullptr ? *sort_scratch : local;
  sorted.assign(conditional.begin(), conditional.end());
  std::sort(sorted.begin(), sorted.end());
  if (name == "ks") {
    const stats::KsResult r = stats::KsTestSorted(marginal_sorted, sorted);
    return r.valid ? r.statistic : 0.0;
  }
  HICS_CHECK(name == "cvm") << "no reference deviation for '" << name << "'";
  const stats::CvmResult r = stats::CvmTestSorted(marginal_sorted, sorted);
  return r.valid ? r.statistic : 0.0;
}

/// One gathered Monte Carlo draw: the test attribute and its values over
/// the slice's objects in ascending object id (the conditional sample).
struct GatheredDraw {
  std::size_t test_attribute = 0;
  std::vector<double> conditional_sample;
};

/// The reference draw: the slice SliceSampler::DrawSelection describes for
/// the same rng state (one shuffle of the subspace, the last attribute
/// tested, then one block start per condition), selected by counting each
/// object's block memberships over the sorted orders and gathered in id
/// order. `counts` is reusable per-caller storage.
inline void GatherDraw(const Dataset& dataset,
                       const SortedAttributeIndex& index,
                       const Subspace& subspace, double alpha, Rng* rng,
                       GatheredDraw* out, std::vector<std::uint16_t>* counts) {
  HICS_CHECK_GE(subspace.size(), 2u);
  const std::size_t n = dataset.num_objects();
  out->test_attribute = 0;
  out->conditional_sample.clear();
  if (n == 0) return;
  std::vector<std::size_t> attrs(subspace.begin(), subspace.end());
  rng->Shuffle(&attrs);
  out->test_attribute = attrs.back();
  const std::size_t block =
      SliceSampler(dataset, index).BlockSize(subspace.size(), alpha);
  counts->assign(n, 0);
  for (std::size_t c = 0; c + 1 < attrs.size(); ++c) {
    const std::size_t max_start = n - block;
    const std::size_t start =
        max_start == 0 ? 0 : rng->UniformIndex(max_start + 1);
    for (std::size_t id : index.Block(attrs[c], start, block)) ++(*counts)[id];
  }
  const auto conditions = static_cast<std::uint16_t>(attrs.size() - 1);
  const std::vector<double>& column = dataset.Column(out->test_attribute);
  for (std::size_t i = 0; i < n; ++i) {
    if ((*counts)[i] == conditions) {
      out->conditional_sample.push_back(column[i]);
    }
  }
}

/// Per-caller working storage of the oracle; reusable across calls.
struct OracleScratch {
  std::vector<std::uint16_t> counts;
  GatheredDraw draw;
  std::vector<double> sorted_conditional;
};

/// The gathering contrast oracle over one dataset. Prepares the dataset
/// privately; `test` must outlive the oracle.
class ContrastOracle {
 public:
  ContrastOracle(const Dataset& dataset, const stats::TwoSampleTest& test,
                 ContrastParams params)
      : prepared_(PreparedDataset::Build(dataset, 1)),
        test_(test),
        params_(params) {
    HICS_CHECK(params_.Validate().ok()) << params_.Validate().ToString();
  }

  /// Contrast of `subspace`: the mean of M reference deviations, summed
  /// in iteration order exactly as ContrastEstimator::Contrast sums its
  /// rank-space deviations.
  double Contrast(const Subspace& subspace, Rng* rng,
                  OracleScratch* scratch) const {
    double deviation_sum = 0.0;
    for (std::size_t iteration = 0; iteration < params_.num_iterations;
         ++iteration) {
      GatherDraw(prepared_->dataset(), prepared_->sorted_index(), subspace,
                 params_.alpha, rng, &scratch->draw, &scratch->counts);
      deviation_sum += ReferenceDeviation(
          test_, prepared_->SortedColumn(scratch->draw.test_attribute),
          scratch->draw.conditional_sample, &scratch->sorted_conditional);
    }
    return deviation_sum / static_cast<double>(params_.num_iterations);
  }

  double Contrast(const Subspace& subspace, Rng* rng) const {
    OracleScratch scratch;
    return Contrast(subspace, rng, &scratch);
  }

  /// The contrast RunHicsSearch reports for `subspace` in an unsharded
  /// search seeded with `seed`: the oracle contrast on the search's
  /// documented per-subspace stream seed ^ (hash(S) * phi).
  double SearchContrast(const Subspace& subspace, std::uint64_t seed) const {
    Rng rng(seed ^ (SubspaceHash{}(subspace) * 0x9e3779b97f4a7c15ULL));
    return Contrast(subspace, &rng);
  }

 private:
  std::shared_ptr<const PreparedDataset> prepared_;
  const stats::TwoSampleTest& test_;
  ContrastParams params_;
};

}  // namespace hics

#endif  // HICS_TESTS_CONTRAST_ORACLE_H_
