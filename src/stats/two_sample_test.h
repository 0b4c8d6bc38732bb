#ifndef HICS_STATS_TWO_SAMPLE_TEST_H_
#define HICS_STATS_TWO_SAMPLE_TEST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace hics::stats {

/// Rank-space view of one slice selection, handed to
/// TwoSampleTest::DeviationFromSelection by the contrast estimator. The
/// conditional sample is *not* materialized; it is the subset of `column`
/// whose object ids lie in every condition's rank block:
///
///   id selected  <=>  uint32(condition_ranks[c][id] - condition_starts[c])
///                         < block   for every condition c
///
/// which simd::SimdKernels::slice_select (values in id order) and
/// slice_mask (a per-id 0/1 mask) evaluate.
///
/// Invariants the producer guarantees:
///  * `marginal_sorted` is `column` sorted ascending, and element `pos`
///    equals `column[sorted_order[pos]]` bit for bit (same permutation).
///  * `marginal_mean` / `marginal_variance` equal Mean(marginal_sorted) /
///    SampleVariance(marginal_sorted) exactly (same summation order), so
///    moment-based tests reproduce the gathering reference bitwise.
///  * `column.size() == sorted_order.size()`, every rank column has that
///    length, and condition_ranks.size() == condition_starts.size().
struct SelectionView {
  /// Test attribute's values sorted ascending (the marginal sample).
  std::span<const double> marginal_sorted;
  /// Precomputed Mean(marginal_sorted).
  double marginal_mean = 0.0;
  /// Precomputed SampleVariance(marginal_sorted).
  double marginal_variance = 0.0;
  /// Test attribute's values in object-id order.
  std::span<const double> column;
  /// Object ids ascending by test-attribute value; walking it and
  /// filtering on the selection emits the conditional sample already
  /// sorted.
  std::span<const std::size_t> sorted_order;
  /// The draw's conditions: each conditioning attribute's rank column
  /// (inverse sorted permutation), its block start, and the block length.
  std::span<const std::uint32_t* const> condition_ranks;
  std::span<const std::uint32_t> condition_starts;
  std::uint32_t block = 0;
};

/// Per-caller working storage of DeviationFromSelection; capacity
/// persists across draws, so the Monte Carlo loop is allocation-free at
/// steady state. Distinct per concurrent caller.
struct SelectionScratch {
  /// Conditional-sample buffer (n + simd::kCompactPad doubles).
  std::vector<double> values;
  /// Per-object selection mask, for tests that filter a sorted order.
  std::vector<std::uint32_t> mask;
};

/// The selected values of `view.column` in ascending object id — the
/// conditional sample a gathering draw would collect — written by one
/// simd slice_select pass into `scratch->values`.
std::span<const double> SelectInIdOrder(const SelectionView& view,
                                        SelectionScratch* scratch);

/// The selected values sorted ascending: slice_mask writes the selection
/// into `scratch->mask`, then compact_selected_sorted walks
/// `view.sorted_order` filtered on it into `scratch->values`. The same
/// value sequence gather-then-std::sort produces (ties carry equal
/// values), without the sort.
std::span<const double> SelectSorted(const SelectionView& view,
                                     SelectionScratch* scratch);

/// Interface for the paper's deviation(p̂_A, p̂_B) function (§III-E): a
/// two-sample statistical test that maps a marginal sample A and a
/// conditional sample B to a deviation value in [0, 1]. Larger means the
/// samples look less like draws from the same distribution.
///
/// Implementations must be stateless w.r.t. DeviationFromSelection() calls
/// so a single instance can be shared across Monte Carlo iterations.
class TwoSampleTest {
 public:
  virtual ~TwoSampleTest() = default;

  /// Deviation between the view's marginal sample and the conditional
  /// sample its selection describes, computed without the caller
  /// gathering (or sorting) the conditional. Must return 0 for degenerate
  /// inputs (either sample too small to test) so that uninformative
  /// slices do not inflate the contrast.
  ///
  /// The result must equal, bit for bit, the reference deviation of
  /// tests/contrast_oracle.h: the selected values of `view.column`
  /// gathered in id order and scored against `view.marginal_sorted`.
  /// Welch runs the canonical moment kernels over the slice_select
  /// output; KS and CvM build the selection mask with slice_mask and emit
  /// the conditional already sorted by walking `sorted_order` filtered on
  /// it, eliminating the per-draw O(m log m) sort.
  virtual double DeviationFromSelection(const SelectionView& view,
                                        SelectionScratch* scratch) const = 0;

  /// Short identifier for reports, e.g. "welch" or "ks".
  virtual std::string name() const = 0;
};

/// Named factory for the tests shipped with the library ("welch", "ks",
/// "cvm"). Returns nullptr for unknown names.
std::unique_ptr<TwoSampleTest> MakeTwoSampleTest(const std::string& name);

}  // namespace hics::stats

#endif  // HICS_STATS_TWO_SAMPLE_TEST_H_
