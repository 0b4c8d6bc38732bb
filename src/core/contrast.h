#ifndef HICS_CORE_CONTRAST_H_
#define HICS_CORE_CONTRAST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/slice.h"
#include "engine/prepared_dataset.h"
#include "index/sorted_index.h"
#include "stats/two_sample_test.h"

namespace hics {

/// Parameters of the Monte Carlo contrast estimation (Algorithm 1).
struct ContrastParams {
  /// Number of Monte Carlo iterations M (statistical tests per subspace).
  /// The paper recommends 50 as default.
  std::size_t num_iterations = 50;
  /// Target selection ratio alpha in (0, 1); the expected test-statistic
  /// size scales with N * alpha. Paper default 0.1.
  double alpha = 0.1;

  /// Returns InvalidArgument when a field is out of its domain.
  Status Validate() const;
};

/// Reusable working storage for one worker thread's contrast estimation:
/// the slice sampler's scratch, the selection it describes, and the
/// deviation function's selection buffers. Capacity persists across
/// subspaces, making the Monte Carlo loop allocation-free at steady state.
struct ContrastScratch {
  SliceScratch slice;
  SliceSelection selection;
  stats::SelectionScratch deviation;
};

/// Estimates the contrast (Definition 5) of subspaces of one dataset:
/// the average deviation between the marginal distribution of a randomly
/// chosen attribute and its distribution conditioned on a random subspace
/// slice, over M iterations.
///
/// The estimator draws its rank artifacts (sorted index, pre-sorted
/// columns, marginal moments) from a PreparedDataset, so every contrast
/// consumer of one dataset — search, contrast matrix, pipeline — shares
/// one O(D N log N) build instead of each constructing its own.
class ContrastEstimator {
 public:
  /// Prepared-path constructor: borrows `prepared`'s rank artifacts
  /// (forcing their lazy build if this is the first rank consumer).
  /// `test` implements the deviation function; the estimator shares it
  /// across iterations and does not take ownership. Both references must
  /// outlive the estimator.
  ContrastEstimator(const PreparedDataset& prepared,
                    const stats::TwoSampleTest& test, ContrastParams params);

  /// Self-contained adapter: prepares `dataset` privately and delegates to
  /// the constructor above. `index_build_threads` parallelizes the
  /// sorted-index build (one task per attribute; 0 = hardware
  /// concurrency) — the index content is identical for any value, queries
  /// afterwards are unaffected.
  ContrastEstimator(const Dataset& dataset, const stats::TwoSampleTest& test,
                    ContrastParams params,
                    std::size_t index_build_threads = 1);

  /// Contrast of `subspace` in [0, 1]; higher = stronger conditional
  /// dependence among its attributes. Requires |subspace| >= 2.
  /// Deterministic given the rng state. The estimator itself is immutable
  /// after construction, so concurrent calls are safe as long as each
  /// caller uses its own rng (and scratch, for the overloads below).
  double Contrast(const Subspace& subspace, Rng* rng) const;

  /// Allocation-free variant for worker threads: `scratch` is reusable
  /// per-worker storage, distinct per concurrent caller.
  double Contrast(const Subspace& subspace, Rng* rng,
                  ContrastScratch* scratch) const;

  /// Context-aware variant: checks `ctx` between Monte Carlo iterations and
  /// returns kCancelled/kDeadlineExceeded instead of finishing all M
  /// iterations; also exposes the fault-injection site "contrast.slice"
  /// (checked once per iteration). Callers treat those interruption codes
  /// as "stop the search, keep best-so-far" and any other error as "skip
  /// this subspace" — see RunHicsSearch.
  ///
  /// `fault_ordinal`, when non-zero, is this call's 1-based position in
  /// the caller's logical evaluation sequence; the "contrast.slice" site
  /// is then probed with ordinal (fault_ordinal - 1) * M + iteration + 1,
  /// so slice-level fault placement is deterministic under parallel
  /// evaluation. 0 keeps arrival-order counting.
  Result<double> Contrast(const Subspace& subspace, Rng* rng,
                          ContrastScratch* scratch, const RunContext& ctx,
                          std::uint64_t fault_ordinal = 0) const;

  const ContrastParams& params() const { return params_; }
  const SortedAttributeIndex& index() const {
    return prepared_->sorted_index();
  }
  const PreparedDataset& prepared() const { return *prepared_; }

 private:
  // Deviation of one Monte Carlo draw through the rank-space kernel
  // (DESIGN.md §5d); shared by all Contrast overloads.
  double IterationDeviation(const Subspace& subspace, Rng* rng,
                            ContrastScratch* scratch) const;

  // Set only by the self-contained Dataset constructor; keeps the private
  // PreparedDataset alive for `prepared_`.
  std::shared_ptr<const PreparedDataset> owned_prepared_;
  const PreparedDataset* prepared_;
  const stats::TwoSampleTest& test_;
  ContrastParams params_;
  SliceSampler sampler_;
};

}  // namespace hics

#endif  // HICS_CORE_CONTRAST_H_
