#ifndef HICS_CORE_SLICE_H_
#define HICS_CORE_SLICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "common/subspace.h"
#include "index/sorted_index.h"

namespace hics {

/// One Monte Carlo draw: a random subspace slice (Definition 4) plus the
/// two samples the deviation function compares.
struct SliceDraw {
  /// The attribute whose marginal vs conditional distribution is tested.
  std::size_t test_attribute = 0;
  /// Values of the test attribute for the objects selected by the slice
  /// conditions (the empirical conditional sample p̂_s|C).
  std::vector<double> conditional_sample;
  /// Number of objects the slice selected (== conditional_sample.size()).
  std::size_t selected_count = 0;
};

/// Reusable working storage for SliceSampler::Draw / DrawSelection. One
/// instance per worker thread; capacity persists across draws so the
/// steady-state hot loop performs no allocations.
struct SliceScratch {
  /// Per-object condition counter; an object is selected when its counter
  /// reaches the number of conditions. Used by the materializing Draw.
  std::vector<std::uint16_t> selected;
  /// Attribute permutation of the subspace under test.
  std::vector<std::size_t> attrs;
  /// Per-condition rank columns and block starts of the current draw
  /// (DrawSelection); the SliceSelection spans point here.
  std::vector<const std::uint32_t*> condition_ranks;
  std::vector<std::uint32_t> condition_starts;
};

/// Output of SliceSampler::DrawSelection: the rank-space description of one
/// slice. The selected objects are not materialized; they are exactly the
/// ids i with
///
///   uint32(condition_ranks[c][i] - condition_starts[c]) < block
///
/// for every condition c, which downstream consumers test in whatever
/// form suits their statistic (simd slice_select for moment tests,
/// slice_mask + sorted-order compaction for rank tests). The spans point
/// into the SliceScratch of the draw and stay valid until the next
/// DrawSelection call on it.
struct SliceSelection {
  /// The attribute whose marginal vs conditional distribution is tested.
  std::size_t test_attribute = 0;
  /// Rank columns (SortedAttributeIndex::Ranks) of the |S| - 1
  /// conditioning attributes, and each one's block start.
  std::span<const std::uint32_t* const> condition_ranks;
  std::span<const std::uint32_t> condition_starts;
  /// Rank-block length shared by every condition (BlockSize).
  std::uint32_t block = 0;

  /// Number of conditioning attributes (|S| - 1).
  std::size_t num_conditions() const { return condition_starts.size(); }
};

/// Generates random adaptive subspace slices over pre-sorted attribute
/// indices (paper §III-C / §IV-A).
///
/// For a subspace S, one draw:
///  1. randomly permutes the attributes of S; the last one becomes the test
///     attribute, the other |S|-1 carry conditions,
///  2. for each conditioning attribute picks a random contiguous block of
///     its sorted index of size ceil(N * alpha^(1/|S|)) and intersects the
///     selections via a boolean mask,
///  3. collects the test attribute's values of the surviving objects.
///
/// The block size N*alpha1 with alpha1 = |S|-th root of alpha follows
/// Algorithm 1 verbatim; it keeps the conditional sample size stable as the
/// subspace dimensionality grows, which is what lets the contrast estimate
/// escape the curse of dimensionality.
/// Thread-safety contract: a SliceSampler holds no mutable state, so any
/// number of threads may call Draw concurrently on one instance — each
/// call's working storage is either a local (convenience overload) or the
/// caller's SliceScratch, which must not be shared between concurrent
/// calls. Both overloads consume the RNG identically, so results depend
/// only on (subspace, alpha, rng state), never on which overload ran.
class SliceSampler {
 public:
  /// Both references must outlive the sampler. `index` must be built over
  /// the same dataset.
  SliceSampler(const Dataset& dataset, const SortedAttributeIndex& index);

  /// Draws one random slice for `subspace` with selection ratio `alpha`
  /// (in (0,1)). Requires |subspace| >= 2. Allocates local working
  /// storage per call; the hot path uses the scratch overload below.
  SliceDraw Draw(const Subspace& subspace, double alpha, Rng* rng) const;

  /// Allocation-free variant for worker threads: `scratch` is reusable
  /// per-worker storage and `out` is reused across draws (its
  /// conditional_sample keeps capacity between calls). `scratch` and
  /// `out` must be distinct objects per concurrent caller.
  void Draw(const Subspace& subspace, double alpha, Rng* rng,
            SliceScratch* scratch, SliceDraw* out) const;

  /// Rank-space variant: performs the same random slice construction as
  /// Draw — identical RNG consumption, so a shared rng state yields the
  /// same slice through either entry point — but records only the draw's
  /// conditions (rank columns, block starts, block length) instead of
  /// gathering the test attribute's values. An object is in condition c's
  /// block iff its rank lies in [start_c, start_c + block), so the
  /// consumer selects with one vectorized pass over the conditions' uint32
  /// rank columns (simd::SimdKernels::slice_select) — no scatter into the
  /// sorted orders and no O(N) work here. The selection stays valid until
  /// the next DrawSelection call on the same scratch.
  void DrawSelection(const Subspace& subspace, double alpha, Rng* rng,
                     SliceScratch* scratch, SliceSelection* out) const;

  /// Block size used for one condition of a |dims|-dimensional subspace:
  /// ceil(N * alpha^(1/dims)), clamped to [1, N].
  std::size_t BlockSize(std::size_t dims, double alpha) const;

  const Dataset& dataset() const { return dataset_; }

 private:
  const Dataset& dataset_;
  const SortedAttributeIndex& index_;
};

}  // namespace hics

#endif  // HICS_CORE_SLICE_H_
