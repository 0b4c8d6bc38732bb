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

/// Reusable working storage for SliceSampler::DrawSelection. One instance
/// per worker thread; capacity persists across draws so the steady-state
/// hot loop performs no allocations.
struct SliceScratch {
  /// Attribute permutation of the subspace under test.
  std::vector<std::size_t> attrs;
  /// Per-condition rank columns and block starts of the current draw;
  /// the SliceSelection spans point here.
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
///     its sorted index of size ceil(N * alpha^(1/|S|)); the slice is the
///     intersection of the blocks, which the consumer evaluates in rank
///     space (SliceSelection).
///
/// The block size N*alpha1 with alpha1 = |S|-th root of alpha follows
/// Algorithm 1 verbatim; it keeps the conditional sample size stable as the
/// subspace dimensionality grows, which is what lets the contrast estimate
/// escape the curse of dimensionality.
/// Thread-safety contract: a SliceSampler holds no mutable state, so any
/// number of threads may call DrawSelection concurrently on one instance;
/// each call's working storage is the caller's SliceScratch, which must
/// not be shared between concurrent calls. The slice depends only on
/// (subspace, alpha, rng state). The gathering reference draw of
/// tests/contrast_oracle.h consumes the RNG identically.
class SliceSampler {
 public:
  /// `index` must outlive the sampler and be built over `dataset`, of which
  /// the sampler keeps only the object count.
  SliceSampler(const Dataset& dataset, const SortedAttributeIndex& index);

  /// Draws one random slice for `subspace` with selection ratio `alpha`
  /// (in (0,1)); requires |subspace| >= 2. Records only the draw's
  /// conditions (rank columns, block starts, block length), not the test
  /// attribute's values. An object is in condition c's block iff its rank
  /// lies in [start_c, start_c + block), so the consumer selects with one
  /// vectorized pass over the conditions' uint32 rank columns
  /// (simd::SimdKernels::slice_select) — no scatter into the sorted
  /// orders and no O(N) work here. The selection stays valid until the
  /// next DrawSelection call on the same scratch.
  void DrawSelection(const Subspace& subspace, double alpha, Rng* rng,
                     SliceScratch* scratch, SliceSelection* out) const;

  /// Block size used for one condition of a |dims|-dimensional subspace:
  /// ceil(N * alpha^(1/dims)), clamped to [1, N].
  std::size_t BlockSize(std::size_t dims, double alpha) const;

 private:
  std::size_t num_objects_;
  const SortedAttributeIndex& index_;
};

}  // namespace hics

#endif  // HICS_CORE_SLICE_H_
