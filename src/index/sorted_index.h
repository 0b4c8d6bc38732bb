#ifndef HICS_INDEX_SORTED_INDEX_H_
#define HICS_INDEX_SORTED_INDEX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dataset.h"

namespace hics {

/// The value order of every sorted index: ascending, with each NaN after
/// every number (NaNs are equivalent to one another). Unlike `<`, this is
/// a strict weak order on columns holding NaNs, so std::stable_sort and
/// std::merge under it are well defined and keep equal values — and all
/// NaNs — in ascending id order.
inline bool SortedIndexLess(double a, double b) {
  return a < b || (std::isnan(b) && !std::isnan(a));
}

/// Pre-computed one-dimensional index structures (paper §IV-A): for every
/// attribute, the permutation of object ids sorted ascending by that
/// attribute's value. Subspace slices are contiguous blocks of these
/// permutations; equivalently, an object lies in a slice iff its rank (the
/// inverse permutation) falls in the block's position range, which is how
/// the slice sampler tests membership in one pass over the rank columns.
///
/// Ranks are stored as uint32_t, so both constructors require
/// num_objects < 2^32.
class SortedAttributeIndex {
 public:
  /// Builds the index for all attributes of `dataset`. O(D * N log N)
  /// total work; `num_threads` spreads the per-attribute sorts over the
  /// thread pool (1 = serial, 0 = hardware concurrency). Attributes are
  /// independent, so the built index is identical for any thread count.
  explicit SortedAttributeIndex(const Dataset& dataset,
                                std::size_t num_threads = 1);

  /// Adopts caller-computed sorted orders (one permutation of
  /// [0, num_objects) per attribute) and derives the inverse-permutation
  /// ranks. The orders must be exactly what the sorting constructor would
  /// have produced — std::stable_sort under SortedIndexLess — which is
  /// the contract the streaming plane's incremental maintenance
  /// (SlideSortedOrder) upholds, so an adopted index is bit-identical to a
  /// cold rebuild over the same rows.
  SortedAttributeIndex(std::size_t num_objects,
                       std::vector<std::vector<std::size_t>> orders);

  std::size_t num_objects() const { return num_objects_; }
  std::size_t num_attributes() const { return order_.size(); }

  /// Object ids sorted ascending by attribute value.
  std::span<const std::size_t> SortedOrder(std::size_t attribute) const {
    HICS_DCHECK(attribute < order_.size());
    return order_[attribute];
  }

  /// Contiguous block [start, start + length) of the sorted order of
  /// `attribute` — the object ids whose attribute values fall in the
  /// corresponding value range.
  std::span<const std::size_t> Block(std::size_t attribute, std::size_t start,
                                     std::size_t length) const;

  /// Rank of `object` in the sorted order of `attribute` (inverse
  /// permutation), i.e. its position in SortedOrder(attribute).
  std::size_t RankOf(std::size_t attribute, std::size_t object) const {
    HICS_DCHECK(attribute < rank_.size());
    HICS_DCHECK(object < num_objects_);
    return rank_[attribute][object];
  }

  /// All ranks of `attribute`, indexed by object id:
  /// Ranks(attribute)[object] == RankOf(attribute, object).
  std::span<const std::uint32_t> Ranks(std::size_t attribute) const {
    HICS_DCHECK(attribute < rank_.size());
    return rank_[attribute];
  }

 private:
  std::size_t num_objects_ = 0;
  std::vector<std::vector<std::size_t>> order_;   // per attribute
  std::vector<std::vector<std::uint32_t>> rank_;  // inverse permutations
};

/// Sorted order of `column` after a window slide, maintained from the
/// order before it: `old_order` sorted the previous window, whose first
/// `evict` rows left; the survivors are now ids [0, m) of `column` and
/// the admitted rows ids [m, column.size()). The survivors keep their
/// relative order (a stable property under the id shift), the admitted
/// run is stable-sorted, and the two are merged with ties to the survivor
/// run, whose ids are all smaller — exactly the order the sorting
/// constructor builds over `column`, in O(N + a log a) for a admitted rows.
std::vector<std::size_t> SlideSortedOrder(
    std::span<const double> column, std::span<const std::size_t> old_order,
    std::size_t evict);

}  // namespace hics

#endif  // HICS_INDEX_SORTED_INDEX_H_
