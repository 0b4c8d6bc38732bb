#ifndef HICS_COMMON_SUBSPACE_H_
#define HICS_COMMON_SUBSPACE_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace hics {

/// An axis-parallel subspace projection: a sorted, duplicate-free set of
/// attribute indices. Value type; cheap to copy for the small
/// dimensionalities (2-10) that subspace search produces.
class Subspace {
 public:
  Subspace() = default;

  /// Builds a subspace from arbitrary-order, possibly duplicated indices.
  explicit Subspace(std::vector<std::size_t> dims);
  Subspace(std::initializer_list<std::size_t> dims)
      : Subspace(std::vector<std::size_t>(dims)) {}

  std::size_t size() const { return dims_.size(); }
  bool empty() const { return dims_.empty(); }
  std::size_t operator[](std::size_t i) const {
    HICS_DCHECK(i < dims_.size());
    return dims_[i];
  }
  const std::vector<std::size_t>& dims() const { return dims_; }
  auto begin() const { return dims_.begin(); }
  auto end() const { return dims_.end(); }

  /// True if `dim` is one of this subspace's attributes (binary search).
  bool Contains(std::size_t dim) const;

  /// True if every attribute of `other` is contained in this subspace.
  bool ContainsAll(const Subspace& other) const;

  /// Returns a copy with `dim` added. CHECK-fails if already present.
  Subspace With(std::size_t dim) const;

  /// Returns a copy with `dim` removed. CHECK-fails if absent.
  Subspace Without(std::size_t dim) const;

  /// Apriori join: if this and `other` are d-dimensional and share their
  /// first d-1 attributes, returns the merged (d+1)-dimensional candidate
  /// and sets *ok = true; otherwise sets *ok = false.
  Subspace AprioriJoin(const Subspace& other, bool* ok) const;

  /// All (d-1)-dimensional subsets, in attribute order of the removed dim.
  std::vector<Subspace> Parents() const;

  /// e.g. "{0, 3, 7}".
  std::string ToString() const;

  friend bool operator==(const Subspace& a, const Subspace& b) {
    return a.dims_ == b.dims_;
  }
  friend bool operator!=(const Subspace& a, const Subspace& b) {
    return !(a == b);
  }
  /// Lexicographic order; gives the canonical Apriori candidate ordering.
  friend bool operator<(const Subspace& a, const Subspace& b) {
    return a.dims_ < b.dims_;
  }

 private:
  std::vector<std::size_t> dims_;
};

/// Hash functor so Subspace can key unordered containers.
struct SubspaceHash {
  std::size_t operator()(const Subspace& s) const;
};

/// A subspace together with its quality (contrast, entropy, ...) as produced
/// by any subspace search method.
struct ScoredSubspace {
  Subspace subspace;
  double score = 0.0;
};

/// The subspaces of a scored list — ScoredSubspace, or any element type
/// with a `subspace` member — in list order with the scores dropped: the
/// form the outlier ranking consumes.
template <typename Scored>
std::vector<Subspace> PlainSubspaces(const std::vector<Scored>& scored) {
  std::vector<Subspace> plain;
  plain.reserve(scored.size());
  for (const Scored& s : scored) plain.push_back(s.subspace);
  return plain;
}

/// Sorts scored subspaces by descending score (ties: lexicographic subspace
/// order, so results are deterministic).
void SortByScoreDescending(std::vector<ScoredSubspace>* subspaces);

/// Keeps only the `k` best-scored subspaces (after sorting descending).
void KeepTopK(std::vector<ScoredSubspace>* subspaces, std::size_t k);

}  // namespace hics

#endif  // HICS_COMMON_SUBSPACE_H_
