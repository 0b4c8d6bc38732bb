#include "core/slice.h"

#include <algorithm>
#include <cmath>

namespace hics {

SliceSampler::SliceSampler(const Dataset& dataset,
                           const SortedAttributeIndex& index)
    : num_objects_(dataset.num_objects()), index_(index) {
  HICS_CHECK_EQ(dataset.num_objects(), index.num_objects());
}

std::size_t SliceSampler::BlockSize(std::size_t dims, double alpha) const {
  HICS_CHECK_GE(dims, 2u);
  HICS_CHECK(alpha > 0.0 && alpha < 1.0) << "alpha must lie in (0,1)";
  const double alpha1 = std::pow(alpha, 1.0 / static_cast<double>(dims));
  const double n = static_cast<double>(num_objects_);
  std::size_t block = static_cast<std::size_t>(std::ceil(n * alpha1));
  block = std::max<std::size_t>(block, 1);
  block = std::min(block, num_objects_);
  return block;
}

void SliceSampler::DrawSelection(const Subspace& subspace, double alpha,
                                 Rng* rng, SliceScratch* scratch,
                                 SliceSelection* out) const {
  HICS_CHECK(rng != nullptr);
  HICS_CHECK(scratch != nullptr);
  HICS_CHECK(out != nullptr);
  HICS_CHECK_GE(subspace.size(), 2u)
      << "a one-dimensional subspace has no notion of contrast";
  const std::size_t n = num_objects_;
  *out = SliceSelection{};
  if (n == 0) return;

  // RNG consumption: one shuffle, then one block-start draw per
  // condition. The gathering reference draw (tests/contrast_oracle.h)
  // consumes it identically, so a shared rng state yields the same slice.
  std::vector<std::size_t>& attrs = scratch->attrs;
  attrs.assign(subspace.begin(), subspace.end());
  rng->Shuffle(&attrs);
  out->test_attribute = attrs.back();

  const std::size_t block = BlockSize(subspace.size(), alpha);
  const std::size_t num_conditions = attrs.size() - 1;
  scratch->condition_ranks.resize(num_conditions);
  scratch->condition_starts.resize(num_conditions);
  for (std::size_t c = 0; c < num_conditions; ++c) {
    const std::size_t max_start = n - block;
    const std::size_t start =
        max_start == 0 ? 0 : rng->UniformIndex(max_start + 1);
    scratch->condition_ranks[c] = index_.Ranks(attrs[c]).data();
    scratch->condition_starts[c] = static_cast<std::uint32_t>(start);
  }
  out->condition_ranks = scratch->condition_ranks;
  out->condition_starts = scratch->condition_starts;
  out->block = static_cast<std::uint32_t>(block);
}

}  // namespace hics
