#include "core/slice.h"

#include <algorithm>
#include <cmath>

namespace hics {

SliceSampler::SliceSampler(const Dataset& dataset,
                           const SortedAttributeIndex& index)
    : dataset_(dataset), index_(index) {
  HICS_CHECK_EQ(dataset.num_objects(), index.num_objects());
}

std::size_t SliceSampler::BlockSize(std::size_t dims, double alpha) const {
  HICS_CHECK_GE(dims, 2u);
  HICS_CHECK(alpha > 0.0 && alpha < 1.0) << "alpha must lie in (0,1)";
  const double alpha1 = std::pow(alpha, 1.0 / static_cast<double>(dims));
  const double n = static_cast<double>(dataset_.num_objects());
  std::size_t block = static_cast<std::size_t>(std::ceil(n * alpha1));
  block = std::max<std::size_t>(block, 1);
  block = std::min(block, dataset_.num_objects());
  return block;
}

SliceDraw SliceSampler::Draw(const Subspace& subspace, double alpha,
                             Rng* rng) const {
  SliceScratch scratch;
  SliceDraw draw;
  Draw(subspace, alpha, rng, &scratch, &draw);
  return draw;
}

void SliceSampler::Draw(const Subspace& subspace, double alpha, Rng* rng,
                        SliceScratch* scratch, SliceDraw* out) const {
  HICS_CHECK(rng != nullptr);
  HICS_CHECK(scratch != nullptr);
  HICS_CHECK(out != nullptr);
  HICS_CHECK_GE(subspace.size(), 2u)
      << "a one-dimensional subspace has no notion of contrast";
  const std::size_t n = dataset_.num_objects();
  out->test_attribute = 0;
  out->conditional_sample.clear();
  out->selected_count = 0;
  if (n == 0) return;

  // Random attribute permutation: last entry is tested, the rest condition.
  std::vector<std::size_t>& attrs = scratch->attrs;
  attrs.assign(subspace.begin(), subspace.end());
  rng->Shuffle(&attrs);
  out->test_attribute = attrs.back();

  const std::size_t block = BlockSize(subspace.size(), alpha);
  // Conjunctive combination of the per-attribute index-block selections by
  // counting: an object is selected iff every one of the |S|-1 blocks
  // contains it. One O(N) reset plus one pass over each block beats the
  // per-condition mask-AND formulation by ~3x in memory traffic.
  const std::uint16_t num_conditions =
      static_cast<std::uint16_t>(attrs.size() - 1);
  std::vector<std::uint16_t>& selected = scratch->selected;
  selected.assign(n, 0);
  for (std::size_t c = 0; c + 1 < attrs.size(); ++c) {
    const std::size_t attribute = attrs[c];
    const std::size_t max_start = n - block;
    const std::size_t start =
        max_start == 0 ? 0 : rng->UniformIndex(max_start + 1);
    for (std::size_t id : index_.Block(attribute, start, block)) {
      ++selected[id];
    }
  }

  const std::vector<double>& column = dataset_.Column(out->test_attribute);
  out->conditional_sample.reserve(block);
  for (std::size_t i = 0; i < n; ++i) {
    if (selected[i] == num_conditions) {
      out->conditional_sample.push_back(column[i]);
    }
  }
  out->selected_count = out->conditional_sample.size();
}

void SliceSampler::DrawSelection(const Subspace& subspace, double alpha,
                                 Rng* rng, SliceScratch* scratch,
                                 SliceSelection* out) const {
  HICS_CHECK(rng != nullptr);
  HICS_CHECK(scratch != nullptr);
  HICS_CHECK(out != nullptr);
  HICS_CHECK_GE(subspace.size(), 2u)
      << "a one-dimensional subspace has no notion of contrast";
  const std::size_t n = dataset_.num_objects();
  *out = SliceSelection{};
  if (n == 0) return;

  // Identical RNG consumption to Draw: one shuffle, then one block-start
  // draw per condition. A shared rng therefore produces the same slice
  // through either entry point.
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
