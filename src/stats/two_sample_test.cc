#include "stats/two_sample_test.h"

#include <span>

#include "simd/simd.h"
#include "stats/cvm_test.h"
#include "stats/ks_test.h"
#include "stats/welch_t_test.h"

namespace hics::stats {

std::span<const double> SelectInIdOrder(const SelectionView& view,
                                        SelectionScratch* scratch) {
  const std::size_t n = view.column.size();
  scratch->values.resize(n + simd::kCompactPad);
  const std::size_t k = simd::ActiveKernels().slice_select(
      view.condition_ranks.data(), view.condition_starts.data(),
      view.condition_ranks.size(), view.block, view.column.data(), n,
      scratch->values.data());
  return std::span<const double>(scratch->values.data(), k);
}

std::span<const double> SelectSorted(const SelectionView& view,
                                     SelectionScratch* scratch) {
  // marginal_sorted[pos] == column[sorted_order[pos]], so the emitted
  // value needs no second indirection. The compaction gathers the mask
  // through sorted_order and compress-stores the hits — a pure data
  // movement, so every tier emits the identical value sequence.
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  const std::size_t n = view.sorted_order.size();
  scratch->mask.resize(n);
  scratch->values.resize(n + simd::kCompactPad);
  kernels.slice_mask(view.condition_ranks.data(), view.condition_starts.data(),
                     view.condition_ranks.size(), view.block, n,
                     scratch->mask.data());
  const std::size_t k = kernels.compact_selected_sorted(
      view.marginal_sorted.data(), view.sorted_order.data(),
      scratch->mask.data(), n, 1, scratch->values.data());
  return std::span<const double>(scratch->values.data(), k);
}

std::unique_ptr<TwoSampleTest> MakeTwoSampleTest(const std::string& name) {
  if (name == "welch" || name == "wt") {
    return std::make_unique<WelchTDeviation>();
  }
  if (name == "ks") {
    return std::make_unique<KsDeviation>();
  }
  if (name == "cvm") {
    return std::make_unique<CvmDeviation>();
  }
  return nullptr;
}

}  // namespace hics::stats
