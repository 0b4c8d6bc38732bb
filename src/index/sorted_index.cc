#include "index/sorted_index.h"

#include <algorithm>
#include <numeric>

#include "common/parallel.h"

namespace hics {
namespace {

/// Ranks are positions in [0, num_objects), stored as uint32_t.
void CheckRanksFit(std::size_t num_objects) {
  HICS_CHECK_LT(num_objects, std::size_t{1} << 32)
      << "SortedAttributeIndex stores ranks as uint32_t";
}

}  // namespace

SortedAttributeIndex::SortedAttributeIndex(const Dataset& dataset,
                                           std::size_t num_threads)
    : num_objects_(dataset.num_objects()),
      order_(dataset.num_attributes()),
      rank_(dataset.num_attributes()) {
  CheckRanksFit(num_objects_);
  ParallelFor(0, dataset.num_attributes(), num_threads, [&](std::size_t a) {
    const std::vector<double>& column = dataset.Column(a);
    auto& order = order_[a];
    order.resize(num_objects_);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&column](std::size_t x, std::size_t y) {
                       return SortedIndexLess(column[x], column[y]);
                     });
    auto& rank = rank_[a];
    rank.resize(num_objects_);
    for (std::size_t pos = 0; pos < num_objects_; ++pos) {
      rank[order[pos]] = static_cast<std::uint32_t>(pos);
    }
  });
}

SortedAttributeIndex::SortedAttributeIndex(
    std::size_t num_objects, std::vector<std::vector<std::size_t>> orders)
    : num_objects_(num_objects),
      order_(std::move(orders)),
      rank_(order_.size()) {
  CheckRanksFit(num_objects_);
  for (std::size_t a = 0; a < order_.size(); ++a) {
    const auto& order = order_[a];
    HICS_CHECK_EQ(order.size(), num_objects_);
    auto& rank = rank_[a];
    rank.resize(num_objects_);
    for (std::size_t pos = 0; pos < num_objects_; ++pos) {
      HICS_DCHECK(order[pos] < num_objects_);
      rank[order[pos]] = static_cast<std::uint32_t>(pos);
    }
  }
}

std::span<const std::size_t> SortedAttributeIndex::Block(
    std::size_t attribute, std::size_t start, std::size_t length) const {
  HICS_CHECK_LT(attribute, order_.size());
  HICS_CHECK_LE(start + length, num_objects_);
  return std::span<const std::size_t>(order_[attribute]).subspan(start,
                                                                 length);
}

std::vector<std::size_t> SlideSortedOrder(
    std::span<const double> column, std::span<const std::size_t> old_order,
    std::size_t evict) {
  std::vector<std::size_t> survivors;
  survivors.reserve(old_order.size() - std::min(evict, old_order.size()));
  for (std::size_t id : old_order) {
    if (id >= evict) survivors.push_back(id - evict);
  }
  HICS_CHECK_LE(survivors.size(), column.size());
  std::vector<std::size_t> admitted(column.size() - survivors.size());
  std::iota(admitted.begin(), admitted.end(), survivors.size());
  const auto by_value = [&column](std::size_t x, std::size_t y) {
    return SortedIndexLess(column[x], column[y]);
  };
  std::stable_sort(admitted.begin(), admitted.end(), by_value);
  std::vector<std::size_t> merged(column.size());
  std::merge(survivors.begin(), survivors.end(), admitted.begin(),
             admitted.end(), merged.begin(), by_value);
  return merged;
}

}  // namespace hics
