#include "index/sorted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"

namespace hics {
namespace {

TEST(SortedIndexTest, OrdersObjectsByAttributeValue) {
  auto ds = *Dataset::FromColumns({{3.0, 1.0, 2.0}, {0.5, 0.9, 0.1}});
  SortedAttributeIndex index(ds);
  EXPECT_EQ(index.num_objects(), 3u);
  EXPECT_EQ(index.num_attributes(), 2u);

  const auto order0 = index.SortedOrder(0);
  EXPECT_EQ(order0[0], 1u);
  EXPECT_EQ(order0[1], 2u);
  EXPECT_EQ(order0[2], 0u);

  const auto order1 = index.SortedOrder(1);
  EXPECT_EQ(order1[0], 2u);
  EXPECT_EQ(order1[1], 0u);
  EXPECT_EQ(order1[2], 1u);
}

TEST(SortedIndexTest, RankIsInversePermutation) {
  Rng rng(3);
  std::vector<double> col(100);
  for (double& v : col) v = rng.UniformDouble();
  auto ds = *Dataset::FromColumns({col});
  SortedAttributeIndex index(ds);
  for (std::size_t pos = 0; pos < 100; ++pos) {
    const std::size_t object = index.SortedOrder(0)[pos];
    EXPECT_EQ(index.RankOf(0, object), pos);
  }
}

TEST(SortedIndexTest, RanksMatchRankOfForBothConstructors) {
  // Ranks(a) is the uint32 column the slice mask streams over; it must
  // agree with RankOf for an index built by sorting and for one adopting
  // precomputed orders (the streaming plane's incremental path), with
  // duplicate-heavy columns so the stable tie order matters.
  Rng rng(29);
  const std::size_t n = 257;
  std::vector<std::vector<double>> columns(3, std::vector<double>(n));
  for (std::size_t j = 0; j < columns.size(); ++j) {
    for (double& v : columns[j]) {
      v = j == 0 ? rng.UniformDouble()
                 : std::floor(rng.UniformDouble() * 5.0);
    }
  }
  auto ds = *Dataset::FromColumns(columns);
  const SortedAttributeIndex sorted(ds, 2);
  std::vector<std::vector<std::size_t>> orders;
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    const auto order = sorted.SortedOrder(a);
    orders.emplace_back(order.begin(), order.end());
  }
  const SortedAttributeIndex adopted(n, std::move(orders));
  for (const SortedAttributeIndex* index : {&sorted, &adopted}) {
    for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
      const auto ranks = index->Ranks(a);
      ASSERT_EQ(ranks.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ranks[i], index->RankOf(a, i)) << "attribute " << a;
        EXPECT_EQ(index->SortedOrder(a)[ranks[i]], i) << "attribute " << a;
      }
    }
  }
  for (std::size_t a = 0; a < ds.num_attributes(); ++a) {
    const auto x = sorted.Ranks(a);
    const auto y = adopted.Ranks(a);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
  }
}

TEST(SortedIndexTest, BlockReturnsContiguousRange) {
  auto ds = *Dataset::FromColumns({{5.0, 4.0, 3.0, 2.0, 1.0}});
  SortedAttributeIndex index(ds);
  const auto block = index.Block(0, 1, 3);
  ASSERT_EQ(block.size(), 3u);
  // Sorted ascending: objects 4,3,2,1,0; block [1,4) = 3,2,1.
  EXPECT_EQ(block[0], 3u);
  EXPECT_EQ(block[1], 2u);
  EXPECT_EQ(block[2], 1u);
}

TEST(SortedIndexTest, BlockValuesAreSortedSlice) {
  Rng rng(17);
  std::vector<double> col(50);
  for (double& v : col) v = rng.Gaussian();
  auto ds = *Dataset::FromColumns({col});
  SortedAttributeIndex index(ds);
  const auto block = index.Block(0, 10, 20);
  for (std::size_t i = 0; i + 1 < block.size(); ++i) {
    EXPECT_LE(col[block[i]], col[block[i + 1]]);
  }
  // Every value in the block is >= every value before it and <= after.
  const auto full = index.SortedOrder(0);
  EXPECT_LE(col[full[9]], col[block[0]]);
  EXPECT_LE(col[block[19]], col[full[30]]);
}

TEST(SortedIndexTest, StableForTies) {
  auto ds = *Dataset::FromColumns({{1.0, 1.0, 1.0}});
  SortedAttributeIndex index(ds);
  const auto order = index.SortedOrder(0);
  // stable_sort keeps original object order for equal keys.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Reference order: the finite (and infinite) values ascending with ties
/// in id order, then the NaN ids ascending.
std::vector<std::size_t> NaNLastOrder(const std::vector<double>& column) {
  std::vector<std::size_t> numbers, nans;
  for (std::size_t id = 0; id < column.size(); ++id) {
    (std::isnan(column[id]) ? nans : numbers).push_back(id);
  }
  std::stable_sort(numbers.begin(), numbers.end(),
                   [&](std::size_t x, std::size_t y) {
                     return column[x] < column[y];
                   });
  numbers.insert(numbers.end(), nans.begin(), nans.end());
  return numbers;
}

Dataset OneColumn(const std::vector<double>& column) {
  Dataset ds(column.size(), 1);
  for (std::size_t i = 0; i < column.size(); ++i) ds.Set(i, 0, column[i]);
  return ds;
}

std::vector<std::size_t> OrderOf(const SortedAttributeIndex& index) {
  const auto order = index.SortedOrder(0);
  return std::vector<std::size_t>(order.begin(), order.end());
}

TEST(SortedIndexTest, NaNsSortAfterEveryNumberInIdOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> column = {3.0, kNaN, 1.0,  kNaN, 2.0,
                                      -inf, kNaN, 1.0, inf,  0.5};
  const SortedAttributeIndex index(OneColumn(column));
  const std::vector<std::size_t> want = {5, 9, 2, 7, 4, 0, 8, 1, 3, 6};
  EXPECT_EQ(OrderOf(index), want);
  // Randomized: a third of the cells NaN, plus duplicates.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    std::vector<double> values(200);
    for (double& v : values) {
      const double u = rng.UniformDouble();
      v = u < 0.33 ? kNaN : std::floor(u * 20.0);
    }
    EXPECT_EQ(OrderOf(SortedAttributeIndex(OneColumn(values))),
              NaNLastOrder(values))
        << "seed " << seed;
  }
}

TEST(SortedIndexTest, SlideOverNaNCellsMatchesAColdRebuild) {
  // The streaming plane's order maintenance: evict a prefix, admit rows,
  // merge. Over NaN cells it must land on the cold index's order.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(100 + seed);
    const auto cell = [&rng] {
      const double u = rng.UniformDouble();
      return u < 0.25 ? kNaN : std::floor(u * 12.0);
    };
    std::vector<double> window(60);
    for (double& v : window) v = cell();
    std::vector<std::size_t> order =
        OrderOf(SortedAttributeIndex(OneColumn(window)));
    for (int step = 0; step < 5; ++step) {
      const std::size_t evict = rng.UniformIndex(15);
      const std::size_t admit = rng.UniformIndex(15);
      window.erase(window.begin(), window.begin() + evict);
      for (std::size_t i = 0; i < admit; ++i) window.push_back(cell());
      order = SlideSortedOrder(window, order, evict);
      EXPECT_EQ(order, OrderOf(SortedAttributeIndex(OneColumn(window))))
          << "seed " << seed << " step " << step;
      EXPECT_EQ(order, NaNLastOrder(window))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(SortedIndexDeathTest, BlockOutOfRangeAborts) {
  auto ds = *Dataset::FromColumns({{1.0, 2.0}});
  SortedAttributeIndex index(ds);
  EXPECT_DEATH(index.Block(0, 1, 2), "");
  EXPECT_DEATH(index.Block(7, 0, 1), "");
}

TEST(SortedIndexDeathTest, RejectsMoreObjectsThanUint32Ranks) {
  // Checked before any per-attribute work, so no orders are needed.
  EXPECT_DEATH(SortedAttributeIndex(std::size_t{1} << 32, {}), "uint32_t");
}

}  // namespace
}  // namespace hics
