// SIMD layer guarantees (DESIGN.md §5g):
//  (1) every CANONICAL kernel (exact distance, bounded distance, the
//      KD-tree leaf screen, the fused slice select, the slice mask, both
//      compactions, sum, sum_sq_dev) is bit-identical across
//      every tier this machine can run, on hostile inputs too (NaN,
//      duplicates, tie-heavy, remainder-heavy lengths);
//  (2) the SCREENING kernels stay within the slack margins the brute-force
//      searcher covers them with, in both precisions;
//  (3) the dispatch seam: tier parsing/clamping/scoped restore, and — end
//      to end — ranking, search, serve and every KD-tree query are
//      byte-identical when each tier is forced, across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/hics.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "index/distance.h"
#include "index/neighbor_searcher.h"
#include "knn_oracle.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"
#include "serve/hics_model.h"
#include "simd/simd.h"

namespace hics {
namespace {

using simd::KernelsForTier;
using simd::SimdTier;

std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (simd::DetectedTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (simd::DetectedTier() >= SimdTier::kAvx512) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random values with duplicates, exact ties, and (optionally) NaN/inf
/// planted — the inputs most likely to expose ordering or masking bugs.
std::vector<double> HostileValues(std::size_t n, std::uint64_t seed,
                                  bool with_specials) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = rng.UniformDouble() * 100.0 - 50.0;
  }
  for (std::size_t i = 3; i + 2 < n; i += 5) v[i + 2] = v[i];  // ties
  if (with_specials && n > 4) {
    v[n / 3] = std::numeric_limits<double>::quiet_NaN();
    v[2 * n / 3] = std::numeric_limits<double>::infinity();
  }
  return v;
}

const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,
                                15, 16, 17, 23, 31, 32, 33, 100, 257};

TEST(SimdKernelTest, SquaredDistanceIdenticalAcrossTiers) {
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  for (std::size_t dim : kLengths) {
    for (bool specials : {false, true}) {
      const std::vector<double> a = HostileValues(dim, 11 + dim, specials);
      const std::vector<double> b = HostileValues(dim, 77 + dim, false);
      const double expected = scalar.squared_distance(a.data(), b.data(), dim);
      for (SimdTier tier : AvailableTiers()) {
        const double got =
            KernelsForTier(tier).squared_distance(a.data(), b.data(), dim);
        EXPECT_EQ(Bits(expected), Bits(got))
            << "dim=" << dim << " tier=" << simd::SimdTierName(tier)
            << " specials=" << specials;
      }
    }
  }
}

TEST(SimdKernelTest, LeafScreenIdenticalAcrossTiers) {
  // Every tier against scalar over each block size, dimensionality and a
  // padded or exact column stride; d2 must also be SquaredDistance of the
  // gathered point, the mask must be exactly d2 <= bound (a bound equal to
  // one computed d2 sets that bit), and nothing past d2[count) is written.
  const double inf = std::numeric_limits<double>::infinity();
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  for (std::size_t dim = 1; dim <= 20; ++dim) {
    for (std::size_t count = 1; count <= simd::kLeafScreenWidth; ++count) {
      for (std::size_t stride : {count, count + 5}) {
        // Exactly dim * stride elements: the last column ends at the
        // allocation's end, so an over-read shows under ASan.
        const std::vector<double> cols =
            HostileValues(dim * stride, 31 * dim + count, false);
        const std::vector<double> q = HostileValues(dim, 7 * dim, false);
        std::vector<double> point(dim);
        std::vector<double> expected(count);
        for (std::size_t t = 0; t < count; ++t) {
          for (std::size_t j = 0; j < dim; ++j) {
            point[j] = cols[j * stride + t];
          }
          expected[t] = SquaredDistance(q.data(), point.data(), dim);
        }
        const double tie = expected[count / 2];
        const double below = std::nextafter(
            *std::min_element(expected.begin(), expected.end()), -inf);
        for (double bound : {tie, inf, below}) {
          std::vector<double> ref(count + 1, -1.0);
          const std::uint32_t ref_mask = scalar.leaf_screen(
              q.data(), cols.data(), stride, dim, count, bound, ref.data());
          for (SimdTier tier : AvailableTiers()) {
            const std::string where =
                "dim=" + std::to_string(dim) + " count=" +
                std::to_string(count) + " stride=" + std::to_string(stride) +
                " bound=" + std::to_string(bound) +
                " tier=" + simd::SimdTierName(tier);
            std::vector<double> d2(count + 1, -1.0);
            const std::uint32_t mask = KernelsForTier(tier).leaf_screen(
                q.data(), cols.data(), stride, dim, count, bound, d2.data());
            EXPECT_EQ(mask, ref_mask) << where;
            EXPECT_EQ(Bits(d2[count]), Bits(-1.0)) << where;
            for (std::size_t t = 0; t < count; ++t) {
              EXPECT_EQ(Bits(d2[t]), Bits(ref[t])) << where << " t=" << t;
              EXPECT_EQ(Bits(d2[t]), Bits(expected[t])) << where << " t=" << t;
              EXPECT_EQ((mask >> t) & 1u,
                        static_cast<std::uint32_t>(expected[t] <= bound))
                  << where << " t=" << t;
            }
            EXPECT_EQ(mask >> count, 0u) << where;
          }
          if (bound == inf) {
            EXPECT_EQ(ref_mask, (std::uint32_t{1} << count) - 1);
          } else if (bound == below) {
            EXPECT_EQ(ref_mask, 0u);
          } else {
            EXPECT_NE((ref_mask >> (count / 2)) & 1u, 0u) << "tie at bound";
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, BoundedDistanceEqualsFullBelowBound) {
  // Satellite pin: SquaredDistanceBounded accumulates in the same 4-wide
  // partial sums as SquaredDistance, so any result that never exceeded the
  // bound is the full distance, bit for bit — per tier and at the repo
  // seam (index/distance.h), which dispatches above kSimdDistanceMinDim.
  for (std::size_t dim : kLengths) {
    const std::vector<double> a = HostileValues(dim, 5 + dim, false);
    const std::vector<double> b = HostileValues(dim, 6 + dim, false);
    const double inf = std::numeric_limits<double>::infinity();
    for (SimdTier tier : AvailableTiers()) {
      const simd::SimdKernels& k = KernelsForTier(tier);
      const double full = k.squared_distance(a.data(), b.data(), dim);
      EXPECT_EQ(Bits(full),
                Bits(k.squared_distance_bounded(a.data(), b.data(), dim, inf)))
          << "dim=" << dim << " tier=" << simd::SimdTierName(tier);
      // Partial bounds: below-bound results must still equal the full
      // distance; above-bound results need only certify exceedance.
      for (double frac : {0.1, 0.5, 0.9, 1.0}) {
        const double bound = full * frac;
        const double got =
            k.squared_distance_bounded(a.data(), b.data(), dim, bound);
        if (got <= bound) {
          EXPECT_EQ(Bits(full), Bits(got)) << "dim=" << dim << " frac=" << frac;
        } else {
          EXPECT_GT(got, bound) << "dim=" << dim << " frac=" << frac;
        }
      }
    }
    EXPECT_EQ(Bits(SquaredDistance(a.data(), b.data(), dim)),
              Bits(SquaredDistanceBounded(a.data(), b.data(), dim, inf)))
        << "distance.h seam, dim=" << dim;
  }
}

TEST(SimdKernelTest, CompactSelectedIdenticalAcrossTiers) {
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  for (std::size_t n : kLengths) {
    for (double density : {0.0, 0.1, 0.5, 1.0}) {
      Rng rng(1000 + n);
      const std::vector<double> column = HostileValues(n, 13 + n, true);
      std::vector<std::uint32_t> stamps(n);
      const std::uint32_t target = 42;
      for (std::size_t i = 0; i < n; ++i) {
        stamps[i] = rng.UniformDouble() < density ? target : 7;
      }
      std::vector<double> expected(n + simd::kCompactPad, -1.0);
      const std::size_t want = scalar.compact_selected(
          column.data(), stamps.data(), n, target, expected.data());
      for (SimdTier tier : AvailableTiers()) {
        std::vector<double> out(n + simd::kCompactPad, -2.0);
        const std::size_t got = KernelsForTier(tier).compact_selected(
            column.data(), stamps.data(), n, target, out.data());
        ASSERT_EQ(want, got)
            << "n=" << n << " tier=" << simd::SimdTierName(tier);
        for (std::size_t i = 0; i < got; ++i) {
          EXPECT_EQ(Bits(expected[i]), Bits(out[i]))
              << "n=" << n << " i=" << i
              << " tier=" << simd::SimdTierName(tier);
        }
      }
    }
  }
}

TEST(SimdKernelTest, CompactSelectedSortedIdenticalAcrossTiers) {
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  for (std::size_t n : kLengths) {
    Rng rng(2000 + n);
    std::vector<double> sorted = HostileValues(n, 17 + n, false);
    std::sort(sorted.begin(), sorted.end());
    // Random permutation as the sorted_order -> object-id mapping.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    std::vector<std::uint32_t> stamps(n);
    const std::uint32_t target = 3;
    for (std::size_t i = 0; i < n; ++i) {
      stamps[i] = rng.UniformDouble() < 0.3 ? target : 9;
    }
    std::vector<double> expected(n + simd::kCompactPad, -1.0);
    const std::size_t want = scalar.compact_selected_sorted(
        sorted.data(), order.data(), stamps.data(), n, target,
        expected.data());
    for (SimdTier tier : AvailableTiers()) {
      std::vector<double> out(n + simd::kCompactPad, -2.0);
      const std::size_t got = KernelsForTier(tier).compact_selected_sorted(
          sorted.data(), order.data(), stamps.data(), n, target, out.data());
      ASSERT_EQ(want, got) << "n=" << n << " tier=" << simd::SimdTierName(tier);
      for (std::size_t i = 0; i < got; ++i) {
        EXPECT_EQ(Bits(expected[i]), Bits(out[i]))
            << "n=" << n << " i=" << i << " tier=" << simd::SimdTierName(tier);
      }
    }
  }
}

TEST(SimdKernelTest, SliceMaskMatchesOracleAcrossTiers) {
  // Every tier must produce, for each object, exactly the brute-force
  // membership of the intersection of the conditions' rank blocks — at
  // the vector-width edges, with full-range and unit blocks placed at
  // both ends of the rank range, and without writing past n.
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 4099u}) {
    Rng rng(500 + n);
    std::vector<std::vector<std::uint32_t>> rank_columns(12);
    for (auto& ranks : rank_columns) {
      ranks.resize(n);
      std::iota(ranks.begin(), ranks.end(), 0u);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(ranks[i - 1], ranks[rng.UniformIndex(i)]);
      }
    }
    std::vector<const std::uint32_t*> ranks;
    for (const auto& column : rank_columns) ranks.push_back(column.data());
    const std::size_t max_block = std::max<std::size_t>(n, 1);
    for (std::size_t conditions = 1; conditions <= 12; ++conditions) {
      for (std::size_t block : {std::size_t{1}, max_block}) {
        const std::size_t max_start = n >= block ? n - block : 0;
        for (std::size_t start_mode = 0; start_mode < 3; ++start_mode) {
          std::vector<std::uint32_t> starts(conditions);
          for (std::uint32_t& s : starts) {
            s = static_cast<std::uint32_t>(
                start_mode == 0   ? 0
                : start_mode == 1 ? max_start
                                  : rng.UniformIndex(max_start + 1));
          }
          std::vector<std::uint32_t> want(n);
          for (std::size_t i = 0; i < n; ++i) {
            bool in = true;
            for (std::size_t c = 0; c < conditions; ++c) {
              in = in && ranks[c][i] >= starts[c] &&
                   ranks[c][i] < starts[c] + block;
            }
            want[i] = in ? 1u : 0u;
          }
          for (SimdTier tier : AvailableTiers()) {
            std::vector<std::uint32_t> got(n + 1, 0xDEADBEEF);
            KernelsForTier(tier).slice_mask(
                ranks.data(), starts.data(), conditions,
                static_cast<std::uint32_t>(block), n, got.data());
            EXPECT_EQ(got[n], 0xDEADBEEFu) << "tier wrote past n";
            got.resize(n);
            EXPECT_EQ(got, want)
                << "n=" << n << " conditions=" << conditions
                << " block=" << block << " start_mode=" << start_mode
                << " tier=" << simd::SimdTierName(tier);
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, SliceSelectMatchesOracleAcrossTiers) {
  // The fused select must write exactly what scalar slice_mask +
  // compact_selected write — count and bytes — for every condition count
  // with its own instantiation (0..7) and the generic loop above (8, 9),
  // at the vector-width edges, with unit, third and full blocks at both
  // ends of the rank range, and write nothing past out[k + kCompactPad).
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  constexpr std::size_t kGuard = 16;
  const double sentinel = -7.25;
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 2001u}) {
    Rng rng(900 + n);
    std::vector<std::vector<std::uint32_t>> rank_columns(9);
    for (auto& ranks : rank_columns) {
      ranks.resize(n);
      std::iota(ranks.begin(), ranks.end(), 0u);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(ranks[i - 1], ranks[rng.UniformIndex(i)]);
      }
    }
    std::vector<const std::uint32_t*> ranks;
    for (const auto& column : rank_columns) ranks.push_back(column.data());
    const std::vector<double> column = HostileValues(n, 31 + n, true);
    for (std::size_t conditions = 0; conditions <= 9; ++conditions) {
      for (std::size_t block :
           {std::size_t{1}, std::max<std::size_t>(n / 3, 1),
            std::max<std::size_t>(n, 1)}) {
        const std::size_t last = n >= block ? n - block : 0;
        for (std::size_t start : {std::size_t{0}, last}) {
          const std::vector<std::uint32_t> starts(
              conditions, static_cast<std::uint32_t>(start));
          std::vector<std::uint32_t> mask(n);
          scalar.slice_mask(ranks.data(), starts.data(), conditions,
                            static_cast<std::uint32_t>(block), n,
                            mask.data());
          std::vector<double> want(n + simd::kCompactPad);
          const std::size_t k = scalar.compact_selected(
              column.data(), mask.data(), n, 1, want.data());
          for (SimdTier tier : AvailableTiers()) {
            std::vector<double> out(n + simd::kCompactPad + kGuard, sentinel);
            const std::size_t got = KernelsForTier(tier).slice_select(
                ranks.data(), starts.data(), conditions,
                static_cast<std::uint32_t>(block), column.data(), n,
                out.data());
            const std::string where =
                "n=" + std::to_string(n) +
                " conditions=" + std::to_string(conditions) +
                " block=" + std::to_string(block) +
                " start=" + std::to_string(start) +
                " tier=" + simd::SimdTierName(tier);
            ASSERT_EQ(got, k) << where;
            for (std::size_t i = 0; i < k; ++i) {
              ASSERT_EQ(Bits(out[i]), Bits(want[i])) << where << " i=" << i;
            }
            for (std::size_t i = k + simd::kCompactPad; i < out.size(); ++i) {
              ASSERT_EQ(Bits(out[i]), Bits(sentinel))
                  << where << " wrote slot " << i;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, MomentKernelsIdenticalAcrossTiers) {
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  for (std::size_t n : kLengths) {
    for (bool specials : {false, true}) {
      const std::vector<double> v = HostileValues(n, 23 + n, specials);
      const double sum_want = scalar.sum(v.data(), n);
      const double mean = n > 0 ? sum_want / static_cast<double>(n) : 0.0;
      const double ssd_want = scalar.sum_sq_dev(v.data(), n, mean);
      for (SimdTier tier : AvailableTiers()) {
        const simd::SimdKernels& k = KernelsForTier(tier);
        EXPECT_EQ(Bits(sum_want), Bits(k.sum(v.data(), n)))
            << "n=" << n << " tier=" << simd::SimdTierName(tier)
            << " specials=" << specials;
        EXPECT_EQ(Bits(ssd_want), Bits(k.sum_sq_dev(v.data(), n, mean)))
            << "n=" << n << " tier=" << simd::SimdTierName(tier)
            << " specials=" << specials;
      }
    }
  }
}

TEST(SimdKernelTest, BinIndexIdenticalAcrossTiers) {
  // The grid tier's canonical kernel: every tier must produce the exact
  // uint32 bin of BinIndexOne per element, on hostile inputs too (NaN and
  // inf planted by HostileValues, plus explicit edge probes below).
  const simd::SimdKernels& scalar = KernelsForTier(SimdTier::kScalar);
  const double lo = -50.0;
  const double scale = 16.0 / 100.0;
  const double max_bin = 15.0;
  for (std::size_t n : kLengths) {
    for (bool specials : {false, true}) {
      const std::vector<double> v = HostileValues(n, 41 + n, specials);
      std::vector<std::uint32_t> expected(n + 1, 0xDEADBEEF);
      scalar.bin_index(v.data(), n, lo, scale, max_bin, expected.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expected[i], simd::BinIndexOne(v[i], lo, scale, max_bin))
            << "scalar kernel disagrees with BinIndexOne at " << i;
      }
      for (SimdTier tier : AvailableTiers()) {
        std::vector<std::uint32_t> out(n + 1, 0xDEADBEEF);
        KernelsForTier(tier).bin_index(v.data(), n, lo, scale, max_bin,
                                       out.data());
        EXPECT_EQ(out[n], 0xDEADBEEFu) << "tier wrote past n";
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(expected[i], out[i])
              << "n=" << n << " i=" << i
              << " tier=" << simd::SimdTierName(tier)
              << " specials=" << specials;
        }
      }
    }
  }
}

TEST(SimdKernelTest, BinIndexEdgeSemantics) {
  // The documented clamp order: NaN, -inf, and everything below `lo` land
  // in bin 0; +inf and everything past the top edge cap at max_bin; exact
  // interior edges truncate downward.
  const double lo = 0.0;
  const double scale = 4.0;  // 4 bins over [0, 1), max_bin = 3
  const double max_bin = 3.0;
  const std::vector<double> v = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      -1e300, 1e300, -0.0, 0.0, 0.2499, 0.25, 0.5, 0.75, 0.999, 1.0, 2.0,
  };
  const std::vector<std::uint32_t> want = {0, 0, 3, 0, 3, 0, 0,
                                           0, 1, 2, 3, 3, 3, 3};
  for (SimdTier tier : AvailableTiers()) {
    std::vector<std::uint32_t> out(v.size(), 99);
    KernelsForTier(tier).bin_index(v.data(), v.size(), lo, scale, max_bin,
                                   out.data());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(out[i], want[i])
          << "value " << v[i] << " tier=" << simd::SimdTierName(tier);
    }
  }
}

TEST(SimdKernelTest, ScreeningRowsStayWithinSlack) {
  // Screening is approximate by contract; the invariant the searcher
  // depends on is |screen - exact| <= the slack margin it adds to the heap
  // bound before deciding to skip a pair.
  const std::size_t n = 300;
  for (std::size_t dim : {1u, 2u, 3u, 5u, 8u, 16u}) {
    Rng rng(31 * dim);
    std::vector<double> soa(dim * n);
    for (double& x : soa) x = rng.UniformDouble() * 10.0 - 5.0;
    std::vector<double> norms(n, 0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t i = 0; i < n; ++i) {
        norms[i] += soa[d * n + i] * soa[d * n + i];
      }
    }
    auto exact = [&](std::size_t i, std::size_t j) {
      double sum = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = soa[d * n + i] - soa[d * n + j];
        sum += diff * diff;
      }
      return sum;
    };
    const std::size_t i = 7;
    const std::size_t j0 = 50;
    const std::size_t w = 128;
    for (SimdTier tier : AvailableTiers()) {
      const simd::SimdKernels& k = KernelsForTier(tier);
      std::vector<double> d2(w);
      k.screen_row_f64(soa.data(), n, dim, i, j0, w, norms[i],
                       norms.data() + j0, d2.data());
      for (std::size_t t = 0; t < w; ++t) {
        const double slack = 1e-12 * (norms[i] + norms[j0 + t]);
        EXPECT_LE(std::fabs(d2[t] - exact(i, j0 + t)), slack)
            << "dim=" << dim << " t=" << t
            << " tier=" << simd::SimdTierName(tier);
      }
    }
  }
}

TEST(SimdDispatchTest, ParseAndNames) {
  SimdTier tier;
  EXPECT_TRUE(simd::ParseSimdTier("scalar", &tier));
  EXPECT_EQ(tier, SimdTier::kScalar);
  EXPECT_TRUE(simd::ParseSimdTier("avx2", &tier));
  EXPECT_EQ(tier, SimdTier::kAvx2);
  EXPECT_TRUE(simd::ParseSimdTier("avx512", &tier));
  EXPECT_EQ(tier, SimdTier::kAvx512);
  EXPECT_TRUE(simd::ParseSimdTier("auto", &tier));
  EXPECT_EQ(tier, simd::DetectedTier());
  EXPECT_FALSE(simd::ParseSimdTier("sse9", &tier));
  EXPECT_FALSE(simd::ParseSimdTier("", &tier));
  for (SimdTier t : AvailableTiers()) {
    SimdTier parsed;
    ASSERT_TRUE(simd::ParseSimdTier(simd::SimdTierName(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
}

TEST(SimdDispatchTest, ScopedOverrideClampsAndRestores) {
  const SimdTier ambient = simd::ActiveTier();
  {
    simd::ScopedSimdTier forced(SimdTier::kScalar);
    EXPECT_EQ(forced.applied(), SimdTier::kScalar);
    EXPECT_EQ(simd::ActiveTier(), SimdTier::kScalar);
    EXPECT_STREQ(simd::ActiveKernels().name, "scalar");
    {
      // Requests above the machine's capability clamp down, never up.
      simd::ScopedSimdTier nested(SimdTier::kAvx512);
      EXPECT_LE(nested.applied(), simd::DetectedTier());
      EXPECT_EQ(simd::ActiveTier(), nested.applied());
    }
    EXPECT_EQ(simd::ActiveTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(simd::ActiveTier(), ambient);
}

// --- Dispatch-seam end-to-end identity ------------------------------------

Dataset SeamData(std::uint64_t seed) {
  SyntheticParams gen;
  gen.num_objects = 250;
  gen.num_attributes = 8;
  gen.seed = seed;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data->data;
}

HicsParams SeamParams(std::size_t threads) {
  HicsParams params;
  params.num_iterations = 20;
  params.max_dimensionality = 3;
  params.output_top_k = 40;
  params.num_threads = threads;
  return params;
}

// The search at the scalar tier: the reference every seam test compares
// the dispatched tiers against.
Result<std::vector<ScoredSubspace>> ScalarSearch(const Dataset& data) {
  simd::ScopedSimdTier forced(SimdTier::kScalar);
  return RunHicsSearch(data, SeamParams(1));
}

const std::size_t kSeamThreads[] = {1, 2, 4};

TEST(SimdSeamTest, SearchIsIdenticalAcrossTiersAndThreads) {
  const Dataset data = SeamData(91);
  const auto reference = ScalarSearch(data);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());
  for (SimdTier tier : AvailableTiers()) {
    for (std::size_t threads : kSeamThreads) {
      simd::ScopedSimdTier forced(tier);
      const auto result = RunHicsSearch(data, SeamParams(threads));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->size(), reference->size())
          << simd::SimdTierName(tier) << " threads=" << threads;
      for (std::size_t i = 0; i < result->size(); ++i) {
        EXPECT_EQ((*result)[i].subspace, (*reference)[i].subspace)
            << simd::SimdTierName(tier) << " threads=" << threads;
        EXPECT_EQ(Bits((*result)[i].score), Bits((*reference)[i].score))
            << simd::SimdTierName(tier) << " threads=" << threads
            << " position " << i;
      }
    }
  }
}

TEST(SimdSeamTest, RankingIsIdenticalAcrossTiersAndThreads) {
  const Dataset data = SeamData(92);
  const auto subspaces = ScalarSearch(data);
  ASSERT_TRUE(subspaces.ok());
  ASSERT_GT(subspaces->size(), 2u);
  const LofScorer lof({.min_pts = 10});
  std::vector<double> reference;
  {
    simd::ScopedSimdTier forced(SimdTier::kScalar);
    reference = RankWithSubspaces(PreparedDataset(data),
                                  PlainSubspaces(*subspaces), lof,
                                  ScoreAggregation::kAverage, 1);
  }
  for (SimdTier tier : AvailableTiers()) {
    for (std::size_t threads : kSeamThreads) {
      simd::ScopedSimdTier forced(tier);
      const auto scores = RankWithSubspaces(
          PreparedDataset(data), PlainSubspaces(*subspaces), lof,
          ScoreAggregation::kAverage, threads);
      ASSERT_EQ(scores.size(), reference.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(Bits(scores[i]), Bits(reference[i]))
            << "object " << i << " tier=" << simd::SimdTierName(tier)
            << " threads=" << threads;
      }
    }
  }
}

TEST(SimdSeamTest, ServeIsIdenticalAcrossTiers) {
  const Dataset data = SeamData(93);
  HicsModelConfig config;
  config.search_params = SeamParams(1);
  config.scorer = {ScorerKind::kLof, 10};
  // Out-of-sample queries: perturbed copies of training rows.
  std::vector<double> queries;
  const std::size_t num_queries = 20;
  Rng rng(404);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (std::size_t j = 0; j < data.num_attributes(); ++j) {
      queries.push_back(data.Get(q * 3, j) + 0.01 * rng.UniformDouble());
    }
  }
  std::vector<double> ref_training;
  std::vector<double> ref_queries;
  {
    simd::ScopedSimdTier forced(SimdTier::kScalar);
    const auto model = HicsModel::Fit(data, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ref_training = model->training_scores();
    const auto scored = model->ScoreQueries(queries, num_queries);
    ASSERT_TRUE(scored.ok());
    ref_queries = *scored;
  }
  for (SimdTier tier : AvailableTiers()) {
    simd::ScopedSimdTier forced(tier);
    const auto model = HicsModel::Fit(data, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_EQ(model->training_scores().size(), ref_training.size());
    for (std::size_t i = 0; i < ref_training.size(); ++i) {
      EXPECT_EQ(Bits(model->training_scores()[i]), Bits(ref_training[i]))
          << "training object " << i
          << " tier=" << simd::SimdTierName(tier);
    }
    const auto scored = model->ScoreQueries(queries, num_queries);
    ASSERT_TRUE(scored.ok());
    ASSERT_EQ(scored->size(), ref_queries.size());
    for (std::size_t i = 0; i < ref_queries.size(); ++i) {
      EXPECT_EQ(Bits((*scored)[i]), Bits(ref_queries[i]))
          << "query " << i << " tier=" << simd::SimdTierName(tier);
    }
  }
}

void ExpectSameNeighbors(std::span<const Neighbor> got,
                         std::span<const Neighbor> want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " neighbor " << i;
    EXPECT_EQ(Bits(got[i].distance), Bits(want[i].distance))
        << where << " neighbor " << i;
  }
}

TEST(SimdSeamTest, KdTreeIdenticalAcrossTiers) {
  // N = 301 is not a multiple of the 16-point leaf block, so some leaf
  // ends at the last element of the last column; rows [100, 140) are one
  // point repeated, a leaf of 40 identical points scanned in three blocks.
  // |S| = 16 and 20 sit at and past the old 16-dim distance switch.
  const std::size_t n = 301;
  Dataset data(n, 20);
  Rng rng(95);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      data.Set(i, j, i >= 100 && i < 140 ? 0.25 : rng.UniformDouble());
    }
  }
  const std::size_t k = 10;
  for (std::size_t dims : {2, 7, 16, 20}) {
    std::vector<std::size_t> attributes;
    for (std::size_t j = 0; j < dims; ++j) attributes.push_back(j * 3 % 20);
    const Subspace subspace(attributes);
    // Out-of-sample points: perturbed rows and one exact copy of a
    // duplicated row.
    std::vector<std::vector<double>> points;
    for (std::size_t q = 0; q < n; q += 37) {
      std::vector<double> point;
      for (std::size_t j : subspace) {
        point.push_back(data.Get(q, j) + 0.001 * rng.UniformDouble());
      }
      points.push_back(point);
    }
    points.emplace_back(dims, 0.25);
    // Scalar brute force queried per object, and the exhaustive radius
    // scan (knn_oracle.h), are the references; the radius is each query's
    // k-th neighbor distance, so ties at the radius are exercised.
    KnnResultTable reference;
    std::vector<std::vector<Neighbor>> ref_points;
    std::vector<std::size_t> ref_radius_counts;
    std::vector<double> radii;
    {
      simd::ScopedSimdTier forced(SimdTier::kScalar);
      const auto brute = MakeBruteForceSearcher(data, subspace);
      PerQueryAllKnn(*brute, k, &reference);
      for (const auto& point : points) {
        ref_points.push_back(brute->QueryKnnPoint(point, k));
      }
      for (std::size_t q = 0; q < n; ++q) {
        radii.push_back(reference.Row(q).back().distance);
        ref_radius_counts.push_back(
            OracleQueryRadius(data, subspace, q, radii.back()).size());
      }
    }
    for (SimdTier tier : AvailableTiers()) {
      simd::ScopedSimdTier forced(tier);
      const auto tree = MakeKdTreeSearcher(data, subspace);
      const std::string where = std::string("tier=") +
                                simd::SimdTierName(tier) +
                                " dims=" + std::to_string(dims);
      for (std::size_t threads : {1, 4}) {
        KnnResultTable table;
        tree->QueryAllKnn(k, &table, threads);
        ASSERT_EQ(table.num_queries(), n);
        for (std::size_t q = 0; q < n; ++q) {
          ExpectSameNeighbors(table.Row(q), reference.Row(q),
                              where + " threads=" + std::to_string(threads) +
                                  " QueryAllKnn q=" + std::to_string(q));
        }
      }
      for (std::size_t q = 0; q < n; ++q) {
        const std::string at = where + " q=" + std::to_string(q);
        ExpectSameNeighbors(tree->QueryKnn(q, k), reference.Row(q),
                            at + " QueryKnn");
        EXPECT_EQ(tree->CountRadius(q, radii[q]), ref_radius_counts[q])
            << at << " CountRadius";
      }
      for (std::size_t i = 0; i < points.size(); ++i) {
        ExpectSameNeighbors(tree->QueryKnnPoint(points[i], k), ref_points[i],
                            where + " QueryKnnPoint " + std::to_string(i));
      }
    }
  }
}

TEST(SimdSeamTest, KnnTablesIdenticalAcrossTiersAndPrecisions) {
  const Dataset data = SeamData(94);
  const Subspace subspace{0, 2, 5, 7};
  KnnResultTable reference;
  {
    simd::ScopedSimdTier forced(SimdTier::kScalar);
    MakeBruteForceSearcher(data, subspace)->QueryAllKnn(10, &reference, 1);
  }
  for (SimdTier tier : AvailableTiers()) {
    for (std::size_t threads : kSeamThreads) {
      simd::ScopedSimdTier forced(tier);
      KnnResultTable table;
      MakeBruteForceSearcher(data, subspace)->QueryAllKnn(10, &table, threads);
      ASSERT_EQ(table.num_queries(), reference.num_queries());
      for (std::size_t q = 0; q < table.num_queries(); ++q) {
        const auto got = table.Row(q);
        const auto want = reference.Row(q);
        ASSERT_EQ(got.size(), want.size())
            << "query " << q << " tier=" << simd::SimdTierName(tier);
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "query " << q;
          EXPECT_EQ(Bits(got[i].distance), Bits(want[i].distance))
              << "query " << q << " neighbor " << i
              << " tier=" << simd::SimdTierName(tier);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hics
