// Scalar tier: the canonical reference implementations. Every vector tier
// must reproduce the CANONICAL kernels here bit for bit (same partial-sum
// lanes, same combine order — see kernels_common.h); the SCREENING kernels
// only need to stay within the callers' slack margins.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "simd/kernels.h"
#include "simd/kernels_common.h"

namespace hics::simd::internal {
namespace {

double SquaredDistanceScalar(const double* a, const double* b,
                             std::size_t dim) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    const double d0 = a[j] - b[j];
    const double d1 = a[j + 1] - b[j + 1];
    const double d2 = a[j + 2] - b[j + 2];
    const double d3 = a[j + 3] - b[j + 3];
    s[0] += d0 * d0;
    s[1] += d1 * d1;
    s[2] += d2 * d2;
    s[3] += d3 * d3;
  }
  SquaredDistanceTail4(a, b, j, dim, s);
  return Combine4(s);
}

double SquaredDistanceBoundedScalar(const double* a, const double* b,
                                    std::size_t dim, double bound) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  // Two unrolled 4-wide steps between bound checks: the same every-8
  // cadence the pre-SIMD kernel used, now on four independent dependency
  // chains so the common below-bound path is throughput- not
  // latency-limited.
  for (; j + 8 <= dim; j += 8) {
    const double d0 = a[j] - b[j];
    const double d1 = a[j + 1] - b[j + 1];
    const double d2 = a[j + 2] - b[j + 2];
    const double d3 = a[j + 3] - b[j + 3];
    s[0] += d0 * d0;
    s[1] += d1 * d1;
    s[2] += d2 * d2;
    s[3] += d3 * d3;
    const double d4 = a[j + 4] - b[j + 4];
    const double d5 = a[j + 5] - b[j + 5];
    const double d6 = a[j + 6] - b[j + 6];
    const double d7 = a[j + 7] - b[j + 7];
    s[0] += d4 * d4;
    s[1] += d5 * d5;
    s[2] += d6 * d6;
    s[3] += d7 * d7;
    if (Combine4(s) > bound) return Combine4(s);
  }
  for (; j + 4 <= dim; j += 4) {
    const double d0 = a[j] - b[j];
    const double d1 = a[j + 1] - b[j + 1];
    const double d2 = a[j + 2] - b[j + 2];
    const double d3 = a[j + 3] - b[j + 3];
    s[0] += d0 * d0;
    s[1] += d1 * d1;
    s[2] += d2 * d2;
    s[3] += d3 * d3;
  }
  SquaredDistanceTail4(a, b, j, dim, s);
  return Combine4(s);
}

/// Leaf-screen distances for a dimensionality fixed at compile time: the
/// column pointers and query coordinates stay in registers and the point
/// loop carries no dependency, so the compiler vectorizes it across points
/// even at the baseline ISA. Per point: lane j % 4, ascending j.
template <std::size_t D>
void LeafDistancesFixed(const double* q, const double* cols,
                        std::size_t stride, std::size_t, std::size_t count,
                        double* d2) {
  const double* c[D];
  double qv[D];
  for (std::size_t j = 0; j < D; ++j) {
    c[j] = cols + j * stride;
    qv[j] = q[j];
  }
  for (std::size_t t = 0; t < count; ++t) {
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < D; ++j) {
      const double diff = qv[j] - c[j][t];
      s[j % 4] += diff * diff;
    }
    d2[t] = Combine4(s);
  }
}

/// Any dimensionality: dimension-major over one partial row per lane, each
/// point still summing lane j % 4 in ascending j.
void LeafDistancesAnyDim(const double* q, const double* cols,
                         std::size_t stride, std::size_t dim,
                         std::size_t count, double* d2) {
  double s[4][kLeafScreenWidth] = {};
  for (std::size_t j = 0; j < dim; ++j) {
    const double qj = q[j];
    const double* c = cols + j * stride;
    double* lane = s[j % 4];
    for (std::size_t t = 0; t < count; ++t) {
      const double diff = qj - c[t];
      lane[t] += diff * diff;
    }
  }
  for (std::size_t t = 0; t < count; ++t) {
    const double lanes[4] = {s[0][t], s[1][t], s[2][t], s[3][t]};
    d2[t] = Combine4(lanes);
  }
}

using LeafDistancesFn = void (*)(const double*, const double*, std::size_t,
                                 std::size_t, std::size_t, double*);

/// Entry d is LeafDistancesFixed<d> for d in [1, 16); dim 0 and wider
/// points take LeafDistancesAnyDim.
template <std::size_t... D>
constexpr std::array<LeafDistancesFn, sizeof...(D) + 1> LeafDistancesTable(
    std::index_sequence<D...>) {
  return {&LeafDistancesAnyDim, &LeafDistancesFixed<D + 1>...};
}
constexpr auto kLeafDistances =
    LeafDistancesTable(std::make_index_sequence<15>{});

std::uint32_t LeafScreenScalar(const double* q, const double* cols,
                               std::size_t stride, std::size_t dim,
                               std::size_t count, double bound, double* d2) {
  (dim < kLeafDistances.size() ? kLeafDistances[dim] : &LeafDistancesAnyDim)(
      q, cols, stride, dim, count, d2);
  std::uint32_t mask = 0;
  for (std::size_t t = 0; t < count; ++t) {
    mask |= static_cast<std::uint32_t>(d2[t] <= bound) << t;
  }
  return mask;
}

void ScreenRowF64Scalar(const double* soa, std::size_t stride,
                        std::size_t dim, std::size_t i, std::size_t j0,
                        std::size_t w, double ni, const double* norms,
                        double* d2) {
  std::array<double, kMaxScreenWidth> dot{};
  for (std::size_t d = 0; d < dim; ++d) {
    const double xi = soa[d * stride + i];
    const double* col = soa + d * stride + j0;
    for (std::size_t t = 0; t < w; ++t) dot[t] += xi * col[t];
  }
  for (std::size_t t = 0; t < w; ++t) {
    d2[t] = ni + norms[t] - 2.0 * dot[t];
  }
}

/// The slice predicate for objects [i0, i0 + len) over kC conditions
/// fixed at compile time: in[j] = 1 iff object i0 + j lies in each
/// condition's rank block (ANDed into the incoming in[j] when kAnd). The
/// pointers and starts sit in registers and the object loop carries no
/// dependency, so it vectorizes at the baseline ISA.
template <std::size_t kC, bool kAnd>
void SliceFixedScalar(const std::uint32_t* const* ranks,
                      const std::uint32_t* starts, std::uint32_t block,
                      std::size_t i0, std::size_t len, std::uint32_t* in) {
  const std::uint32_t* r[ConditionSlots(kC)];
  std::uint32_t s[ConditionSlots(kC)];
  for (std::size_t c = 0; c < kC; ++c) {
    r[c] = ranks[c] + i0;
    s[c] = starts[c];
  }
  for (std::size_t j = 0; j < len; ++j) {
    std::uint32_t v = kAnd ? in[j] : 1;
    for (std::size_t c = 0; c < kC; ++c) {
      v &= static_cast<std::uint32_t>(r[c][j] - s[c] < block);
    }
    in[j] = v;
  }
}

/// The slice predicate for objects [i0, i0 + len). Above
/// kMaxFixedConditions the generic loop walks the conditions in chunks
/// of fixed instantiations, each chunk ANDed into the flags.
template <std::size_t kC>
void SlicePredicateScalar(const std::uint32_t* const* ranks,
                          const std::uint32_t* starts,
                          std::size_t num_conditions, std::uint32_t block,
                          std::size_t i0, std::size_t len, std::uint32_t* in) {
  if constexpr (kC == kAnyConditions) {
    SliceFixedScalar<kMaxFixedConditions, false>(ranks, starts, block, i0,
                                                 len, in);
    for (std::size_t c = kMaxFixedConditions; c < num_conditions;) {
      const std::size_t chunk =
          std::min(kMaxFixedConditions, num_conditions - c);
      WithConditionCount(chunk, [&]<std::size_t kChunk>() {
        if constexpr (kChunk != kAnyConditions) {
          SliceFixedScalar<kChunk, true>(ranks + c, starts + c, block, i0,
                                         len, in);
        }
      });
      c += chunk;
    }
  } else {
    SliceFixedScalar<kC, false>(ranks, starts, block, i0, len, in);
  }
}

void SliceMaskScalar(const std::uint32_t* const* ranks,
                     const std::uint32_t* starts, std::size_t num_conditions,
                     std::uint32_t block, std::size_t n, std::uint32_t* mask) {
  WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    SlicePredicateScalar<kC>(ranks, starts, num_conditions, block, 0, n,
                             mask);
  });
}

std::size_t SliceSelectScalar(const std::uint32_t* const* ranks,
                              const std::uint32_t* starts,
                              std::size_t num_conditions, std::uint32_t block,
                              const double* column, std::size_t n,
                              double* out) {
  // The predicate fills a stack block of 64 flags (vectorized), then a
  // branchless cursor loop compacts that block: the flags never leave L1.
  constexpr std::size_t kGroup = 64;
  std::uint32_t in[kGroup];
  return WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; i += kGroup) {
      const std::size_t len = std::min(kGroup, n - i);
      SlicePredicateScalar<kC>(ranks, starts, num_conditions, block, i, len,
                               in);
      for (std::size_t j = 0; j < len; ++j) {
        out[k] = column[i + j];
        k += in[j];
      }
    }
    return k;
  });
}

std::size_t CompactSelectedScalar(const double* column,
                                  const std::uint32_t* stamps, std::size_t n,
                                  std::uint32_t target, double* out) {
  // Branchless compaction: every position writes, only hits advance the
  // cursor — the hit rate is the slice-selection density, which the
  // branch predictor cannot learn.
  std::size_t k = 0;
  for (std::size_t id = 0; id < n; ++id) {
    out[k] = column[id];
    k += static_cast<std::size_t>(stamps[id] == target);
  }
  return k;
}

std::size_t CompactSelectedSortedScalar(const double* sorted_values,
                                        const std::size_t* order,
                                        const std::uint32_t* stamps,
                                        std::size_t n, std::uint32_t target,
                                        double* out) {
  std::size_t k = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    out[k] = sorted_values[pos];
    k += static_cast<std::size_t>(stamps[order[pos]] == target);
  }
  return k;
}

double SumScalar(const double* values, std::size_t n) {
  double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    s[0] += values[j];
    s[1] += values[j + 1];
    s[2] += values[j + 2];
    s[3] += values[j + 3];
    s[4] += values[j + 4];
    s[5] += values[j + 5];
    s[6] += values[j + 6];
    s[7] += values[j + 7];
  }
  SumTail8(values, j, n, s);
  return Combine8(s);
}

double SumSqDevScalar(const double* values, std::size_t n, double mean) {
  double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const double d0 = values[j] - mean;
    const double d1 = values[j + 1] - mean;
    const double d2 = values[j + 2] - mean;
    const double d3 = values[j + 3] - mean;
    const double d4 = values[j + 4] - mean;
    const double d5 = values[j + 5] - mean;
    const double d6 = values[j + 6] - mean;
    const double d7 = values[j + 7] - mean;
    s[0] += d0 * d0;
    s[1] += d1 * d1;
    s[2] += d2 * d2;
    s[3] += d3 * d3;
    s[4] += d4 * d4;
    s[5] += d5 * d5;
    s[6] += d6 * d6;
    s[7] += d7 * d7;
  }
  SumSqDevTail8(values, j, n, mean, s);
  return Combine8(s);
}

void BinIndexScalar(const double* values, std::size_t n, double lo,
                    double scale, double max_bin, std::uint32_t* out) {
  BinIndexTail(values, 0, n, lo, scale, max_bin, out);
}

}  // namespace

const SimdKernels& ScalarKernels() {
  static const SimdKernels kernels = {
      SquaredDistanceScalar,
      SquaredDistanceBoundedScalar,
      LeafScreenScalar,
      ScreenRowF64Scalar,
      SliceMaskScalar,
      SliceSelectScalar,
      CompactSelectedScalar,
      CompactSelectedSortedScalar,
      SumScalar,
      SumSqDevScalar,
      BinIndexScalar,
      "scalar",
  };
  return kernels;
}

}  // namespace hics::simd::internal
