// Shared Euclidean distance kernels for the neighbor-search backends and
// the distance-based scorers. Every caller that needs results identical to
// another path (KD-tree vs brute force parity, batched vs per-query kNN)
// must accumulate in the same order; centralizing the kernels here makes
// that invariant structural.
//
// The canonical accumulation is four independent partial sums (lane
// l takes dimensions j % 4 == l) combined as (s0+s2) + (s1+s3) — the
// decomposition the SIMD tiers in src/simd compute natively, so scalar
// inline and dispatched vector paths agree bit for bit (the build pins
// -ffp-contract=off; see src/simd/simd.h). Subspace distances (dim 2..8)
// stay on the inlined scalar path — a function-pointer dispatch costs more
// than the arithmetic there; full-width rows go through ActiveKernels(),
// and the KD-tree amortizes one dispatched leaf_screen call over a whole
// leaf block of the same distances.

#ifndef HICS_INDEX_DISTANCE_H_
#define HICS_INDEX_DISTANCE_H_

#include <cstddef>

#include "simd/kernels_common.h"
#include "simd/simd.h"

namespace hics {

/// Dimension at or above which the dispatched vector kernels beat the
/// inlined scalar loop (call + table-load overhead amortized).
inline constexpr std::size_t kSimdDistanceMinDim = 16;

/// Squared Euclidean distance between two dense points of length `dim` in
/// the canonical 4-partial-sum order. All exact-distance paths in the repo
/// funnel through this, so their results agree bit for bit.
inline double SquaredDistance(const double* a, const double* b,
                              std::size_t dim) {
  if (dim >= kSimdDistanceMinDim) {
    return simd::ActiveKernels().squared_distance(a, b, dim);
  }
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
  simd::internal::SquaredDistanceTail4(a, b, j, dim, s);
  return simd::internal::Combine4(s);
}

/// Squared distance with early exit once `bound` is exceeded; checks the
/// bound every 8 dimensions to keep the common low-dimensional path
/// branch-light. Accumulates in the same 4-partial-sum lanes as
/// SquaredDistance, so when the result is <= bound it equals
/// SquaredDistance exactly; above the bound it is only a certificate of
/// exceedance.
inline double SquaredDistanceBounded(const double* a, const double* b,
                                     std::size_t dim, double bound) {
  if (dim >= kSimdDistanceMinDim) {
    return simd::ActiveKernels().squared_distance_bounded(a, b, dim, bound);
  }
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
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
    const double total = simd::internal::Combine4(s);
    if (total > bound) return total;
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
  simd::internal::SquaredDistanceTail4(a, b, j, dim, s);
  return simd::internal::Combine4(s);
}

}  // namespace hics

#endif  // HICS_INDEX_DISTANCE_H_
