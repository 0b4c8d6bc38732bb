// Internal: the canonical partial-sum tails and combines shared by every
// tier. A vector tier runs its main loop in registers, spills the lane
// partials to an array, finishes the remainder through these exact
// helpers, and combines in the exact order below — which is what makes
// scalar and vector results bit-identical by construction. The build
// compiles everything with -ffp-contract=off, so none of these can
// silently turn into FMA in any TU.

#ifndef HICS_SIMD_KERNELS_COMMON_H_
#define HICS_SIMD_KERNELS_COMMON_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace hics::simd::internal {

/// Tail of the 4-partial-sum squared distance: accumulates dimensions
/// [j, dim) into s[j % 4], continuing the lane assignment of the main
/// loop (which must have consumed a multiple of 4 dimensions).
inline void SquaredDistanceTail4(const double* a, const double* b,
                                 std::size_t j, std::size_t dim, double* s) {
  for (; j < dim; ++j) {
    const double diff = a[j] - b[j];
    s[j % 4] += diff * diff;
  }
}

/// Canonical combine of the 4 distance partials.
inline double Combine4(const double* s) {
  return (s[0] + s[2]) + (s[1] + s[3]);
}

/// Tail of the 8-partial-sum reduction: values [j, n) into s[j % 8].
inline void SumTail8(const double* values, std::size_t j, std::size_t n,
                     double* s) {
  for (; j < n; ++j) s[j % 8] += values[j];
}

/// Tail of the 8-partial-sum squared-deviation reduction.
inline void SumSqDevTail8(const double* values, std::size_t j, std::size_t n,
                          double mean, double* s) {
  for (; j < n; ++j) {
    const double d = values[j] - mean;
    s[j % 8] += d * d;
  }
}

/// Canonical combine of the 8 moment partials. Matches the natural
/// 512->256->128 vector reduction: lanes fold as (l, l+4), then the
/// 4-partial combine.
inline double Combine8(const double* s) {
  const double t0 = s[0] + s[4];
  const double t1 = s[1] + s[5];
  const double t2 = s[2] + s[6];
  const double t3 = s[3] + s[7];
  return (t0 + t2) + (t1 + t3);
}

/// Tail of the bin-index mapping: elements [j, n) through the canonical
/// single-element clamp (bin_index is purely elementwise, so the tail is
/// just the reference mapping itself).
inline void BinIndexTail(const double* values, std::size_t j, std::size_t n,
                         double lo, double scale, double max_bin,
                         std::uint32_t* out) {
  for (; j < n; ++j) out[j] = BinIndexOne(values[j], lo, scale, max_bin);
}

/// Tail of the slice mask: objects [i, n) through the element-wise rank
/// predicate (1 iff the rank lies in [starts[c], starts[c] + block) for
/// every condition c).
inline void SliceMaskTail(const std::uint32_t* const* ranks,
                          const std::uint32_t* starts,
                          std::size_t num_conditions, std::uint32_t block,
                          std::size_t i, std::size_t n, std::uint32_t* mask) {
  for (; i < n; ++i) {
    std::uint32_t in = 1;
    for (std::size_t c = 0; c < num_conditions; ++c) {
      in &= static_cast<std::uint32_t>(ranks[c][i] - starts[c] < block);
    }
    mask[i] = in;
  }
}

}  // namespace hics::simd::internal

#endif  // HICS_SIMD_KERNELS_COMMON_H_
