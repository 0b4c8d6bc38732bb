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

/// Condition counts slice_select and slice_mask instantiate their
/// predicate loop for: with the count fixed at compile time, the per-
/// condition rank pointers and broadcast starts are hoisted out of the
/// object loop and the condition loop unrolls. More conditions than this
/// run the generic loop, instantiated as kAnyConditions.
inline constexpr std::size_t kMaxFixedConditions = 7;
inline constexpr std::size_t kAnyConditions = ~std::size_t{0};

/// Calls fn.template operator()<C>() with C = num_conditions when it is
/// at most kMaxFixedConditions, and with C = kAnyConditions above.
template <typename Fn>
decltype(auto) WithConditionCount(std::size_t num_conditions, Fn&& fn) {
  static_assert(kMaxFixedConditions == 7, "one case per fixed count");
  switch (num_conditions) {
    case 0: return fn.template operator()<0>();
    case 1: return fn.template operator()<1>();
    case 2: return fn.template operator()<2>();
    case 3: return fn.template operator()<3>();
    case 4: return fn.template operator()<4>();
    case 5: return fn.template operator()<5>();
    case 6: return fn.template operator()<6>();
    case 7: return fn.template operator()<7>();
    default: return fn.template operator()<kAnyConditions>();
  }
}

/// Number of hoisting slots a predicate loop for kC conditions needs
/// (at least one, so the arrays never have length zero).
constexpr std::size_t ConditionSlots(std::size_t kC) {
  return kC == kAnyConditions || kC == 0 ? 1 : kC;
}

}  // namespace hics::simd::internal

#endif  // HICS_SIMD_KERNELS_COMMON_H_
