// AVX2 (+FMA) tier. CANONICAL kernels run the exact partial-sum lanes of
// kernels_scalar.cc in ymm registers (a 4-double vector *is* the four
// distance partials; two ymm accumulators are the eight moment partials),
// spill to an array, and finish through the shared scalar tails — so the
// results are bit-identical to the scalar tier by construction. No FMA in
// canonical kernels (and the global -ffp-contract=off keeps the compiler
// from fusing behind our back); the SCREENING kernels fuse freely.
//
// The KD-tree leaf screen turns the vector the other way: a ymm holds one
// partial of four *points*, four accumulators hold the four partials, and
// a leaf block of 16 points takes four such groups.
//
// Compaction has no compress instruction on AVX2; it is emulated with a
// per-mask shuffle table driving vpermd over the 4 candidate doubles. The
// fused slice select runs 8 objects' rank predicates per step and
// compacts their column values as two such 4-double steps.

#ifdef HICS_SIMD_COMPILED_AVX2

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"
#include "simd/kernels_common.h"

namespace hics::simd::internal {
namespace {

double SquaredDistanceAvx2(const double* a, const double* b,
                           std::size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double s[4];
  _mm256_storeu_pd(s, acc);
  SquaredDistanceTail4(a, b, j, dim, s);
  return Combine4(s);
}

double SquaredDistanceBoundedAvx2(const double* a, const double* b,
                                  std::size_t dim, double bound) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  // Same every-8 bound cadence as the scalar tier; a result that never
  // exceeded the bound is the full canonical accumulation.
  for (; j + 8 <= dim; j += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d0, d0));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j + 4), _mm256_loadu_pd(b + j + 4));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d1, d1));
    double s[4];
    _mm256_storeu_pd(s, acc);
    const double total = Combine4(s);
    if (total > bound) return total;
  }
  for (; j + 4 <= dim; j += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double s[4];
  _mm256_storeu_pd(s, acc);
  SquaredDistanceTail4(a, b, j, dim, s);
  return Combine4(s);
}

/// Leaf-screen distances of the four points at `col` (point i's
/// coordinate j at col[j * stride + i]): lane i is point i and acc<l> is
/// its canonical partial s[l], so the lanes reproduce squared_distance.
/// kMasked loads only the lanes set in `lanes`.
template <bool kMasked>
__m256d LeafGroupAvx2(const double* q, const double* col, std::size_t stride,
                      std::size_t dim, __m256i lanes) {
  const auto sq = [&](std::size_t j) {
    const double* p = col + j * stride;
    const __m256d x =
        kMasked ? _mm256_maskload_pd(p, lanes) : _mm256_loadu_pd(p);
    const __m256d d = _mm256_sub_pd(_mm256_set1_pd(q[j]), x);
    return _mm256_mul_pd(d, d);
  };
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    acc0 = _mm256_add_pd(acc0, sq(j));
    acc1 = _mm256_add_pd(acc1, sq(j + 1));
    acc2 = _mm256_add_pd(acc2, sq(j + 2));
    acc3 = _mm256_add_pd(acc3, sq(j + 3));
  }
  if (j < dim) acc0 = _mm256_add_pd(acc0, sq(j));
  if (j + 1 < dim) acc1 = _mm256_add_pd(acc1, sq(j + 1));
  if (j + 2 < dim) acc2 = _mm256_add_pd(acc2, sq(j + 2));
  return _mm256_add_pd(_mm256_add_pd(acc0, acc2), _mm256_add_pd(acc1, acc3));
}

std::uint32_t LeafScreenAvx2(const double* q, const double* cols,
                             std::size_t stride, std::size_t dim,
                             std::size_t count, double bound, double* d2) {
  // Up to four ymm groups of four points; a partial last group masks its
  // loads and store, so no column is read past its `count` points.
  const __m256d vbound = _mm256_set1_pd(bound);
  std::uint32_t mask = 0;
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d d = LeafGroupAvx2<false>(q, cols + t, stride, dim,
                                           _mm256_setzero_si256());
    _mm256_storeu_pd(d2 + t, d);
    const int le = _mm256_movemask_pd(_mm256_cmp_pd(d, vbound, _CMP_LE_OQ));
    mask |= static_cast<std::uint32_t>(le) << t;
  }
  if (t < count) {
    const __m256i lanes = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(count - t)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256d d = LeafGroupAvx2<true>(q, cols + t, stride, dim, lanes);
    _mm256_maskstore_pd(d2 + t, lanes, d);
    const int le = _mm256_movemask_pd(_mm256_cmp_pd(d, vbound, _CMP_LE_OQ)) &
                   _mm256_movemask_pd(_mm256_castsi256_pd(lanes));
    mask |= static_cast<std::uint32_t>(le) << t;
  }
  return mask;
}

void ScreenRowF64Avx2(const double* soa, std::size_t stride, std::size_t dim,
                      std::size_t i, std::size_t j0, std::size_t w, double ni,
                      const double* norms, double* d2) {
  std::size_t t = 0;
  const __m256d vni = _mm256_set1_pd(ni);
  for (; t + 8 <= w; t += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const double* base = soa + d * stride;
      const __m256d xi = _mm256_broadcast_sd(base + i);
      const double* col = base + j0 + t;
      acc0 = _mm256_fmadd_pd(xi, _mm256_loadu_pd(col), acc0);
      acc1 = _mm256_fmadd_pd(xi, _mm256_loadu_pd(col + 4), acc1);
    }
    const __m256d r0 =
        _mm256_sub_pd(_mm256_add_pd(vni, _mm256_loadu_pd(norms + t)),
                      _mm256_add_pd(acc0, acc0));
    const __m256d r1 =
        _mm256_sub_pd(_mm256_add_pd(vni, _mm256_loadu_pd(norms + t + 4)),
                      _mm256_add_pd(acc1, acc1));
    _mm256_storeu_pd(d2 + t, r0);
    _mm256_storeu_pd(d2 + t + 4, r1);
  }
  for (; t < w; ++t) {
    double dot = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dot += soa[d * stride + i] * soa[d * stride + j0 + t];
    }
    d2[t] = ni + norms[t] - 2.0 * dot;
  }
}

/// vpermd control words packing the doubles selected by a 4-bit stamp mask
/// to the vector front: entry m lists the selected doubles' int32 halves
/// (2e, 2e+1) in ascending e, padded with zeros (the padding lanes are
/// overwritten by later stores or ignored past the final count).
alignas(32) constexpr std::int32_t kCompactLut[16][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},  // 0000
    {0, 1, 0, 0, 0, 0, 0, 0},  // 0001 -> e0
    {2, 3, 0, 0, 0, 0, 0, 0},  // 0010 -> e1
    {0, 1, 2, 3, 0, 0, 0, 0},  // 0011 -> e0 e1
    {4, 5, 0, 0, 0, 0, 0, 0},  // 0100 -> e2
    {0, 1, 4, 5, 0, 0, 0, 0},  // 0101 -> e0 e2
    {2, 3, 4, 5, 0, 0, 0, 0},  // 0110 -> e1 e2
    {0, 1, 2, 3, 4, 5, 0, 0},  // 0111 -> e0 e1 e2
    {6, 7, 0, 0, 0, 0, 0, 0},  // 1000 -> e3
    {0, 1, 6, 7, 0, 0, 0, 0},  // 1001 -> e0 e3
    {2, 3, 6, 7, 0, 0, 0, 0},  // 1010 -> e1 e3
    {0, 1, 2, 3, 6, 7, 0, 0},  // 1011 -> e0 e1 e3
    {4, 5, 6, 7, 0, 0, 0, 0},  // 1100 -> e2 e3
    {0, 1, 4, 5, 6, 7, 0, 0},  // 1101 -> e0 e2 e3
    {2, 3, 4, 5, 6, 7, 0, 0},  // 1110 -> e1 e2 e3
    {0, 1, 2, 3, 4, 5, 6, 7},  // 1111 -> e0 e1 e2 e3
};

inline std::size_t CompactStep(__m256d values, int mask, double* out,
                               std::size_t k) {
  const __m256i perm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompactLut[mask]));
  const __m256d packed = _mm256_castsi256_pd(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(values), perm));
  _mm256_storeu_pd(out + k, packed);  // out has kCompactPad slots of slack
  return k + static_cast<std::size_t>(__builtin_popcount(
                 static_cast<unsigned>(mask)));
}

/// The slice predicate, 8 objects per step: calls store(i, in, live) for
/// each group of objects starting at i, where `live` has all bits set in
/// the lanes of the group's objects below n and lane j of `in` is all
/// ones iff object i + j is live and lies in every condition's rank
/// block. AVX2 has no unsigned compare: bias both sides by 2^31 and
/// compare signed. Folding the bias into the start, (r - (s + 2^31))
/// equals (r - s) ^ 2^31, so each condition costs one sub and one cmpgt.
/// A short last group masks its rank loads.
template <std::size_t kC, typename Store>
void SliceScanAvx2(const std::uint32_t* const* ranks,
                   const std::uint32_t* starts, std::size_t num_conditions,
                   std::uint32_t block, std::size_t n, Store&& store) {
  constexpr std::uint32_t kBias = 0x80000000u;
  const __m256i vblock = _mm256_set1_epi32(static_cast<int>(block ^ kBias));
  const auto biased = [&](std::uint32_t start) {
    return _mm256_set1_epi32(static_cast<int>(start + kBias));
  };
  const std::uint32_t* r[ConditionSlots(kC)];
  __m256i s[ConditionSlots(kC)];
  if constexpr (kC != kAnyConditions) {
    for (std::size_t c = 0; c < kC; ++c) {
      r[c] = ranks[c];
      s[c] = biased(starts[c]);
    }
  }
  const auto in_slice = [&](std::size_t i, __m256i live, bool full) {
    const auto narrow = [&](__m256i in, const std::uint32_t* rc, __m256i sc) {
      const __m256i* p = reinterpret_cast<const __m256i*>(rc + i);
      const __m256i x = _mm256_sub_epi32(
          full ? _mm256_loadu_si256(p)
               : _mm256_maskload_epi32(reinterpret_cast<const int*>(p), live),
          sc);
      return _mm256_and_si256(in, _mm256_cmpgt_epi32(vblock, x));
    };
    __m256i in = live;
    if constexpr (kC == kAnyConditions) {
      for (std::size_t c = 0; c < num_conditions; ++c) {
        in = narrow(in, ranks[c], biased(starts[c]));
      }
    } else {
      for (std::size_t c = 0; c < kC; ++c) in = narrow(in, r[c], s[c]);
    }
    return in;
  };
  const __m256i all = _mm256_set1_epi32(-1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store(i, in_slice(i, all, true), all, true);
  if (i < n) {
    const __m256i live =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    store(i, in_slice(i, live, false), live, false);
  }
}

void SliceMaskAvx2(const std::uint32_t* const* ranks,
                   const std::uint32_t* starts, std::size_t num_conditions,
                   std::uint32_t block, std::size_t n, std::uint32_t* mask) {
  WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    SliceScanAvx2<kC>(
        ranks, starts, num_conditions, block, n,
        [&](std::size_t i, __m256i in, __m256i live, bool full) {
          const __m256i bits = _mm256_srli_epi32(in, 31);
          if (full) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i), bits);
          } else {
            _mm256_maskstore_epi32(reinterpret_cast<int*>(mask + i), live,
                                   bits);
          }
        });
  });
}

std::size_t SliceSelectAvx2(const std::uint32_t* const* ranks,
                            const std::uint32_t* starts,
                            std::size_t num_conditions, std::uint32_t block,
                            const double* column, std::size_t n, double* out) {
  // Each group of 8 objects compacts as two 4-double CompactSteps; a short
  // last group masks its column loads to the live objects.
  std::size_t k = 0;
  const auto load = [&](const double* values, __m128i live32, bool full) {
    return full ? _mm256_loadu_pd(values)
                : _mm256_maskload_pd(values, _mm256_cvtepi32_epi64(live32));
  };
  WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    SliceScanAvx2<kC>(
        ranks, starts, num_conditions, block, n,
        [&](std::size_t i, __m256i in, __m256i live, bool full) {
          const int bits = _mm256_movemask_ps(_mm256_castsi256_ps(in));
          k = CompactStep(
              load(column + i, _mm256_castsi256_si128(live), full),
              bits & 0xF, out, k);
          k = CompactStep(
              load(column + i + 4, _mm256_extracti128_si256(live, 1), full),
              bits >> 4, out, k);
        });
  });
  return k;
}

std::size_t CompactSelectedAvx2(const double* column,
                                const std::uint32_t* stamps, std::size_t n,
                                std::uint32_t target, double* out) {
  const __m128i vtarget = _mm_set1_epi32(static_cast<int>(target));
  std::size_t k = 0;
  std::size_t id = 0;
  for (; id + 4 <= n; id += 4) {
    const __m128i st = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(stamps + id));
    const int mask =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(st, vtarget)));
    k = CompactStep(_mm256_loadu_pd(column + id), mask, out, k);
  }
  for (; id < n; ++id) {
    out[k] = column[id];
    k += static_cast<std::size_t>(stamps[id] == target);
  }
  return k;
}

double SumAvx2(const double* values, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();  // partial lanes 0..3
  __m256d acc1 = _mm256_setzero_pd();  // partial lanes 4..7
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(values + j));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(values + j + 4));
  }
  double s[8];
  _mm256_storeu_pd(s, acc0);
  _mm256_storeu_pd(s + 4, acc1);
  SumTail8(values, j, n, s);
  return Combine8(s);
}

double SumSqDevAvx2(const double* values, std::size_t n, double mean) {
  const __m256d vmean = _mm256_set1_pd(mean);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(values + j), vmean);
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(values + j + 4), vmean);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  double s[8];
  _mm256_storeu_pd(s, acc0);
  _mm256_storeu_pd(s + 4, acc1);
  SumSqDevTail8(values, j, n, mean, s);
  return Combine8(s);
}

void BinIndexAvx2(const double* values, std::size_t n, double lo,
                  double scale, double max_bin, std::uint32_t* out) {
  // Elementwise sub/mul/clamp/truncate, 4 doubles -> 4 uint32 per step.
  // maxpd/minpd return the second operand when the first is NaN, which is
  // exactly BinIndexOne's `t > 0.0 ? t : 0.0` clamp — so NaN lands in bin
  // 0 and cvttpd never sees an out-of-range value.
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vmax = _mm256_set1_pd(max_bin);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d t =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(values + j), vlo), vscale);
    t = _mm256_max_pd(t, vzero);
    t = _mm256_min_pd(t, vmax);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                     _mm256_cvttpd_epi32(t));
  }
  BinIndexTail(values, j, n, lo, scale, max_bin, out);
}

}  // namespace

const SimdKernels& Avx2Kernels() {
  static const SimdKernels kernels = {
      SquaredDistanceAvx2,
      SquaredDistanceBoundedAvx2,
      LeafScreenAvx2,
      ScreenRowF64Avx2,
      SliceMaskAvx2,
      SliceSelectAvx2,
      CompactSelectedAvx2,
      // The scalar body: a 64-bit-index gather of the stamps through
      // the sorted order (vpgatherqd) costs more than the scalar walk.
      ScalarKernels().compact_selected_sorted,
      SumAvx2,
      SumSqDevAvx2,
      BinIndexAvx2,
      "avx2",
  };
  return kernels;
}

}  // namespace hics::simd::internal

#endif  // HICS_SIMD_COMPILED_AVX2
