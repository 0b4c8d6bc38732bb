// AVX-512 tier (F/BW/DQ/VL baseline). CANONICAL kernels keep the scalar
// tier's partial-sum lanes: the exact distance stays on 4 ymm lanes (the
// canonical decomposition is 4-wide; running it 8-wide would change the
// result), the KD-tree leaf screen runs 8 *points* per zmm (two zmm per
// leaf block, masked loads for a short block) with the 4 partials in 4
// accumulators, the moments run one zmm accumulator whose 8 lanes *are*
// the canonical 8 partials, and compaction uses the native compress —
// which preserves ascending order exactly like the scalar cursor loop.
// The slice predicate holds 16 objects' intersection in a mask register;
// the fused select compresses the selected column values in a register
// and stores the whole vector at the cursor. SCREENING kernels run full
// zmm width with FMA.

#ifdef HICS_SIMD_COMPILED_AVX512

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"
#include "simd/kernels_common.h"

namespace hics::simd::internal {
namespace {

double SquaredDistanceAvx512(const double* a, const double* b,
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

double SquaredDistanceBoundedAvx512(const double* a, const double* b,
                                    std::size_t dim, double bound) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
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

/// Leaf-screen distances of the up to eight points at `col` selected by
/// `lanes` (point i's coordinate j at col[j * stride + i]): lane i is point
/// i and acc<l> is its canonical partial s[l]. Masked-off lanes load zero
/// and never touch memory.
__m512d LeafGroupAvx512(const double* q, const double* col,
                        std::size_t stride, std::size_t dim, __mmask8 lanes) {
  const auto sq = [&](std::size_t j) {
    const __m512d d =
        _mm512_sub_pd(_mm512_set1_pd(q[j]),
                      _mm512_maskz_loadu_pd(lanes, col + j * stride));
    return _mm512_mul_pd(d, d);
  };
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    acc0 = _mm512_add_pd(acc0, sq(j));
    acc1 = _mm512_add_pd(acc1, sq(j + 1));
    acc2 = _mm512_add_pd(acc2, sq(j + 2));
    acc3 = _mm512_add_pd(acc3, sq(j + 3));
  }
  if (j < dim) acc0 = _mm512_add_pd(acc0, sq(j));
  if (j + 1 < dim) acc1 = _mm512_add_pd(acc1, sq(j + 1));
  if (j + 2 < dim) acc2 = _mm512_add_pd(acc2, sq(j + 2));
  return _mm512_add_pd(_mm512_add_pd(acc0, acc2), _mm512_add_pd(acc1, acc3));
}

std::uint32_t LeafScreenAvx512(const double* q, const double* cols,
                               std::size_t stride, std::size_t dim,
                               std::size_t count, double bound, double* d2) {
  // Two zmm groups of eight points cover a whole leaf block.
  const __m512d vbound = _mm512_set1_pd(bound);
  std::uint32_t mask = 0;
  for (std::size_t t = 0; t < count; t += 8) {
    const __mmask8 lanes =
        count - t >= 8 ? __mmask8{0xFF}
                       : static_cast<__mmask8>((1u << (count - t)) - 1);
    const __m512d d = LeafGroupAvx512(q, cols + t, stride, dim, lanes);
    _mm512_mask_storeu_pd(d2 + t, lanes, d);
    mask |= static_cast<std::uint32_t>(
                _mm512_mask_cmp_pd_mask(lanes, d, vbound, _CMP_LE_OQ))
            << t;
  }
  return mask;
}

void ScreenRowF64Avx512(const double* soa, std::size_t stride,
                        std::size_t dim, std::size_t i, std::size_t j0,
                        std::size_t w, double ni, const double* norms,
                        double* d2) {
  std::size_t t = 0;
  const __m512d vni = _mm512_set1_pd(ni);
  for (; t + 16 <= w; t += 16) {
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const double* base = soa + d * stride;
      const __m512d xi = _mm512_set1_pd(base[i]);
      const double* col = base + j0 + t;
      acc0 = _mm512_fmadd_pd(xi, _mm512_loadu_pd(col), acc0);
      acc1 = _mm512_fmadd_pd(xi, _mm512_loadu_pd(col + 8), acc1);
    }
    const __m512d r0 =
        _mm512_sub_pd(_mm512_add_pd(vni, _mm512_loadu_pd(norms + t)),
                      _mm512_add_pd(acc0, acc0));
    const __m512d r1 =
        _mm512_sub_pd(_mm512_add_pd(vni, _mm512_loadu_pd(norms + t + 8)),
                      _mm512_add_pd(acc1, acc1));
    _mm512_storeu_pd(d2 + t, r0);
    _mm512_storeu_pd(d2 + t + 8, r1);
  }
  for (; t + 8 <= w; t += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const double* base = soa + d * stride;
      acc = _mm512_fmadd_pd(_mm512_set1_pd(base[i]),
                            _mm512_loadu_pd(base + j0 + t), acc);
    }
    _mm512_storeu_pd(
        d2 + t, _mm512_sub_pd(_mm512_add_pd(vni, _mm512_loadu_pd(norms + t)),
                              _mm512_add_pd(acc, acc)));
  }
  for (; t < w; ++t) {
    double dot = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dot += soa[d * stride + i] * soa[d * stride + j0 + t];
    }
    d2[t] = ni + norms[t] - 2.0 * dot;
  }
}

/// The slice predicate, 16 objects per step: calls store(i, in, live)
/// for each group of objects starting at i, where `live` marks the
/// group's objects below n and bit j of `in` is set iff object i + j is
/// live and lies in every condition's rank block. The running
/// intersection lives in a mask register; each condition narrows it with
/// one masked unsigned compare. A short last group masks its rank loads.
template <std::size_t kC, typename Store>
void SliceScanAvx512(const std::uint32_t* const* ranks,
                     const std::uint32_t* starts, std::size_t num_conditions,
                     std::uint32_t block, std::size_t n, Store&& store) {
  const __m512i vblock = _mm512_set1_epi32(static_cast<int>(block));
  const std::uint32_t* r[ConditionSlots(kC)];
  __m512i s[ConditionSlots(kC)];
  if constexpr (kC != kAnyConditions) {
    for (std::size_t c = 0; c < kC; ++c) {
      r[c] = ranks[c];
      s[c] = _mm512_set1_epi32(static_cast<int>(starts[c]));
    }
  }
  const auto narrow = [&](__mmask16 in, __mmask16 live,
                          const std::uint32_t* rc, __m512i sc) {
    const __m512i rv = live == 0xFFFF ? _mm512_loadu_si512(rc)
                                      : _mm512_maskz_loadu_epi32(live, rc);
    const __m512i x = _mm512_sub_epi32(rv, sc);
    return _mm512_mask_cmplt_epu32_mask(in, x, vblock);
  };
  const auto in_slice = [&](std::size_t i, __mmask16 live) {
    __mmask16 in = live;
    if constexpr (kC == kAnyConditions) {
      for (std::size_t c = 0; c < num_conditions; ++c) {
        in = narrow(in, live, ranks[c] + i,
                    _mm512_set1_epi32(static_cast<int>(starts[c])));
      }
    } else {
      for (std::size_t c = 0; c < kC; ++c) {
        in = narrow(in, live, r[c] + i, s[c]);
      }
    }
    return in;
  };
  std::size_t i = 0;
  constexpr __mmask16 kAll = 0xFFFF;
  for (; i + 16 <= n; i += 16) store(i, in_slice(i, kAll), kAll);
  if (i < n) {
    const __mmask16 live = static_cast<__mmask16>((1u << (n - i)) - 1);
    store(i, in_slice(i, live), live);
  }
}

void SliceMaskAvx512(const std::uint32_t* const* ranks,
                     const std::uint32_t* starts, std::size_t num_conditions,
                     std::uint32_t block, std::size_t n, std::uint32_t* mask) {
  const __m512i ones = _mm512_set1_epi32(1);
  WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    SliceScanAvx512<kC>(
        ranks, starts, num_conditions, block, n,
        [&](std::size_t i, __mmask16 in, __mmask16 live) {
          _mm512_mask_storeu_epi32(mask + i, live,
                                   _mm512_maskz_mov_epi32(in, ones));
        });
  });
}

std::size_t SliceSelectAvx512(const std::uint32_t* const* ranks,
                              const std::uint32_t* starts,
                              std::size_t num_conditions, std::uint32_t block,
                              const double* column, std::size_t n,
                              double* out) {
  // Each half of a group compresses its selected column values in a
  // register and stores all eight lanes at the cursor (the kCompactPad
  // slack absorbs the lanes past the selection).
  std::size_t k = 0;
  const auto emit = [&](const double* values, __mmask8 in, __mmask8 live) {
    const __m512d v = live == 0xFF ? _mm512_loadu_pd(values)
                                   : _mm512_maskz_loadu_pd(live, values);
    _mm512_storeu_pd(out + k, _mm512_maskz_compress_pd(in, v));
    k += static_cast<std::size_t>(__builtin_popcount(in));
  };
  WithConditionCount(num_conditions, [&]<std::size_t kC>() {
    SliceScanAvx512<kC>(
        ranks, starts, num_conditions, block, n,
        [&](std::size_t i, __mmask16 in, __mmask16 live) {
          emit(column + i, static_cast<__mmask8>(in),
               static_cast<__mmask8>(live));
          emit(column + i + 8, static_cast<__mmask8>(in >> 8),
               static_cast<__mmask8>(live >> 8));
        });
  });
  return k;
}

std::size_t CompactSelectedAvx512(const double* column,
                                  const std::uint32_t* stamps, std::size_t n,
                                  std::uint32_t target, double* out) {
  const __m256i vtarget = _mm256_set1_epi32(static_cast<int>(target));
  std::size_t k = 0;
  std::size_t id = 0;
  for (; id + 8 <= n; id += 8) {
    const __m256i st = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(stamps + id));
    const __mmask8 m = _mm256_cmpeq_epu32_mask(st, vtarget);
    _mm512_mask_compressstoreu_pd(out + k, m, _mm512_loadu_pd(column + id));
    k += static_cast<std::size_t>(__builtin_popcount(m));
  }
  for (; id < n; ++id) {
    out[k] = column[id];
    k += static_cast<std::size_t>(stamps[id] == target);
  }
  return k;
}

double SumAvx512(const double* values, std::size_t n) {
  // One zmm accumulator: lane l is canonical partial s[l] directly.
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc = _mm512_add_pd(acc, _mm512_loadu_pd(values + j));
  }
  double s[8];
  _mm512_storeu_pd(s, acc);
  SumTail8(values, j, n, s);
  return Combine8(s);
}

double SumSqDevAvx512(const double* values, std::size_t n, double mean) {
  const __m512d vmean = _mm512_set1_pd(mean);
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(values + j), vmean);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  double s[8];
  _mm512_storeu_pd(s, acc);
  SumSqDevTail8(values, j, n, mean, s);
  return Combine8(s);
}

void BinIndexAvx512(const double* values, std::size_t n, double lo,
                    double scale, double max_bin, std::uint32_t* out) {
  // Elementwise, 8 doubles -> 8 uint32 per step; same NaN-to-bin-0 clamp
  // semantics as the AVX2 tier (vmaxpd/vminpd return the second operand
  // when the first is NaN).
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vmax = _mm512_set1_pd(max_bin);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m512d t =
        _mm512_mul_pd(_mm512_sub_pd(_mm512_loadu_pd(values + j), vlo), vscale);
    t = _mm512_max_pd(t, vzero);
    t = _mm512_min_pd(t, vmax);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm512_cvttpd_epi32(t));
  }
  BinIndexTail(values, j, n, lo, scale, max_bin, out);
}

}  // namespace

const SimdKernels& Avx512Kernels() {
  static const SimdKernels kernels = {
      SquaredDistanceAvx512,
      SquaredDistanceBoundedAvx512,
      LeafScreenAvx512,
      ScreenRowF64Avx512,
      SliceMaskAvx512,
      SliceSelectAvx512,
      CompactSelectedAvx512,
      // The scalar body: a 64-bit-index gather of the stamps through
      // the sorted order (vpgatherqd) costs more than the scalar walk.
      ScalarKernels().compact_selected_sorted,
      SumAvx512,
      SumSqDevAvx512,
      BinIndexAvx512,
      "avx512",
  };
  return kernels;
}

}  // namespace hics::simd::internal

#endif  // HICS_SIMD_COMPILED_AVX512
