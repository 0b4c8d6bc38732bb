// Explicit SIMD layer: runtime CPU dispatch over scalar / AVX2 / AVX-512
// implementations of the two hot kernel families (DESIGN.md §5g):
//
//   * the kNN distance kernels — the exact 4-partial-sum squared distance
//     every result-bearing path shares, the KD-tree leaf screen (the same
//     distance for a column-major block of up to 16 points per call, plus
//     its compare mask), and the Gram-screening tile row that only ever
//     *prunes* pairs,
//   * the rank-space contrast kernels — the fused slice select (the
//     rank predicates tested in registers, the selected test-column
//     values compress-stored in object-id order, for moment tests), the
//     rank-predicate slice mask and its sorted-attribute-order compaction
//     (for rank tests), and the canonical 8-partial-sum moments.
//
// Bit-identity contract. Kernels come in two classes:
//
//   CANONICAL — squared_distance(_bounded), leaf_screen, sum, sum_sq_dev,
//   slice_select, slice_mask, both compaction kernels, and the grid
//   bin_index kernel define *the* result. Every tier computes the same
//   partial-sum decomposition in the same combine order (see
//   kernels_scalar.cc for the reference), so outputs are bit-identical
//   across scalar/AVX2/AVX-512 and across machines. None of them may use
//   FMA (the build pins -ffp-contract=off so inlined scalar code cannot
//   silently contract either).
//
//   SCREENING — screen_row_f64 produces approximations whose error the
//   caller covers with a slack margin before an exact recompute; it is
//   free to reassociate and fuse, so each tier runs it at full hardware
//   width.
//
// The tier is detected once (cpuid) and can be forced down for testing via
// the HICS_SIMD environment variable ("scalar", "avx2", "avx512") or, in
// tests and benches, SetSimdTier / ScopedSimdTier. The tier is
// process-wide state, so no library entry point sets it per run.
// Requests above the detected/compiled capability clamp down, never up.

#ifndef HICS_SIMD_SIMD_H_
#define HICS_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace hics::simd {

/// Instruction-set tiers, ordered by capability. kAvx2 requires AVX2+FMA;
/// kAvx512 requires AVX-512 F/BW/DQ/VL (the Skylake-X baseline).
enum class SimdTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// CPU features relevant to tier selection, as reported by cpuid. Recorded
/// into BENCH_*.json so perf trajectories across machines are comparable.
struct SimdFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512dq = false;
  bool avx512vl = false;
};

/// Function table of the dispatched kernels. One immutable instance per
/// tier; ActiveKernels() returns the selected one. All pointers are always
/// non-null (lower tiers fill in for kernels a tier does not specialize).
struct SimdKernels {
  /// CANONICAL. Squared Euclidean distance over `dim` dimensions as four
  /// independent partial sums (lane l accumulates dimensions j % 4 == l),
  /// combined as (s0+s2) + (s1+s3). No FMA.
  double (*squared_distance)(const double* a, const double* b,
                             std::size_t dim);

  /// CANONICAL. Same accumulation, early exit once the partial total
  /// exceeds `bound` (checked every 8 dimensions). A result <= bound is
  /// bit-identical to squared_distance; above the bound it is only a
  /// certificate of exceedance.
  double (*squared_distance_bounded)(const double* a, const double* b,
                                     std::size_t dim, double bound);

  /// CANONICAL. Leaf screen of the KD-tree: squared distances from `q` to
  /// `count` (<= kLeafScreenWidth) column-major points, where coordinate j
  /// of point t is cols[j * stride + t]:
  ///   d2[t] = squared_distance(q, point t, dim)  (same lanes and combine)
  /// and bit t of the returned mask is set iff d2[t] <= bound. The vector
  /// runs across the points, never across a point's dimensions, so every
  /// tier is bit-identical to squared_distance. Writes d2[0, count) only
  /// and reads no column element past cols[j * stride + count - 1].
  using LeafScreenFn = std::uint32_t (*)(const double* q, const double* cols,
                                         std::size_t stride, std::size_t dim,
                                         std::size_t count, double bound,
                                         double* d2);
  LeafScreenFn leaf_screen;

  /// SCREENING. One row of the Gram-decomposition tile:
  ///   d2[t] = ni + norms[t] - 2 * <x_i, x_{j0+t}>   for t in [0, w)
  /// with the dot products accumulated dimension-major over the SoA
  /// columns (`soa` has stride `stride` per dimension; x_i is column
  /// element i, the tile columns start at j0). Approximate: callers must
  /// cover the error with a slack margin.
  void (*screen_row_f64)(const double* soa, std::size_t stride,
                         std::size_t dim, std::size_t i, std::size_t j0,
                         std::size_t w, double ni, const double* norms,
                         double* d2);

  /// CANONICAL. Rank-predicate slice selection: for every object i in
  /// [0, n),
  ///   mask[i] = 1  iff  uint32(ranks[c][i] - starts[c]) < block
  ///                     for every condition c in [0, num_conditions),
  /// and 0 otherwise — i.e. i lies in the rank block [starts[c],
  /// starts[c] + block) of every conditioning attribute (the wrapping
  /// subtraction folds both block bounds into one unsigned compare).
  /// `ranks[c]` is an inverse permutation (SortedAttributeIndex::Ranks).
  /// Integer-only and elementwise, so every tier is bit-identical by
  /// construction. With num_conditions == 0 every object is selected.
  /// Each tier runs one predicate loop for slice_mask and slice_select,
  /// instantiated per condition count up to 7 with a generic loop above;
  /// the two kernels differ only in what they store per object group.
  void (*slice_mask)(const std::uint32_t* const* ranks,
                     const std::uint32_t* starts, std::size_t num_conditions,
                     std::uint32_t block, std::size_t n, std::uint32_t* mask);

  /// CANONICAL. Fused slice selection: writes column[i] for every object
  /// i in [0, n) that slice_mask would mark 1 — i.e. for which
  ///   uint32(ranks[c][i] - starts[c]) < block  for every condition c —
  /// to out[0..k) in ascending object id and returns k. The same values in
  /// the same order as slice_mask followed by compact_selected with target
  /// 1, without writing the mask. `out` must have room for n +
  /// kCompactPad elements; slots past k are scratch garbage.
  std::size_t (*slice_select)(const std::uint32_t* const* ranks,
                              const std::uint32_t* starts,
                              std::size_t num_conditions,
                              std::uint32_t block, const double* column,
                              std::size_t n, double* out);

  /// CANONICAL. Object-id-order compaction of a slice selection: writes
  /// column[id] for every id in [0, n) with stamps[id] == target to
  /// out[0..k) (ascending id) and returns k. `out` must have room for
  /// n + kCompactPad elements; slots past k are scratch garbage. No
  /// library path calls it since slice_select fused it with slice_mask;
  /// it remains the reference tests and benches compare slice_select
  /// against, and the end-to-end benchmark's simd.compact_selected_gbps
  /// probe.
  std::size_t (*compact_selected)(const double* column,
                                  const std::uint32_t* stamps, std::size_t n,
                                  std::uint32_t target, double* out);

  /// CANONICAL. Sorted-attribute-order compaction: position pos emits
  /// sorted_values[pos] iff stamps[order[pos]] == target, so the output is
  /// the selected sample already sorted ascending. Same out-buffer
  /// contract as compact_selected. Every tier runs the scalar body: the
  /// AVX2 and AVX-512 bodies gathered the stamps through the 64-bit order
  /// and lost to it on every measured cell (DESIGN.md §5d).
  std::size_t (*compact_selected_sorted)(const double* sorted_values,
                                         const std::size_t* order,
                                         const std::uint32_t* stamps,
                                         std::size_t n, std::uint32_t target,
                                         double* out);

  /// CANONICAL. Sum of `values` as eight independent partial sums (lane
  /// l accumulates j % 8 == l), combined pairwise:
  ///   ((s0+s4) + (s2+s6)) + ((s1+s5) + (s3+s7)).
  double (*sum)(const double* values, std::size_t n);

  /// CANONICAL. Sum of (values[j] - mean)^2 in the same 8-partial-sum
  /// scheme as sum(). No FMA.
  double (*sum_sq_dev)(const double* values, std::size_t n, double mean);

  /// CANONICAL. Equi-width grid bin index per element:
  ///   out[i] = uint32(clamp((values[i] - lo) * scale, 0.0, max_bin))
  /// with the clamp performed entirely in the double domain *before* the
  /// truncating conversion, in the exact order of BinIndexOne() below —
  /// so NaN inputs and everything below the range land in bin 0, values
  /// past the top edge cap at max_bin, and no tier ever performs an
  /// out-of-range double->int conversion (UB in scalar code, saturation
  /// on cvttpd). Purely elementwise: every tier applies the same IEEE
  /// sub/mul/max/min/truncate per lane, so results are bit-identical
  /// across tiers by construction. `max_bin` is bins_per_dim - 1 as a
  /// double and must be < 2^31.
  void (*bin_index)(const double* values, std::size_t n, double lo,
                    double scale, double max_bin, std::uint32_t* out);

  /// Tier this table implements ("scalar", "avx2", "avx512").
  const char* name;
};

/// The canonical single-element bin mapping every bin_index tier (and any
/// scalar caller that must agree with it, e.g. out-of-sample grid
/// scoring) implements. The two-sided clamp mirrors the vector tiers'
/// max_pd(t, 0) / min_pd(t, max_bin) semantics: maxpd returns its second
/// operand when the first is NaN, so `t > 0.0 ? t : 0.0` (false for NaN
/// and -0.0) is the exact scalar equivalent.
inline std::uint32_t BinIndexOne(double v, double lo, double scale,
                                 double max_bin) {
  double t = (v - lo) * scale;
  t = t > 0.0 ? t : 0.0;
  t = t < max_bin ? t : max_bin;
  return static_cast<std::uint32_t>(t);
}

/// Extra writable slots the compaction kernels may touch past the last
/// selected element (full-width vector stores near the output cursor).
inline constexpr std::size_t kCompactPad = 8;

/// Maximum `w` the screening-row kernels accept (the distance tile edge).
inline constexpr std::size_t kMaxScreenWidth = 128;

/// Maximum `count` leaf_screen accepts: one KD-tree leaf block.
inline constexpr std::size_t kLeafScreenWidth = 16;

/// Features of the machine we are running on (cpuid, cached).
const SimdFeatures& DetectedFeatures();

/// Best tier this binary can run here: min(compiled support, cpuid).
SimdTier DetectedTier();

/// The tier in effect: DetectedTier() clamped by the HICS_SIMD environment
/// variable (read once) and any SetSimdTier override.
SimdTier ActiveTier();

/// Kernel table of ActiveTier(). Cheap (one atomic load); hot loops should
/// still hoist the reference out of per-element code.
const SimdKernels& ActiveKernels();

/// Kernel table of a specific tier, clamped to DetectedTier(); lets tests
/// compare tiers directly without flipping the global override.
const SimdKernels& KernelsForTier(SimdTier tier);

/// Forces the active tier (clamped to DetectedTier(); requesting an
/// unavailable tier selects the best available below it). Returns the tier
/// actually applied. Takes effect for subsequent ActiveKernels() calls
/// process-wide; intended for tests and benchmarks, not concurrent mixed
/// use.
SimdTier SetSimdTier(SimdTier tier);

/// Parses "scalar" / "avx2" / "avx512" (and "auto" -> DetectedTier());
/// returns false on anything else.
bool ParseSimdTier(const std::string& name, SimdTier* out);

const char* SimdTierName(SimdTier tier);

/// RAII tier override: applies `tier` (clamped) on construction, restores
/// the previous active tier on destruction.
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier tier);
  ~ScopedSimdTier();
  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

  /// The tier actually in effect inside the scope.
  SimdTier applied() const { return applied_; }

 private:
  SimdTier previous_;
  SimdTier applied_;
};

}  // namespace hics::simd

#endif  // HICS_SIMD_SIMD_H_
