#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "index/distance.h"
#include "index/neighbor_searcher.h"
#include "simd/simd.h"

namespace hics {

namespace {

/// Exhaustive backend over two copies of the subspace-projected points:
/// row-major (`points_`) for the per-query scans and the exact pair
/// kernel, and structure-of-arrays (`soa_`, one contiguous array per
/// subspace dimension) for the batched tile kernel, whose inner loops run
/// along one dimension of many points and auto-vectorize.
///
/// The batched all-kNN path (QueryAllKnn) is the hot kernel of the
/// ranking stage. It walks (query-block x point-block) tiles of the
/// implicit N x N distance matrix, forms *screening* squared distances for
/// a whole tile at once via the decomposition
///
///   d2(i, j) = |x_i|^2 + |x_j|^2 - 2 <x_i, x_j>
///
/// and only computes the exact difference-form distance (the one every
/// other path in the repo uses, same accumulation order) for pairs whose
/// screening value lands within a conservative error margin of a heap
/// bound. Exact values decide every heap update, so results are
/// element-identical to per-query QueryKnn; the decomposition only prunes.
/// The serial path additionally visits each unordered pair once (tiles
/// with jb >= ib) and pushes the shared exact distance into both rows'
/// heaps — half the distance work of N independent scans.
class BruteForceSearcher : public NeighborSearcher {
 public:
  BruteForceSearcher(const Dataset& dataset, const Subspace& subspace)
      : num_objects_(dataset.num_objects()), dim_(subspace.size()) {
    HICS_CHECK_GT(dim_, 0u);
    points_.resize(num_objects_ * dim_);
    soa_.resize(num_objects_ * dim_);
    norms_.resize(num_objects_);
    std::size_t out = 0;
    for (std::size_t i = 0; i < num_objects_; ++i) {
      std::size_t d = 0;
      double norm = 0.0;
      for (std::size_t dim : subspace) {
        const double v = dataset.Get(i, dim);
        points_[out++] = v;
        soa_[d * num_objects_ + i] = v;
        norm += v * v;
        ++d;
      }
      norms_[i] = norm;
    }
  }

  void QueryKnn(std::size_t query, std::size_t k,
                std::vector<Neighbor>* out) const override {
    HICS_CHECK_LT(query, num_objects_);
    std::vector<Neighbor>& heap = *out;  // max-heap of the k best so far
    heap.clear();
    heap.reserve(k + 1);
    const double* q = &points_[query * dim_];
    for (std::size_t i = 0; i < num_objects_; ++i) {
      if (i == query) continue;
      if (heap.size() < k) {
        const double d2 = SquaredDistance(q, &points_[i * dim_], dim_);
        heap.push_back({i, d2});
        std::push_heap(heap.begin(), heap.end());
      } else if (k > 0) {
        // Abandon the accumulation as soon as it exceeds the current k-th
        // distance -- a large win for the high-dimensional subspaces the
        // feature-bagging baseline draws.
        const double bound = heap.front().distance;
        const double d2 =
            SquaredDistanceBounded(q, &points_[i * dim_], dim_, bound);
        if (d2 <= bound && Neighbor{i, d2} < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = {i, d2};
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
    std::sort_heap(heap.begin(), heap.end());
    for (Neighbor& n : heap) n.distance = std::sqrt(n.distance);
  }

  void QueryKnnPoint(std::span<const double> point, std::size_t k,
                     std::vector<Neighbor>* out) const override {
    HICS_CHECK_EQ(point.size(), dim_);
    std::vector<Neighbor>& heap = *out;  // max-heap of the k best so far
    heap.clear();
    heap.reserve(k + 1);
    const double* q = point.data();
    for (std::size_t i = 0; i < num_objects_; ++i) {
      if (heap.size() < k) {
        const double d2 = SquaredDistance(q, &points_[i * dim_], dim_);
        heap.push_back({i, d2});
        std::push_heap(heap.begin(), heap.end());
      } else if (k > 0) {
        const double bound = heap.front().distance;
        const double d2 =
            SquaredDistanceBounded(q, &points_[i * dim_], dim_, bound);
        if (d2 <= bound && Neighbor{i, d2} < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = {i, d2};
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
    std::sort_heap(heap.begin(), heap.end());
    for (Neighbor& n : heap) n.distance = std::sqrt(n.distance);
  }

  void QueryAllKnn(std::size_t k, KnnResultTable* out,
                   std::size_t num_threads) const override {
    const std::size_t n = num_objects_;
    const std::size_t kcap = CappedK(k);
    out->Reset(n, kcap);
    if (n == 0 || kcap == 0) return;
    const std::size_t num_blocks = (n + kTile - 1) / kTile;
    if (ParallelWorkerCount(num_blocks, num_threads) <= 1) {
      // Serial: symmetric block-pair sweep, each pair computed once.
      for (std::size_t ib = 0; ib < n; ib += kTile) {
        for (std::size_t jb = ib; jb < n; jb += kTile) {
          SymmetricTile(ib, std::min(n, ib + kTile), jb,
                        std::min(n, jb + kTile), kcap, out);
        }
      }
      for (std::size_t q = 0; q < n; ++q) FinalizeRow(q, out);
      return;
    }
    // Parallel: each worker owns whole query blocks (disjoint table rows,
    // so the pass is race-free) and sweeps them against every point block.
    // Symmetry is not shared across workers, but exact distances decide
    // the heaps either way, so the rows match the serial path exactly.
    ParallelFor(0, num_blocks, num_threads, [&](std::size_t block) {
      const std::size_t ib = block * kTile;
      const std::size_t iend = std::min(n, ib + kTile);
      for (std::size_t jb = 0; jb < n; jb += kTile) {
        RowTile(ib, iend, jb, std::min(n, jb + kTile), kcap, out);
      }
      for (std::size_t q = ib; q < iend; ++q) FinalizeRow(q, out);
    });
  }

  std::size_t CountRadius(std::size_t query, double radius) const override {
    HICS_CHECK_LT(query, num_objects_);
    const double* q = &points_[query * dim_];
    const double r2 = radius * radius;
    std::size_t count = 0;
    for (std::size_t i = 0; i < num_objects_; ++i) {
      if (i == query) continue;
      if (SquaredDistanceBounded(q, &points_[i * dim_], dim_, r2) <= r2) {
        ++count;
      }
    }
    return count;
  }

  std::size_t num_objects() const override { return num_objects_; }
  std::size_t dimensionality() const override { return dim_; }
  KnnBackend backend() const override { return KnnBackend::kBruteForce; }

  std::size_t MemoryBytes() const override {
    return (points_.size() + soa_.size() + norms_.size()) * sizeof(double);
  }

 private:
  /// Tile edge of the blocked sweep: 128 columns of screening distances
  /// (two 1 KiB stack rows) keep the inner loops in L1 while amortizing
  /// the per-row norm loads.
  static constexpr std::size_t kTile = 128;
  static_assert(kTile <= simd::kMaxScreenWidth,
                "screening kernels are sized for the tile edge");

  /// Absolute error margin of the decomposition-form d2 relative to the
  /// difference form. Cancellation makes the *relative* error of the
  /// decomposition unbounded for near-coincident points, but the absolute
  /// error stays within a few ulps of (|x_i|^2 + |x_j|^2); 1e-12 of that
  /// scale over-covers the rounding of any subspace dimensionality in this
  /// repo by orders of magnitude. Pairs inside the margin fall through to
  /// the exact kernel, so the margin only trades a few redundant exact
  /// computations for screening safety.
  static double ScreeningSlack(double norm_i, double norm_j) {
    return 1e-12 * (norm_i + norm_j);
  }

  /// Max-heap push into a row of the result table: keeps the kcap best
  /// (distance, id) pairs, same replacement rule as the per-query scan.
  static void PushRow(Neighbor* heap, std::size_t* size, std::size_t kcap,
                      Neighbor cand) {
    if (*size < kcap) {
      heap[(*size)++] = cand;
      std::push_heap(heap, heap + *size);
    } else if (cand < heap[0]) {
      std::pop_heap(heap, heap + *size);
      heap[*size - 1] = cand;
      std::push_heap(heap, heap + *size);
    }
  }

  /// Screening distances for query i against columns [j0, jend):
  /// d2[t] = |x_i|^2 + |x_{j0+t}|^2 - 2 <x_i, x_{j0+t}>, with the dot
  /// products accumulated dimension-major over the SoA columns by the
  /// dispatched SIMD screening kernel.
  void ScreeningRow(std::size_t i, std::size_t j0, std::size_t jend,
                    double* d2) const {
    simd::ActiveKernels().screen_row_f64(soa_.data(), num_objects_, dim_, i,
                                         j0, jend - j0, norms_[i],
                                         norms_.data() + j0, d2);
  }

  /// One (query-block x point-block) tile of the symmetric serial sweep:
  /// every unordered pair (i < j) in the tile is screened once and, when a
  /// candidate for either row, its exact distance feeds both heaps.
  void SymmetricTile(std::size_t i0, std::size_t i1, std::size_t j0,
                     std::size_t j1, std::size_t kcap,
                     KnnResultTable* table) const {
    std::array<double, kTile> d2;
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t jstart = (j0 == i0) ? i + 1 : j0;
      if (jstart >= j1) continue;
      ScreeningRow(i, jstart, j1, d2.data());
      Neighbor* row_i = table->MutableRow(i);
      std::size_t* cnt_i = table->MutableCount(i);
      const double ni = norms_[i];
      for (std::size_t t = 0; t < j1 - jstart; ++t) {
        const std::size_t j = jstart + t;
        const double slack = ScreeningSlack(ni, norms_[j]);
        const double bound_i =
            *cnt_i < kcap ? std::numeric_limits<double>::infinity()
                          : row_i[0].distance;
        std::size_t* cnt_j = table->MutableCount(j);
        const double bound_j =
            *cnt_j < kcap ? std::numeric_limits<double>::infinity()
                          : table->MutableRow(j)[0].distance;
        if (d2[t] <= bound_i + slack || d2[t] <= bound_j + slack) {
          const double exact =
              SquaredDistance(&points_[i * dim_], &points_[j * dim_], dim_);
          PushRow(row_i, cnt_i, kcap, {j, exact});
          PushRow(table->MutableRow(j), cnt_j, kcap, {i, exact});
        }
      }
    }
  }

  /// One tile of the parallel sweep: candidates update only the query
  /// rows [i0, i1), so distinct workers never touch the same row.
  void RowTile(std::size_t i0, std::size_t i1, std::size_t j0,
               std::size_t j1, std::size_t kcap,
               KnnResultTable* table) const {
    std::array<double, kTile> d2;
    for (std::size_t i = i0; i < i1; ++i) {
      ScreeningRow(i, j0, j1, d2.data());
      Neighbor* row_i = table->MutableRow(i);
      std::size_t* cnt_i = table->MutableCount(i);
      const double ni = norms_[i];
      for (std::size_t t = 0; t < j1 - j0; ++t) {
        const std::size_t j = j0 + t;
        if (j == i) continue;
        const double bound_i =
            *cnt_i < kcap ? std::numeric_limits<double>::infinity()
                          : row_i[0].distance;
        if (d2[t] <= bound_i + ScreeningSlack(ni, norms_[j])) {
          const double exact =
              SquaredDistance(&points_[i * dim_], &points_[j * dim_], dim_);
          PushRow(row_i, cnt_i, kcap, {j, exact});
        }
      }
    }
  }

  /// Heap -> sorted ascending (distance, id) with sqrt'd distances, the
  /// same final form the per-query scan produces.
  void FinalizeRow(std::size_t q, KnnResultTable* table) const {
    Neighbor* row = table->MutableRow(q);
    const std::size_t count = table->count(q);
    std::sort_heap(row, row + count);
    for (std::size_t t = 0; t < count; ++t) {
      row[t].distance = std::sqrt(row[t].distance);
    }
  }

  std::size_t num_objects_;
  std::size_t dim_;
  std::vector<double> points_;  ///< row-major: point i at [i*dim, (i+1)*dim)
  std::vector<double> soa_;     ///< dimension-major: dim d at [d*n, (d+1)*n)
  std::vector<double> norms_;   ///< |x_i|^2 (screening only)
};

}  // namespace

std::unique_ptr<NeighborSearcher> MakeBruteForceSearcher(
    const Dataset& dataset, const Subspace& subspace) {
  return std::make_unique<BruteForceSearcher>(dataset, subspace);
}

}  // namespace hics
