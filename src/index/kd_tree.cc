#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "index/neighbor_searcher.h"
#include "simd/simd.h"

namespace hics {

namespace {

/// Median-split KD-tree laid out for scanning (DESIGN.md §5c). The
/// projected coordinates are stored once, column-major in tree order, so
/// every leaf bucket is one contiguous run of each column; `ids_` maps a
/// tree position to its object id and `pos_` maps back. One search routine
/// answers QueryKnn, QueryKnnPoint, QueryAllKnn and the backend probe:
/// each visited leaf block goes through one dispatched leaf_screen call
/// (SquaredDistance's canonical lanes, so distances are bit-identical to
/// brute force, plus the mask against the current k-th distance), and the
/// masked points are inserted into a sorted top-k row.
class KdTreeSearcher : public NeighborSearcher {
 public:
  KdTreeSearcher(const Dataset& dataset, const Subspace& subspace)
      : num_objects_(dataset.num_objects()), dim_(subspace.size()) {
    HICS_CHECK_GT(dim_, 0u);
    // Tree positions and object ids are stored as uint32_t.
    HICS_CHECK_LT(num_objects_, std::size_t{1} << 32)
        << "KdTreeSearcher indexes objects with uint32_t";
    std::vector<const double*> columns;
    for (std::size_t dim : subspace) {
      columns.push_back(dataset.Column(dim).data());
    }
    ids_.resize(num_objects_);
    std::iota(ids_.begin(), ids_.end(), 0u);
    if (num_objects_ > 0) {
      // Only nodes above kLeafSize points split, so every leaf keeps at
      // least kLeafSize / 2 points: at most 4n / kLeafSize nodes in all.
      nodes_.reserve(4 * num_objects_ / kLeafSize + 1);
      Build(columns, 0, num_objects_);
      nodes_.shrink_to_fit();
    }
    points_.resize(num_objects_ * dim_);
    pos_.resize(num_objects_);
    for (std::size_t j = 0; j < dim_; ++j) {
      double* column = &points_[j * num_objects_];
      for (std::size_t p = 0; p < num_objects_; ++p) {
        column[p] = columns[j][ids_[p]];
      }
    }
    for (std::size_t p = 0; p < num_objects_; ++p) {
      pos_[ids_[p]] = static_cast<std::uint32_t>(p);
    }
  }

  void QueryKnn(std::size_t query, std::size_t k,
                std::vector<Neighbor>* out) const override {
    HICS_CHECK_LT(query, num_objects_);
    const std::size_t p = pos_[query];
    out->resize(CappedK(k));
    std::vector<double> q;
    SearchInto(Gather(p, &q), p, out->size(), out->data());
  }

  void QueryKnnPoint(std::span<const double> point, std::size_t k,
                     std::vector<Neighbor>* out) const override {
    HICS_CHECK_EQ(point.size(), dim_);
    // exclude = num_objects_ matches no position, so the point competes
    // against every indexed object (out-of-sample semantics).
    out->resize(std::min(k, num_objects_));
    SearchInto(point.data(), num_objects_, out->size(), out->data());
  }

  void QueryAllKnn(std::size_t k, KnnResultTable* out,
                   std::size_t num_threads) const override {
    const std::size_t kcap = CappedK(k);
    out->Reset(num_objects_, kcap);
    if (kcap == 0) return;
    // Queries run in tree order: consecutive queries share their leaf and
    // most of their search path, so the scanned buckets stay cache-hot.
    std::vector<std::vector<double>> queries(
        ParallelWorkerCount(num_objects_, num_threads));
    ParallelForWorker(0, num_objects_, num_threads,
                      [&](std::size_t p, std::size_t worker) {
                        const std::size_t id = ids_[p];
                        SearchInto(Gather(p, &queries[worker]), p, kcap,
                                   out->MutableRow(id));
                        *out->MutableCount(id) = kcap;
                      });
  }

  /// Leaf points scanned answering the k-NN queries of `num_probes`
  /// evenly spaced tree positions, stopping once the count reaches
  /// `budget` (MakeProbedKdTreeSearcher).
  std::size_t ProbeScanCount(std::size_t k, std::size_t num_probes,
                             std::size_t budget) const {
    const std::size_t kcap = CappedK(k);
    if (kcap == 0) return 0;
    std::vector<Neighbor> row(kcap);
    std::vector<double> q;
    std::size_t scanned = 0;
    for (std::size_t i = 0; i < num_probes && scanned < budget; ++i) {
      const std::size_t p = i * num_objects_ / num_probes;
      scanned += SearchInto(Gather(p, &q), p, kcap, row.data());
    }
    return scanned;
  }

  std::size_t CountRadius(std::size_t query, double radius) const override {
    HICS_CHECK_LT(query, num_objects_);
    const std::size_t p = pos_[query];
    std::vector<double> q;
    std::size_t count = 0;
    SearchRadius(0, simd::ActiveKernels().leaf_screen, Gather(p, &q), p,
                 radius * radius,
                 [&](std::size_t, double) { ++count; });
    return count;
  }

  std::size_t num_objects() const override { return num_objects_; }
  std::size_t dimensionality() const override { return dim_; }
  KnnBackend backend() const override { return KnnBackend::kKdTree; }

  std::size_t MemoryBytes() const override {
    return points_.size() * sizeof(double) +
           ids_.size() * sizeof(std::uint32_t) +
           pos_.size() * sizeof(std::uint32_t) + nodes_.size() * sizeof(Node);
  }

 private:
  /// Bucket size of a leaf, and the block a leaf is scanned in (leaves of
  /// identical points may exceed it and are scanned block by block).
  static constexpr std::size_t kLeafSize = simd::kLeafScreenWidth;
  static constexpr std::uint32_t kLeaf =
      std::numeric_limits<std::uint32_t>::max();

  /// Nodes are stored in preorder, so a node's left child is the next
  /// node and only the right child needs an index.
  struct Node {
    double split_value = 0.0;
    std::uint32_t begin = 0;  ///< tree positions [begin, end) below
    std::uint32_t end = 0;
    std::uint32_t split_dim = kLeaf;  ///< kLeaf marks a leaf bucket
    std::uint32_t right = 0;
  };

  /// The k-NN result under construction for one query: row[0, count)
  /// holds the best (squared distance, id) pairs so far. Until the row is
  /// full every scanned point is appended; it is sorted once when it fills
  /// and stays sorted from then on.
  struct TopK {
    Neighbor* row;
    std::size_t kcap;
    simd::SimdKernels::LeafScreenFn leaf_screen;
    std::size_t count = 0;
    std::size_t scanned = 0;  ///< leaf points whose distance was taken

    bool full() const { return count == kcap; }

    /// Inserts one leaf survivor into the full row. It is rechecked
    /// against the current k-th entry, which tightens as earlier survivors
    /// land, so most late ones cost one comparison.
    void InsertSurvivor(const Neighbor& c) {
      if (!(c < row[kcap - 1])) return;
      std::size_t b = kcap - 1;
      for (; b > 0 && c < row[b - 1]; --b) row[b] = row[b - 1];
      row[b] = c;
    }
  };

  void Build(const std::vector<const double*>& columns, std::size_t begin,
             std::size_t end) {
    const std::size_t self = nodes_.size();
    nodes_.push_back(Node{0.0, static_cast<std::uint32_t>(begin),
                          static_cast<std::uint32_t>(end), kLeaf, 0});
    if (end - begin <= kLeafSize) return;
    // Split on the dimension with the largest spread for better balance on
    // correlated data than plain depth cycling.
    std::size_t best_dim = 0;
    double best_spread = -1.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      const double* column = columns[j];
      double lo = column[ids_[begin]];
      double hi = lo;
      for (std::size_t i = begin; i < end; ++i) {
        const double v = column[ids_[i]];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_dim = j;
      }
    }
    // All points identical in every dimension: keep as (large) leaf.
    if (best_spread <= 0.0) return;
    const double* column = columns[best_dim];
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                     ids_.begin() + end, [&](std::uint32_t a, std::uint32_t b) {
                       return column[a] < column[b];
                     });
    nodes_[self].split_dim = static_cast<std::uint32_t>(best_dim);
    nodes_[self].split_value = column[ids_[mid]];
    Build(columns, begin, mid);
    nodes_[self].right = static_cast<std::uint32_t>(nodes_.size());
    Build(columns, mid, end);
  }

  /// The coordinates of tree position p, gathered from the columns into
  /// `buffer` (a query point in row form).
  const double* Gather(std::size_t p, std::vector<double>* buffer) const {
    buffer->resize(dim_);
    for (std::size_t j = 0; j < dim_; ++j) {
      (*buffer)[j] = points_[j * num_objects_ + p];
    }
    return buffer->data();
  }

  /// The one k-NN search: fills row[0, kcap) with the kcap nearest
  /// objects of point q in ascending (distance, id) order, skipping tree
  /// position `exclude`. Returns the number of leaf points scanned.
  std::size_t SearchInto(const double* q, std::size_t exclude,
                         std::size_t kcap, Neighbor* row) const {
    if (kcap == 0) return 0;
    TopK top{row, kcap, simd::ActiveKernels().leaf_screen};
    SearchKnn(0, q, exclude, &top);
    // Nothing is pruned before the row fills, so it always fills.
    HICS_DCHECK(top.full());
    for (std::size_t i = 0; i < kcap; ++i) {
      row[i].distance = std::sqrt(row[i].distance);
    }
    return top.scanned;
  }

  void SearchKnn(std::size_t node_id, const double* q, std::size_t exclude,
                 TopK* top) const {
    const Node& node = nodes_[node_id];
    if (node.split_dim == kLeaf) {
      ScanLeaf(node, q, exclude, top);
      return;
    }
    const double diff = q[node.split_dim] - node.split_value;
    const std::size_t near = diff <= 0.0 ? node_id + 1 : node.right;
    const std::size_t far = diff <= 0.0 ? node.right : node_id + 1;
    SearchKnn(near, q, exclude, top);
    // Prune the far side only when its plane is strictly farther than the
    // k-th distance: a tie at the k-th distance with a smaller id still
    // displaces the row's last entry under the (distance, id) order.
    if (!top->full() || diff * diff <= top->row[top->kcap - 1].distance) {
      SearchKnn(far, q, exclude, top);
    }
  }

  /// Bit t for each tree position b + t of the block [b, b + count),
  /// except the excluded one.
  static std::uint32_t BlockBits(std::size_t b, std::size_t count,
                                 std::size_t exclude) {
    std::uint32_t bits = (std::uint32_t{1} << count) - 1;
    // Unsigned wrap: an exclude before the block fails the test too.
    if (exclude - b < count) bits &= ~(std::uint32_t{1} << (exclude - b));
    return bits;
  }

  void ScanLeaf(const Node& node, const double* q, std::size_t exclude,
                TopK* top) const {
    top->scanned += node.end - node.begin;
    double d2[kLeafSize];
    for (std::size_t b = node.begin; b < node.end; b += kLeafSize) {
      const std::size_t count = std::min<std::size_t>(node.end - b, kLeafSize);
      // Until the row is full every point of the block is taken; once it
      // is, the mask against the k-th distance filters (ties pass, and
      // InsertSurvivor orders them by id).
      const bool filling = !top->full();
      const double bound = filling ? std::numeric_limits<double>::infinity()
                                   : top->row[top->kcap - 1].distance;
      const std::uint32_t screened = top->leaf_screen(
          q, &points_[b], num_objects_, dim_, count, bound, d2);
      std::uint32_t bits = BlockBits(b, count, exclude) &
                           (filling ? ~std::uint32_t{0} : screened);
      for (; bits != 0 && !top->full(); bits &= bits - 1) {
        const std::size_t t = static_cast<std::size_t>(std::countr_zero(bits));
        top->row[top->count++] = {ids_[b + t], d2[t]};
        if (top->full()) std::sort(top->row, top->row + top->kcap);
      }
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t t = static_cast<std::size_t>(std::countr_zero(bits));
        top->InsertSurvivor({ids_[b + t], d2[t]});
      }
    }
  }

  template <typename Visit>
  void SearchRadius(std::size_t node_id,
                    simd::SimdKernels::LeafScreenFn leaf_screen,
                    const double* q, std::size_t exclude, double r2,
                    const Visit& visit) const {
    const Node& node = nodes_[node_id];
    if (node.split_dim == kLeaf) {
      double d2[kLeafSize];
      for (std::size_t b = node.begin; b < node.end; b += kLeafSize) {
        const std::size_t count =
            std::min<std::size_t>(node.end - b, kLeafSize);
        for (std::uint32_t bits = BlockBits(b, count, exclude) &
                                  leaf_screen(q, &points_[b], num_objects_,
                                              dim_, count, r2, d2);
             bits != 0; bits &= bits - 1) {
          const std::size_t t =
              static_cast<std::size_t>(std::countr_zero(bits));
          visit(b + t, d2[t]);
        }
      }
      return;
    }
    const double diff = q[node.split_dim] - node.split_value;
    const std::size_t near = diff <= 0.0 ? node_id + 1 : node.right;
    const std::size_t far = diff <= 0.0 ? node.right : node_id + 1;
    SearchRadius(near, leaf_screen, q, exclude, r2, visit);
    if (diff * diff <= r2) {
      SearchRadius(far, leaf_screen, q, exclude, r2, visit);
    }
  }

  std::size_t num_objects_;
  std::size_t dim_;
  /// Column-major in tree order: coordinate j of position p at
  /// [j * num_objects_ + p].
  std::vector<double> points_;
  std::vector<std::uint32_t> ids_;  ///< tree position -> object id
  std::vector<std::uint32_t> pos_;  ///< object id -> tree position
  std::vector<Node> nodes_;         ///< preorder; root at 0
};

}  // namespace

std::unique_ptr<NeighborSearcher> MakeKdTreeSearcher(
    const Dataset& dataset, const Subspace& subspace) {
  return std::make_unique<KdTreeSearcher>(dataset, subspace);
}

ProbedKdTree MakeProbedKdTreeSearcher(const Dataset& dataset,
                                      const Subspace& subspace, std::size_t k,
                                      std::size_t num_probes,
                                      std::size_t budget) {
  auto tree = std::make_unique<KdTreeSearcher>(dataset, subspace);
  const std::size_t scanned = tree->ProbeScanCount(k, num_probes, budget);
  return {std::move(tree), scanned};
}

}  // namespace hics
