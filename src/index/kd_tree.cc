#include <algorithm>
#include <cmath>
#include <numeric>

#include "index/distance.h"
#include "index/neighbor_searcher.h"

namespace hics {

namespace {

/// Classic median-split KD-tree storing point ids; leaves hold small
/// buckets. Nearest-k search with hyperplane pruning.
class KdTreeSearcher : public NeighborSearcher {
 public:
  KdTreeSearcher(const Dataset& dataset, const Subspace& subspace)
      : num_objects_(dataset.num_objects()), dim_(subspace.size()) {
    HICS_CHECK_GT(dim_, 0u);
    points_.resize(num_objects_ * dim_);
    std::size_t out = 0;
    for (std::size_t i = 0; i < num_objects_; ++i) {
      for (std::size_t dim : subspace) points_[out++] = dataset.Get(i, dim);
    }
    ids_.resize(num_objects_);
    std::iota(ids_.begin(), ids_.end(), 0);
    if (num_objects_ > 0) {
      nodes_.reserve(2 * num_objects_ / kLeafSize + 2);
      root_ = Build(0, num_objects_, 0);
    }
  }

  void QueryKnn(std::size_t query, std::size_t k,
                std::vector<Neighbor>* out) const override {
    HICS_CHECK_LT(query, num_objects_);
    std::vector<Neighbor>& heap = *out;  // max-heap of squared distances
    heap.clear();
    heap.reserve(k + 1);
    if (root_ >= 0 && k > 0) {
      SearchKnn(root_, &points_[query * dim_], query, k, &heap);
    }
    std::sort_heap(heap.begin(), heap.end());
    for (Neighbor& n : heap) n.distance = std::sqrt(n.distance);
  }

  void QueryKnnPoint(std::span<const double> point, std::size_t k,
                     std::vector<Neighbor>* out) const override {
    HICS_CHECK_EQ(point.size(), dim_);
    std::vector<Neighbor>& heap = *out;
    heap.clear();
    heap.reserve(k + 1);
    if (root_ >= 0 && k > 0) {
      // exclude = num_objects_ matches no id, so the point competes
      // against every indexed object (out-of-sample semantics).
      SearchKnn(root_, point.data(), num_objects_, k, &heap);
    }
    std::sort_heap(heap.begin(), heap.end());
    for (Neighbor& n : heap) n.distance = std::sqrt(n.distance);
  }

  void QueryRadius(std::size_t query, double radius,
                   std::vector<Neighbor>* out) const override {
    HICS_CHECK_LT(query, num_objects_);
    std::vector<Neighbor>& result = *out;
    result.clear();
    if (root_ >= 0) {
      SearchRadius(root_, &points_[query * dim_], query, radius * radius,
                   &result);
    }
    for (Neighbor& n : result) n.distance = std::sqrt(n.distance);
    std::sort(result.begin(), result.end());
  }

  std::size_t num_objects() const override { return num_objects_; }
  std::size_t dimensionality() const override { return dim_; }

 private:
  static constexpr std::size_t kLeafSize = 16;

  struct Node {
    // Leaf iff left < 0: then [begin, end) indexes ids_.
    int left = -1;
    int right = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t split_dim = 0;
    double split_value = 0.0;
  };

  int Build(std::size_t begin, std::size_t end, std::size_t depth) {
    Node node;
    node.begin = begin;
    node.end = end;
    if (end - begin <= kLeafSize) {
      nodes_.push_back(node);
      return static_cast<int>(nodes_.size() - 1);
    }
    // Split on the dimension with the largest spread for better balance on
    // correlated data than plain depth cycling.
    std::size_t best_dim = depth % dim_;
    double best_spread = -1.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      double lo = points_[ids_[begin] * dim_ + j];
      double hi = lo;
      for (std::size_t i = begin; i < end; ++i) {
        const double v = points_[ids_[i] * dim_ + j];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_dim = j;
      }
    }
    if (best_spread <= 0.0) {
      // All points identical in every dimension: keep as (large) leaf.
      nodes_.push_back(node);
      return static_cast<int>(nodes_.size() - 1);
    }
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                     ids_.begin() + end,
                     [&](std::size_t a, std::size_t b) {
                       return points_[a * dim_ + best_dim] <
                              points_[b * dim_ + best_dim];
                     });
    node.split_dim = best_dim;
    node.split_value = points_[ids_[mid] * dim_ + best_dim];
    const int self = static_cast<int>(nodes_.size());
    nodes_.push_back(node);
    const int left = Build(begin, mid, depth + 1);
    const int right = Build(mid, end, depth + 1);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return self;
  }

  void SearchKnn(int node_id, const double* q, std::size_t exclude,
                 std::size_t k, std::vector<Neighbor>* heap) const {
    const Node& node = nodes_[node_id];
    if (node.left < 0) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t id = ids_[i];
        if (id == exclude) continue;
        const double d2 = SquaredDistance(q, &points_[id * dim_], dim_);
        if (heap->size() < k) {
          heap->push_back({id, d2});
          std::push_heap(heap->begin(), heap->end());
        } else if ((Neighbor{id, d2}) < heap->front()) {
          std::pop_heap(heap->begin(), heap->end());
          heap->back() = {id, d2};
          std::push_heap(heap->begin(), heap->end());
        }
      }
      return;
    }
    const double diff = q[node.split_dim] - node.split_value;
    const int near = diff <= 0.0 ? node.left : node.right;
    const int far = diff <= 0.0 ? node.right : node.left;
    SearchKnn(near, q, exclude, k, heap);
    // Visit the far side only if the splitting hyperplane could still hold
    // a closer neighbor — or an equally distant one: a tie at the k-th
    // distance with a smaller id still displaces the heap top under the
    // (distance, id) order, so pruning on equality would drop it.
    if (heap->size() < k || diff * diff <= heap->front().distance) {
      SearchKnn(far, q, exclude, k, heap);
    }
  }

  void SearchRadius(int node_id, const double* q, std::size_t exclude,
                    double r2, std::vector<Neighbor>* out) const {
    const Node& node = nodes_[node_id];
    if (node.left < 0) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t id = ids_[i];
        if (id == exclude) continue;
        const double d2 = SquaredDistance(q, &points_[id * dim_], dim_);
        if (d2 <= r2) out->push_back({id, d2});
      }
      return;
    }
    const double diff = q[node.split_dim] - node.split_value;
    const int near = diff <= 0.0 ? node.left : node.right;
    const int far = diff <= 0.0 ? node.right : node.left;
    SearchRadius(near, q, exclude, r2, out);
    if (diff * diff <= r2) SearchRadius(far, q, exclude, r2, out);
  }

  std::size_t num_objects_;
  std::size_t dim_;
  std::vector<double> points_;
  std::vector<std::size_t> ids_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace

std::unique_ptr<NeighborSearcher> MakeKdTreeSearcher(
    const Dataset& dataset, const Subspace& subspace) {
  return std::make_unique<KdTreeSearcher>(dataset, subspace);
}

}  // namespace hics
