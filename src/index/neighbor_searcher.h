#ifndef HICS_INDEX_NEIGHBOR_SEARCHER_H_
#define HICS_INDEX_NEIGHBOR_SEARCHER_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"

namespace hics {

/// One neighbor of a query object.
struct Neighbor {
  std::size_t id = 0;
  double distance = std::numeric_limits<double>::infinity();

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    // Distance first, id as tiebreaker, so results are deterministic.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Dense all-kNN result: row q holds the neighbors of query q in ascending
/// (distance, id) order, all rows packed into one flat slab of stride k.
/// Reusing one table across subspaces keeps the batched kNN pass down to a
/// single allocation per dataset size change.
class KnnResultTable {
 public:
  /// Shapes the table for `num_queries` rows of capacity `k` and zeroes the
  /// per-row counts. Existing slab capacity is reused.
  void Reset(std::size_t num_queries, std::size_t k) {
    num_queries_ = num_queries;
    k_ = k;
    flat_.clear();
    flat_.resize(num_queries * k);
    counts_.assign(num_queries, 0);
  }

  std::size_t num_queries() const { return num_queries_; }
  /// Row capacity (the clamped k the producing backend used).
  std::size_t k() const { return k_; }

  /// The neighbors of query q (only the filled prefix of the row).
  std::span<const Neighbor> Row(std::size_t q) const {
    return {flat_.data() + q * k_, counts_[q]};
  }
  std::size_t count(std::size_t q) const { return counts_[q]; }

  /// Backend access: raw row storage and its fill count.
  Neighbor* MutableRow(std::size_t q) { return flat_.data() + q * k_; }
  std::size_t* MutableCount(std::size_t q) { return &counts_[q]; }

 private:
  std::size_t num_queries_ = 0;
  std::size_t k_ = 0;
  std::vector<Neighbor> flat_;
  std::vector<std::size_t> counts_;
};

/// Which neighbor-search backend to use. All backends return identical
/// results (same ids, same bit-exact distances, same order); the choice is
/// purely a performance decision — see ChooseKnnBackend and
/// ResolveKnnSearcher below for the calibrated policy.
enum class KnnBackend {
  kBruteForce,  ///< blocked/batched exhaustive scan
  kKdTree,      ///< median-split KD-tree
};

/// k-nearest-neighbor search over the objects of one dataset, with distances
/// restricted to a subspace (Euclidean on the projected attributes, as in
/// the paper's dist_S). Backends: brute force and KD-tree.
class NeighborSearcher {
 public:
  virtual ~NeighborSearcher() = default;

  /// The k nearest neighbors of object `query` (itself excluded), sorted by
  /// ascending distance into `*out` (cleared first; its capacity is reused
  /// across calls, so a caller-kept buffer makes repeated queries
  /// allocation-free). Yields fewer than k when the dataset is small.
  virtual void QueryKnn(std::size_t query, std::size_t k,
                        std::vector<Neighbor>* out) const = 0;

  /// Allocating convenience wrapper around the buffer variant.
  std::vector<Neighbor> QueryKnn(std::size_t query, std::size_t k) const {
    std::vector<Neighbor> out;
    QueryKnn(query, k, &out);
    return out;
  }

  /// The k nearest indexed objects of an arbitrary query *point*, given as
  /// its dimensionality() coordinates in subspace projection order, sorted
  /// ascending (distance, id) into `*out` (cleared first, capacity reused).
  /// Unlike QueryKnn nothing is excluded — the point is not an indexed
  /// object — and the searcher is never modified: this is the const
  /// out-of-sample query path trained-model serving scores through
  /// (src/serve). Yields min(k, num_objects()) neighbors; distances are
  /// bit-identical to what QueryKnn computes for coincident coordinates.
  virtual void QueryKnnPoint(std::span<const double> point, std::size_t k,
                             std::vector<Neighbor>* out) const = 0;

  /// Allocating convenience wrapper around the buffer variant.
  std::vector<Neighbor> QueryKnnPoint(std::span<const double> point,
                                      std::size_t k) const {
    std::vector<Neighbor> out;
    QueryKnnPoint(point, k, &out);
    return out;
  }

  /// Batched all-kNN: the k nearest neighbors of *every* object at once,
  /// into `out` (row q = neighbors of q, ascending (distance, id)). Result
  /// rows are element-identical to per-query QueryKnn calls; backends only
  /// differ in how fast they get there. `num_threads` parallelizes over
  /// query blocks on the shared pool (1 = serial, 0 = hardware
  /// concurrency); results are identical for any value.
  virtual void QueryAllKnn(std::size_t k, KnnResultTable* out,
                           std::size_t num_threads = 1) const = 0;

  /// Number of objects (excluding `query`) within `radius` of object
  /// `query`, without materializing the neighbor list (what RIS's quality
  /// aggregation needs).
  virtual std::size_t CountRadius(std::size_t query, double radius) const = 0;

  virtual std::size_t num_objects() const = 0;
  virtual std::size_t dimensionality() const = 0;
  /// The backend this searcher implements.
  virtual KnnBackend backend() const = 0;
  /// Bytes held by the searcher's buffers (the sum of their sizes); what
  /// ArtifactCache charges against its byte budget.
  virtual std::size_t MemoryBytes() const = 0;

 protected:
  /// The effective row size of a k-NN query: every object but the query
  /// itself is a potential neighbor.
  std::size_t CappedK(std::size_t k) const {
    const std::size_t n = num_objects();
    return n == 0 ? 0 : std::min(k, n - 1);
  }
};

/// Exhaustive scan backend. Per-query it is the classic O(N*d) loop with
/// bound abandonment; batched (QueryAllKnn) it switches to a cache-blocked
/// SoA kernel that computes each symmetric pair once — see DESIGN.md §5c.
std::unique_ptr<NeighborSearcher> MakeBruteForceSearcher(
    const Dataset& dataset, const Subspace& subspace);

/// Median-split KD-tree with its coordinates stored column-major in tree
/// order (each leaf bucket a contiguous run of every column, scanned by
/// one SIMD leaf_screen call per block — DESIGN.md §5c); faster
/// for low-dimensional or strongly structured subspaces, degrades toward
/// brute force as uniform dimensionality grows (the classic curse;
/// compared in bench_knn_backends). Requires fewer than 2^32 objects.
std::unique_ptr<NeighborSearcher> MakeKdTreeSearcher(const Dataset& dataset,
                                                     const Subspace& subspace);

/// Factory over an explicit backend choice. Library callers resolve the
/// policy instead (ResolveKnnSearcher, or ChooseKnnBackend without data);
/// this entry point is for building one backend on purpose, e.g. a
/// reference to compare against.
std::unique_ptr<NeighborSearcher> MakeSearcher(const Dataset& dataset,
                                               const Subspace& subspace,
                                               KnnBackend backend);

/// A KD-tree searcher together with its probe count: the leaf points
/// scanned answering the k-NN queries of `num_probes` tree positions
/// spread evenly over the index, the count stopping once it reaches
/// `budget`. ResolveKnnSearcher reads the count as a deterministic
/// stand-in for query cost.
struct ProbedKdTree {
  std::unique_ptr<NeighborSearcher> tree;
  std::size_t scanned = 0;
};
ProbedKdTree MakeProbedKdTreeSearcher(const Dataset& dataset,
                                      const Subspace& subspace, std::size_t k,
                                      std::size_t num_probes,
                                      std::size_t budget);

/// Calibration constants of the kNN backend policy, pinned from
/// BENCH_knn_backends.json (bench_knn_backends writes them into its
/// `selector` record beside the cells they were fitted to).
namespace knn_policy {
/// Static verdict: KD-tree for |S| <= kKdTreeMaxDims once
/// N >= kKdTreeMinObjects; brute force otherwise.
inline constexpr std::size_t kKdTreeMinObjects = 256;
inline constexpr std::size_t kKdTreeMaxDims = 7;
/// Probe band: workloads with N >= kProbeMinObjects and
/// kProbeMinDims <= |S| <= kProbeMaxDims, where the tree's win depends on
/// how structured the data is, are decided by a KD-tree probe. The
/// uniform calibration grid reaches |S| = 16, so the band ends there.
inline constexpr std::size_t kProbeMinObjects = 2000;
inline constexpr std::size_t kProbeMinDims = 5;
inline constexpr std::size_t kProbeMaxDims = 16;
/// The probe answers k-NN for this many evenly spaced tree positions...
inline constexpr std::size_t kProbeQueries = 64;
/// ...and keeps the tree iff fewer than this fraction of N leaf points
/// were scanned per query. In BENCH_knn_backends.json the tree still wins
/// by 1.5x at 0.710 (uniform N = 2000, |S| = 7), breaks even near 0.82
/// to 0.94 (uniform |S| = 8 at N = 4000 and 2000) and loses from 0.99 on.
inline constexpr double kProbeMaxScanFraction = 0.75;
}  // namespace knn_policy

/// Data-free kNN policy: the static (N, |S|) verdict for callers that have
/// no data to look at (ChooseScoringBackend in outlier/subspace_ranker.h
/// builds its kNN tiers on it). Callers that hold the data resolve through
/// ResolveKnnSearcher instead.
KnnBackend ChooseKnnBackend(std::size_t num_objects,
                            std::size_t num_dimensions);

/// True iff ResolveKnnSearcher probes a KD-tree for an (N, |S|) workload.
bool InKnnProbeBand(std::size_t num_objects, std::size_t num_dimensions);

/// The one backend resolution point: the searcher every neighbor-based
/// scorer (cold and cached paths) and the serving layer query `subspace`
/// of `dataset` with, for neighborhoods of size `k`. Outside the probe
/// band the static ChooseKnnBackend verdict is built; inside it a KD-tree
/// is built and probed (MakeProbedKdTreeSearcher over kProbeQueries
/// positions), kept if fewer than kProbeMaxScanFraction * N points per
/// query were scanned, and otherwise dropped for a brute-force searcher.
/// The decision counts scanned points, never time, so it is deterministic
/// in (data, subspace, k). Every backend returns identical neighbors; only
/// speed depends on it.
std::unique_ptr<NeighborSearcher> ResolveKnnSearcher(const Dataset& dataset,
                                                     const Subspace& subspace,
                                                     std::size_t k);

}  // namespace hics

#endif  // HICS_INDEX_NEIGHBOR_SEARCHER_H_
