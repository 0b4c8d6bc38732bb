#ifndef HICS_ENGINE_PREPARED_DATASET_H_
#define HICS_ENGINE_PREPARED_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"
#include "index/neighbor_searcher.h"
#include "index/sorted_index.h"

namespace hics {

/// Hit/miss tallies of one ArtifactCache, per artifact kind. Snapshot
/// semantics: stats() copies the atomic counters, so the numbers are
/// consistent enough for reports but not a synchronization point.
struct ArtifactCacheStats {
  std::uint64_t searcher_hits = 0;
  std::uint64_t searcher_misses = 0;
  std::uint64_t knn_table_hits = 0;
  std::uint64_t knn_table_misses = 0;
  std::uint64_t score_hits = 0;
  std::uint64_t score_misses = 0;
  std::uint64_t grid_hits = 0;
  std::uint64_t grid_misses = 0;
  /// Estimated bytes held by the cached artifacts (the documented
  /// per-kind estimates of ArtifactCache::ApproxMemoryBytes).
  std::uint64_t approx_bytes = 0;
  /// Artifacts built but returned uncached because admitting them would
  /// have exceeded the byte budget.
  std::uint64_t budget_rejections = 0;
  /// Artifacts removed from the cache: stale entries swept (or caught at
  /// lookup) after an epoch advance, plus entries reclaimed when
  /// SetByteBudget drops the budget below the current footprint.
  std::uint64_t evicted_artifacts = 0;
  /// Estimated bytes released by those evictions (the same per-kind size
  /// models approx_bytes is charged with).
  std::uint64_t invalidated_bytes = 0;

  std::uint64_t hits() const {
    return searcher_hits + knn_table_hits + score_hits + grid_hits;
  }
  std::uint64_t misses() const {
    return searcher_misses + knn_table_misses + score_misses + grid_misses;
  }
  /// Overall hit fraction in [0, 1]; 0 when the cache was never queried.
  double hit_rate() const {
    const std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }
};

/// Thread-safe, subspace-keyed memoization of the derived artifacts the
/// ranking stage rebuilds per call today: projected NeighborSearchers
/// (SoA conversion + KD-tree build), batched all-kNN tables, whole
/// per-subspace score vectors, and (type-erased — see FindGridErased)
/// subspace histograms.
///
/// Correctness rests on the repo-wide bit-identity discipline (DESIGN.md
/// §5b-§5d): every producer of a cached artifact is deterministic in its
/// key — backends return bit-identical neighbor tables for any thread
/// count, scorers return bit-identical score vectors for any backend /
/// batching / threading choice — so a cache hit is byte-for-byte the
/// value a cold computation would have produced. Keys therefore exclude
/// performance knobs (threads, batching) and include only what selects
/// the value: the subspace, the backend (searchers are distinct objects
/// per backend even though their answers agree), the row capacity k, and
/// the scorer's semantic cache key.
///
/// Epochs (DESIGN.md §5j): every entry is stamped with the cache's epoch
/// at insert time. A static dataset never advances the epoch and nothing
/// here changes. The streaming data plane advances the epoch on every
/// window mutation (AdvanceEpoch), which sweeps all entries stamped at
/// older epochs — they describe rows that no longer exist. As
/// defense-in-depth, lookups also reject (and evict) any entry whose
/// stamp mismatches the current epoch, so a stale artifact can never be
/// served even if a sweep was missed. Both paths count into
/// ArtifactCacheStats::evicted_artifacts / invalidated_bytes.
///
/// Concurrency: lookups and inserts are mutex-protected per artifact
/// kind; builds run *outside* the lock, so two workers missing the same
/// key may both build — the first insert wins and both callers observe
/// the same canonical entry (identical bits either way). A failed or
/// partial computation must never be inserted; see
/// OutlierScorer::ScoreSubspacePreparedChecked for the enforcement on
/// the scoring path. AdvanceEpoch and RebindDataset are NOT safe against
/// concurrent lookups — the owner (StreamingDataset) must quiesce
/// queries across a window mutation, which it documents as its own
/// external-synchronization contract.
class ArtifactCache {
 public:
  explicit ArtifactCache(const Dataset& dataset) : dataset_(&dataset) {}

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The memoized searcher for (subspace, backend), built through
  /// MakeSearcher on first use.
  std::shared_ptr<const NeighborSearcher> GetSearcher(const Subspace& subspace,
                                                      KnnBackend backend);

  /// The memoized all-kNN table for (subspace, k): row q holds the k
  /// nearest neighbors of object q. Keyed without the backend because all
  /// backends return element-identical tables. A miss queries any
  /// searcher already cached for the subspace through the batched
  /// all-kNN engine, or else publishes what ResolveKnnSearcher builds, so
  /// a searcher the resolution keeps is built once and one it rejects is
  /// never cached. `num_threads` only shapes how a miss is computed,
  /// never the result.
  std::shared_ptr<const KnnResultTable> GetKnnTable(const Subspace& subspace,
                                                    std::size_t k,
                                                    std::size_t num_threads);

  /// The cached score vector for (scorer_key, subspace), or nullptr on a
  /// miss. `scorer_key` must encode every score-affecting parameter of
  /// the scorer (OutlierScorer::cache_key); an empty key is invalid.
  std::shared_ptr<const std::vector<double>> FindScores(
      const std::string& scorer_key, const Subspace& subspace);

  /// Publishes a successfully computed, validated score vector. First
  /// insert wins; returns the canonical entry (the racing duplicate is
  /// bit-identical by the determinism discipline, so either is correct).
  /// `scores.size()` must equal the dataset's object count — a partial
  /// vector (e.g. a scorer cut off by a deadline) is a programming error
  /// and is rejected by HICS_CHECK rather than cached.
  std::shared_ptr<const std::vector<double>> InsertScores(
      const std::string& scorer_key, const Subspace& subspace,
      std::vector<double> scores);

  /// The cached grid artifact for (grid_key, subspace), or nullptr on a
  /// miss. Grids are stored type-erased (shared_ptr<const void>) because
  /// the engine layer sits *below* the cluster layer that defines
  /// SubspaceGrid; the grid-density scorer owns the concrete type and
  /// casts. `grid_key` must encode every grid-shaping parameter —
  /// bins_per_dim, point-key retention, and the bit patterns of the
  /// attribute ranges the grid was binned against (GridArtifactKey in
  /// cluster/grid.h builds it) — so a range shift after a window slide
  /// can never alias a cached grid built against the old bounds.
  std::shared_ptr<const void> FindGridErased(const std::string& grid_key,
                                             const Subspace& subspace);

  /// Publishes a grid artifact (`bytes` = its estimated footprint, which
  /// the caller computes because the engine cannot see the concrete
  /// type). First insert wins; budget rejection returns the caller's
  /// pointer uncached, like the other kinds.
  std::shared_ptr<const void> InsertGridErased(const std::string& grid_key,
                                               const Subspace& subspace,
                                               std::shared_ptr<const void> grid,
                                               std::size_t bytes);

  /// Current dataset epoch of this cache (0 for static datasets that
  /// never advance it).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Carry hook for AdvanceEpoch: called for every cached grid entry
  /// during the sweep. Return a replacement grid (updating *bytes to its
  /// new footprint) to keep the entry — restamped at the new epoch — or
  /// nullptr to evict it like every other stale artifact. The streaming
  /// data plane uses this to slide window grids incrementally
  /// (SubspaceGrid::RetireRow/AdmitRow) instead of rebuilding them when
  /// the attribute ranges survived the slide.
  using GridCarryFn = std::function<std::shared_ptr<const void>(
      const std::string& grid_key, const Subspace& subspace,
      const std::shared_ptr<const void>& grid, std::size_t* bytes)>;

  /// Advances the cache to `new_epoch` (strictly greater than the current
  /// epoch) and sweeps every entry stamped at an older epoch: stale
  /// searchers, kNN tables, and score vectors are evicted; grids are
  /// offered to `carry` first (when provided). Eviction counts into
  /// evicted_artifacts / invalidated_bytes and returns the footprint to
  /// the budget. Requires external synchronization (no concurrent
  /// lookups/inserts) — see the class comment.
  void AdvanceEpoch(std::uint64_t new_epoch,
                    const GridCarryFn& carry = nullptr);

  /// Re-points the cache at a replacement dataset (same schema, possibly
  /// different rows/storage) — used when a streaming shard slot's row
  /// copy is rebuilt but its cache object is recycled for accounting
  /// continuity. Only meaningful together with AdvanceEpoch, under the
  /// same external-synchronization contract; the old entries must be
  /// swept in the same quiesced section or they would describe the wrong
  /// rows.
  void RebindDataset(const Dataset& dataset) { dataset_ = &dataset; }

  ArtifactCacheStats stats() const;

  std::size_t num_searchers() const;
  std::size_t num_knn_tables() const;
  std::size_t num_score_vectors() const;
  std::size_t num_grids() const;

  /// Caps the cache's estimated footprint at `bytes` (0 = unbounded, the
  /// default). An artifact whose estimated size would push
  /// ApproxMemoryBytes past the budget is built, returned to the caller,
  /// and simply not cached — the caller observes identical bits either
  /// way, only later lookups re-miss. Lowering the budget below the
  /// current footprint reclaims immediately: entries are evicted in a
  /// deterministic order (score vectors, then kNN tables, then grids,
  /// then searchers — cheapest-to-rebuild first — each kind in ascending
  /// key order) until the footprint fits, counted in evicted_artifacts /
  /// invalidated_bytes. Safe because every artifact is a pure derivation:
  /// a later miss rebuilds identical bits. Previously returned
  /// shared_ptrs stay alive (shared ownership) and stay correct.
  void SetByteBudget(std::size_t bytes);

  /// Estimated bytes held by the cached artifacts, from per-kind size
  /// models (not allocator-exact): a searcher counts the buffers it
  /// reports (NeighborSearcher::MemoryBytes — coordinate copies, norms,
  /// index arrays, tree nodes), a kNN table its neighbor slab plus
  /// per-row counts (n * k * sizeof(Neighbor) + n * 8), a score vector
  /// its doubles (n * 8), a grid whatever footprint its inserter
  /// declared. Container/node overhead is excluded; treat the budget as
  /// a sizing knob, not an accounting ledger.
  std::size_t ApproxMemoryBytes() const;

 private:
  /// One cached artifact plus the metadata eviction needs: the epoch it
  /// was stamped with at insert and the bytes it was charged.
  template <typename T>
  struct Entry {
    std::shared_ptr<T> value;
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;
  };

  /// Charges `bytes` against the budget. Returns false — charging
  /// nothing — when a budget is set and the charge would exceed it.
  bool AdmitBytes(std::size_t bytes);

  /// Books one eviction: returns `bytes` to the footprint and bumps the
  /// eviction counters.
  void AccountEviction(std::size_t bytes);

  /// Evicts entries in the documented deterministic order until the
  /// footprint is within `budget`. Caller holds no kind mutex.
  void ReclaimToBudget(std::size_t budget);

  using SearcherKey = std::pair<int, Subspace>;
  using KnnKey = std::pair<std::size_t, Subspace>;
  using ScoreKey = std::pair<std::string, Subspace>;
  using GridKey = std::pair<std::string, Subspace>;

  /// The cached searcher for `key` at epoch `now` (counting a hit), or
  /// nullptr; a stale-stamped entry is evicted. Caller holds
  /// searcher_mutex_.
  std::shared_ptr<const NeighborSearcher> FindSearcherLocked(
      const SearcherKey& key, std::uint64_t now);

  /// Caches a freshly built searcher under its backend(), subject to the
  /// byte budget; a racing builder's entry wins. Returns the canonical
  /// (or, when rejected by the budget, the uncached) searcher.
  std::shared_ptr<const NeighborSearcher> PublishSearcher(
      const Subspace& subspace, std::shared_ptr<const NeighborSearcher> built,
      std::uint64_t now);

  const Dataset* dataset_;

  mutable std::mutex searcher_mutex_;
  std::map<SearcherKey, Entry<const NeighborSearcher>> searchers_;

  mutable std::mutex knn_mutex_;
  std::map<KnnKey, Entry<const KnnResultTable>> knn_tables_;

  mutable std::mutex score_mutex_;
  std::map<ScoreKey, Entry<const std::vector<double>>> scores_;

  mutable std::mutex grid_mutex_;
  std::map<GridKey, Entry<const void>> grids_;

  std::atomic<std::uint64_t> epoch_{0};

  mutable std::atomic<std::uint64_t> searcher_hits_{0};
  mutable std::atomic<std::uint64_t> searcher_misses_{0};
  mutable std::atomic<std::uint64_t> knn_hits_{0};
  mutable std::atomic<std::uint64_t> knn_misses_{0};
  mutable std::atomic<std::uint64_t> score_hits_{0};
  mutable std::atomic<std::uint64_t> score_misses_{0};
  mutable std::atomic<std::uint64_t> grid_hits_{0};
  mutable std::atomic<std::uint64_t> grid_misses_{0};

  std::atomic<std::size_t> byte_budget_{0};
  std::atomic<std::size_t> approx_bytes_{0};
  mutable std::atomic<std::uint64_t> budget_rejections_{0};
  mutable std::atomic<std::uint64_t> evicted_artifacts_{0};
  mutable std::atomic<std::uint64_t> invalidated_bytes_{0};
};

/// Construction knobs of a PreparedDataset beyond the dataset itself.
/// The defaults reproduce the classic two-argument constructor; the
/// streaming data plane (DESIGN.md §5j) uses the extra fields to hand a
/// rebuilt window artifact its persistent epoch-managed cache and the
/// incrementally maintained sorted orders.
struct PreparedDatasetOptions {
  /// Parallelism of the one-time rank-artifact build (identical result
  /// for any value).
  std::size_t build_threads = 1;
  /// External artifact cache to adopt (must be bound to the same Dataset
  /// object); nullptr = create an owned cache. Sharing lets artifacts
  /// outlive one PreparedDataset generation: the streaming plane keeps
  /// one cache per window/slot across rebuilds and invalidates by epoch
  /// instead of by destruction.
  std::shared_ptr<ArtifactCache> cache;
  /// Dataset epoch this artifact describes (0 = static dataset).
  std::uint64_t epoch = 0;
  /// Pre-maintained per-attribute sorted orders (exactly the permutation
  /// std::stable_sort by value would produce — ties in ascending id
  /// order). When non-empty (size D, each of size N), EnsureRankArtifacts
  /// adopts them instead of sorting, which is how a window slide pays
  /// O(N) merge maintenance instead of O(N log N) re-sorts while staying
  /// bit-identical to a cold build.
  std::vector<std::vector<std::size_t>> sorted_orders;
};

/// One immutable prepared artifact per dataset: the shared derived state
/// that the decoupled pipeline's layers used to re-derive independently
/// per call — the per-attribute sorted order + ranks (the
/// SortedAttributeIndex that RunHicsSearch and ComputeContrastMatrix each
/// rebuilt), the pre-sorted columns and marginal moments the contrast
/// kernels consume, and the subspace-keyed ArtifactCache the ranking
/// stage draws searchers / kNN tables / score vectors from.
///
/// The dataset itself is the dimension-major SoA point store (Dataset is
/// column-major; ColumnSpan exposes the contiguous per-attribute arrays
/// the kNN kernels project from), so PreparedDataset references it
/// instead of copying: `dataset` must outlive the PreparedDataset and
/// must not be mutated while prepared state exists — the sorted order,
/// moments, and every cached artifact describe the values at build time,
/// and the invalidation rule is "new data, new PreparedDataset" (the
/// streaming plane rebuilds the PreparedDataset per epoch while keeping
/// the cache object alive across rebuilds; see PreparedDatasetOptions).
///
/// The rank-space artifacts (index, sorted columns, moments) are built
/// lazily on first use under std::call_once, so ranking-only consumers
/// pay nothing for them; `build_threads` caps the parallelism of that
/// one-time build (the built index is identical for any value). All
/// accessors are const and thread-safe; the embedded cache is logically
/// part of the immutable artifact (memoization, not mutation), hence
/// reachable through const access.
class PreparedDataset {
 public:
  explicit PreparedDataset(const Dataset& dataset,
                           std::size_t build_threads = 1)
      : PreparedDataset(dataset,
                        PreparedDatasetOptions{build_threads, nullptr, 0, {}}) {
  }

  PreparedDataset(const Dataset& dataset, PreparedDatasetOptions options);

  PreparedDataset(const PreparedDataset&) = delete;
  PreparedDataset& operator=(const PreparedDataset&) = delete;

  /// Shared-ownership convenience for serving contexts that hand one
  /// prepared artifact to many concurrent request handlers.
  static std::shared_ptr<const PreparedDataset> Build(
      const Dataset& dataset, std::size_t build_threads = 1) {
    return std::make_shared<const PreparedDataset>(dataset, build_threads);
  }

  const Dataset& dataset() const { return dataset_; }
  std::size_t num_objects() const { return dataset_.num_objects(); }
  std::size_t num_attributes() const { return dataset_.num_attributes(); }

  /// The dataset epoch this artifact was built at (0 for static
  /// datasets). Matches cache().epoch() for artifacts built by the
  /// streaming plane.
  std::uint64_t epoch() const { return epoch_; }

  /// The contiguous per-attribute value array (the SoA store the kNN
  /// kernels project subspaces out of).
  std::span<const double> ColumnSpan(std::size_t attribute) const {
    return dataset_.Column(attribute);
  }

  /// Per-attribute sorted order + ranks (paper §IV-A). Built once on
  /// first call; subsumes the SortedAttributeIndex that search and
  /// contrast-matrix used to construct independently.
  const SortedAttributeIndex& sorted_index() const;

  /// Attribute `a`'s values sorted ascending — the marginal sample the
  /// deviation functions compare against. Element `pos` equals
  /// Column(a)[sorted_index().SortedOrder(a)[pos]] bit for bit.
  std::span<const double> SortedColumn(std::size_t attribute) const;

  /// Mean / SampleVariance of SortedColumn(attribute), accumulated in the
  /// exact summation order the gather+sort reference uses, so the fused
  /// Welch kernel reproduces it bitwise.
  double MarginalMean(std::size_t attribute) const;
  double MarginalVariance(std::size_t attribute) const;

  /// (min, max) of attribute `attribute`'s finite values; (0, 0) when the
  /// column is empty or all-NaN. Memoized for all attributes on first
  /// call: reuses the pre-sorted columns' ends when the rank artifacts
  /// are already built (no data scan at all), and one NaN-ignoring
  /// min/max pass otherwise — identical results either way. This is the
  /// range substrate of the grid-density tier (SubspaceGrid's prepared
  /// overload), so repeated grid builds across subspaces never rescan
  /// columns.
  std::pair<double, double> AttributeRange(std::size_t attribute) const;

  /// The subspace-keyed artifact cache. Const-accessible by design: the
  /// cache memoizes pure derivations of the immutable dataset.
  ArtifactCache& cache() const { return *cache_; }

 private:
  void EnsureRankArtifacts() const;

  const Dataset& dataset_;
  std::size_t build_threads_;
  std::uint64_t epoch_ = 0;

  mutable std::once_flag rank_artifacts_once_;
  /// Set (release) at the end of the rank-artifact build; lets
  /// AttributeRange read the sorted columns lock-free when they already
  /// exist without forcing their construction when they don't.
  mutable std::atomic<bool> rank_artifacts_ready_{false};
  mutable std::unique_ptr<SortedAttributeIndex> index_;
  mutable std::vector<std::vector<double>> sorted_columns_;
  mutable std::vector<double> marginal_means_;
  mutable std::vector<double> marginal_variances_;
  /// Pre-maintained orders adopted by EnsureRankArtifacts (consumed on
  /// first use); empty for the classic sort-on-demand path.
  mutable std::vector<std::vector<std::size_t>> pending_orders_;

  mutable std::once_flag ranges_once_;
  mutable std::vector<double> attr_min_;
  mutable std::vector<double> attr_max_;

  mutable std::shared_ptr<ArtifactCache> cache_;
};

}  // namespace hics

#endif  // HICS_ENGINE_PREPARED_DATASET_H_
