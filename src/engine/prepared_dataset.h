#ifndef HICS_ENGINE_PREPARED_DATASET_H_
#define HICS_ENGINE_PREPARED_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"
#include "engine/shard_plane.h"
#include "index/neighbor_searcher.h"
#include "index/sorted_index.h"

namespace hics {

/// Hit/miss tallies of one ArtifactCache, per artifact kind. Snapshot
/// semantics: stats() copies the atomic counters, so the numbers are
/// consistent enough for reports but not a synchronization point.
struct ArtifactCacheStats {
  std::uint64_t searcher_hits = 0;
  std::uint64_t searcher_misses = 0;
  /// Always 0: kNN tables are computed per call, never shelved. Kept so
  /// hits() and existing readers of the field stay valid.
  std::uint64_t knn_table_hits = 0;
  /// kNN tables computed (ArtifactCache::ComputeKnnTable calls): each
  /// one is the miss a shelved table would have served.
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

class SubspaceGrid;  // cluster/grid.h; held only through shared_ptr here

/// Thread-safe, subspace-keyed memoization of the derived artifacts the
/// ranking stage would otherwise rebuild per call: projected
/// NeighborSearchers (SoA conversion + KD-tree build), whole per-subspace
/// score vectors, and subspace histograms (SubspaceGrid, which the engine
/// only forward-declares, so it does not link the cluster layer).
///
/// All-kNN tables are not shelved. A table (16 * N * k bytes) is read
/// once, by the scorer that turns it into a score vector, so
/// ComputeKnnTable hands it to the caller by value and a ranking holds
/// one table per worker instead of one per subspace. A repeat of the same
/// score is served by the score-vector shelf.
///
/// Correctness rests on the repo-wide bit-identity discipline (DESIGN.md
/// §5b-§5d): every producer of a cached artifact is deterministic in its
/// key — backends return bit-identical neighbor tables for any thread
/// count, scorers return bit-identical score vectors for any backend /
/// batching / threading choice — so a cache hit is byte-for-byte the
/// value a cold computation would have produced. Keys therefore exclude
/// performance knobs (threads, batching) and include only what selects
/// the value: the subspace, the backend (searchers are distinct objects
/// per backend even though their answers agree), and the scorer's
/// semantic cache key.
///
/// Each of the three kinds lives on its own Shelf, which writes the entry
/// lifecycle once: epoch stamp, stale eviction on lookup, first insert
/// wins, admission under the byte budget, sweep on epoch advance, and
/// in-order reclaim.
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

  /// The all-kNN table for (subspace, k): row q holds the k nearest
  /// neighbors of object q. Computed on every call and returned by value;
  /// nothing is published. Queries any searcher already shelved for the
  /// subspace (GetSearcher shelves them; all backends return
  /// element-identical tables) through the batched all-kNN engine, or
  /// else what ResolveKnnSearcher builds, which dies with the call. Each
  /// call counts one knn_table_miss. `num_threads` only shapes how the
  /// table is computed, never the result.
  KnnResultTable ComputeKnnTable(const Subspace& subspace, std::size_t k,
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

  /// The cached grid for (grid_key, subspace), or nullptr on a miss.
  /// `grid_key` must encode every grid-shaping parameter — bins_per_dim,
  /// point-key retention, and the bit patterns of the attribute ranges
  /// the grid was binned against (GridArtifactKey in cluster/grid.h
  /// builds it) — so a range shift after a window slide can never alias
  /// a cached grid built against the old bounds.
  std::shared_ptr<const SubspaceGrid> FindGrid(const std::string& grid_key,
                                               const Subspace& subspace);

  /// Publishes a grid (`bytes` = its SubspaceGrid::ApproxMemoryBytes,
  /// which the caller passes because the engine cannot see the type).
  /// First insert wins; budget rejection returns the caller's pointer
  /// uncached, like the other kinds.
  std::shared_ptr<const SubspaceGrid> InsertGrid(
      const std::string& grid_key, const Subspace& subspace,
      std::shared_ptr<const SubspaceGrid> grid, std::size_t bytes);

  /// Current dataset epoch of this cache (0 for static datasets that
  /// never advance it).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Advances the cache to `new_epoch` (strictly greater than the current
  /// epoch) and sweeps every entry stamped at an older epoch. Eviction
  /// counts into evicted_artifacts / invalidated_bytes and returns the
  /// footprint to the budget. Requires external synchronization (no
  /// concurrent lookups/inserts) — see the class comment.
  void AdvanceEpoch(std::uint64_t new_epoch);

  /// Re-points the cache at a replacement dataset (same schema, possibly
  /// different rows/storage) — used when a streaming shard slot's row
  /// copy is rebuilt but its cache object is recycled for accounting
  /// continuity. Only meaningful together with AdvanceEpoch, under the
  /// same external-synchronization contract; the old entries must be
  /// swept in the same quiesced section or they would describe the wrong
  /// rows.
  void RebindDataset(const Dataset& dataset) { dataset_ = &dataset; }

  ArtifactCacheStats stats() const;

  std::size_t num_searchers() const { return searchers_.size(); }
  std::size_t num_score_vectors() const { return scores_.size(); }
  std::size_t num_grids() const { return grids_.size(); }

  /// Caps the cache's estimated footprint at `bytes` (0 = unbounded, the
  /// default). An artifact whose estimated size would push
  /// ApproxMemoryBytes past the budget is built, returned to the caller,
  /// and simply not cached — the caller observes identical bits either
  /// way, only later lookups re-miss. Lowering the budget below the
  /// current footprint reclaims immediately: entries are evicted in a
  /// deterministic order (score vectors, then grids, then searchers —
  /// cheapest-to-rebuild first — each kind in ascending key order) until
  /// the footprint fits, counted in evicted_artifacts /
  /// invalidated_bytes. Safe because every artifact is a pure derivation:
  /// a later miss rebuilds identical bits. Previously returned
  /// shared_ptrs stay alive (shared ownership) and stay correct.
  void SetByteBudget(std::size_t bytes);

  /// Estimated bytes held by the cached artifacts, from per-kind size
  /// models (not allocator-exact): a searcher counts the buffers it
  /// reports (NeighborSearcher::MemoryBytes — coordinate copies, norms,
  /// index arrays, tree nodes), a score vector its doubles (n * 8), a
  /// grid whatever footprint its inserter declared. Container/node
  /// overhead is excluded; treat the budget as a sizing knob, not an
  /// accounting ledger.
  std::size_t ApproxMemoryBytes() const {
    return ledger_.approx_bytes.load(std::memory_order_relaxed);
  }

 private:
  /// The byte budget and eviction tallies every shelf charges.
  struct Ledger {
    std::atomic<std::size_t> byte_budget{0};
    std::atomic<std::size_t> approx_bytes{0};
    std::atomic<std::uint64_t> budget_rejections{0};
    std::atomic<std::uint64_t> evicted_artifacts{0};
    std::atomic<std::uint64_t> invalidated_bytes{0};

    /// Charges `bytes` against the budget. Returns false — charging
    /// nothing — when a budget is set and the charge would exceed it.
    bool Admit(std::size_t bytes);
    /// Books one eviction: returns `bytes` to the footprint and bumps
    /// the eviction counters.
    void Evict(std::size_t bytes);
    bool Over(std::size_t budget) const {
      return approx_bytes.load(std::memory_order_relaxed) > budget;
    }
  };

  /// One artifact kind: its entries under one mutex, each stamped with
  /// the epoch it was inserted at and the bytes it was charged, plus the
  /// kind's hit/miss counters. Builds happen outside, between Find and
  /// Publish.
  template <typename Key, typename Value>
  class Shelf {
   public:
    using Ptr = std::shared_ptr<const Value>;

    explicit Shelf(Ledger& ledger) : ledger_(ledger) {}

    /// The entry for `key` if it is stamped `now`, counting a hit;
    /// otherwise nullptr, evicting a stale-stamped entry (defense in
    /// depth: AdvanceEpoch normally sweeps it). Misses are the caller's
    /// to count (Miss), since one logical lookup may probe several keys.
    Ptr Find(const Key& key, std::uint64_t now) {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it == entries_.end()) return nullptr;
      if (it->second.epoch != now) {
        ledger_.Evict(it->second.bytes);
        entries_.erase(it);
        return nullptr;
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.value;
    }

    void Miss() { misses_.fetch_add(1, std::memory_order_relaxed); }

    /// Caches `value` under `key` at `now`, charged `bytes`. A racing
    /// builder's entry wins and is returned; a budget rejection returns
    /// `value` uncached (identical bits, just not memoized).
    Ptr Publish(const Key& key, Ptr value, std::size_t bytes,
                std::uint64_t now) {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) return it->second.value;
      if (!ledger_.Admit(bytes)) {
        ledger_.budget_rejections.fetch_add(1, std::memory_order_relaxed);
        return value;
      }
      return entries_.emplace(key, Entry{std::move(value), now, bytes})
          .first->second.value;
    }

    /// Evicts every entry not stamped `now`.
    void Sweep(std::uint64_t now) {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.epoch == now) {
          ++it;
          continue;
        }
        ledger_.Evict(it->second.bytes);
        it = entries_.erase(it);
      }
    }

    /// Evicts entries in ascending key order until the footprint is
    /// within `budget`.
    void Reclaim(std::size_t budget) {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = entries_.begin();
           ledger_.Over(budget) && it != entries_.end();) {
        ledger_.Evict(it->second.bytes);
        it = entries_.erase(it);
      }
    }

    std::size_t size() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return entries_.size();
    }
    std::uint64_t hits() const {
      return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t misses() const {
      return misses_.load(std::memory_order_relaxed);
    }

   private:
    struct Entry {
      Ptr value;
      std::uint64_t epoch = 0;
      std::size_t bytes = 0;
    };

    Ledger& ledger_;
    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
  };

  using SearcherKey = std::pair<int, Subspace>;
  using NamedKey = std::pair<std::string, Subspace>;

  const Dataset* dataset_;
  std::atomic<std::uint64_t> epoch_{0};
  Ledger ledger_;
  Shelf<SearcherKey, NeighborSearcher> searchers_{ledger_};
  Shelf<NamedKey, std::vector<double>> scores_{ledger_};
  Shelf<NamedKey, SubspaceGrid> grids_{ledger_};
  std::atomic<std::uint64_t> knn_tables_computed_{0};
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
  /// adopts them instead of sorting, which is how a window slide whose
  /// previous index was built pays an O(N) merge instead of an
  /// O(N log N) re-sort while staying bit-identical to a cold build.
  std::vector<std::vector<std::size_t>> sorted_orders;
};

/// One immutable prepared artifact per dataset: the shared derived state
/// that the decoupled pipeline's layers used to re-derive independently
/// per call — the per-attribute sorted order + ranks (the
/// SortedAttributeIndex that RunHicsSearch and ComputeContrastMatrix each
/// rebuilt), the pre-sorted columns and marginal moments the contrast
/// kernels consume, and the subspace-keyed ArtifactCache the ranking
/// stage draws searchers, score vectors and grids from.
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
///
/// A PreparedDataset is also the one-shard ShardPlane: its only shard is
/// itself, covering every row, and its global ranges are its attribute
/// ranges. The search, the contrast matrix and ranking therefore take it
/// through the same ShardPlane code as the sharded and streaming
/// planes, and on one shard that code is the unsharded estimator.
class PreparedDataset final : public ShardPlane {
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

  const Dataset& dataset() const override { return dataset_; }

  // --- ShardPlane view: one shard, the whole dataset ---
  std::size_t num_shards() const override { return 1; }
  const PreparedDataset& shard(std::size_t s) const override;
  std::size_t shard_begin(std::size_t s) const override;
  std::size_t shard_size(std::size_t s) const override;
  std::pair<double, double> GlobalAttributeRange(
      std::size_t attribute) const override {
    return AttributeRange(attribute);
  }

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

  /// The sorted index if a consumer already built it, else nullptr; never
  /// builds. It reads the lazily filled index without synchronizing with
  /// a concurrent first build, so it is safe only while no query is in
  /// flight — the streaming plane calls it inside a mutation, under its
  /// rule that no query may run across one.
  const SortedAttributeIndex* built_sorted_index() const {
    return index_.get();
  }

  /// Attribute `a`'s values sorted ascending — the marginal sample the
  /// deviation functions compare against. Element `pos` equals
  /// Column(a)[sorted_index().SortedOrder(a)[pos]] bit for bit.
  std::span<const double> SortedColumn(std::size_t attribute) const;

  /// Mean / SampleVariance of SortedColumn(attribute), accumulated in the
  /// exact summation order the gather+sort reference uses, so the fused
  /// Welch kernel reproduces it bitwise.
  double MarginalMean(std::size_t attribute) const;
  double MarginalVariance(std::size_t attribute) const;

  /// (min, max) of attribute `attribute`'s non-NaN values; (0, 0) when
  /// the column is empty or all-NaN (stats::RangeIgnoringNaN). Memoized
  /// for all attributes on first call by one pass per column. This is
  /// the range substrate of the grid-density tier (SubspaceGrid's
  /// prepared overload), so repeated grid builds across subspaces never
  /// rescan columns.
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
  mutable std::unique_ptr<SortedAttributeIndex> index_;
  mutable std::vector<std::vector<double>> sorted_columns_;
  mutable std::vector<double> marginal_means_;
  mutable std::vector<double> marginal_variances_;
  /// Pre-maintained orders adopted by EnsureRankArtifacts (consumed on
  /// first use); empty for the classic sort-on-demand path.
  mutable std::vector<std::vector<std::size_t>> pending_orders_;

  mutable std::once_flag ranges_once_;
  mutable std::vector<std::pair<double, double>> ranges_;

  mutable std::shared_ptr<ArtifactCache> cache_;
};

}  // namespace hics

#endif  // HICS_ENGINE_PREPARED_DATASET_H_
