#include "engine/prepared_dataset.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "stats/descriptive.h"

namespace hics {

namespace {

// Size models behind ApproxMemoryBytes (see the header doc): estimates
// of the dominant slabs, not allocator-exact accounting.
std::size_t KnnTableBytes(std::size_t num_objects, std::size_t k) {
  return num_objects * k * sizeof(Neighbor) +
         num_objects * sizeof(std::size_t);
}

std::size_t ScoresBytes(std::size_t num_objects) {
  return num_objects * sizeof(double);
}

}  // namespace

bool ArtifactCache::AdmitBytes(std::size_t bytes) {
  const std::size_t budget = byte_budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    approx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  // Charge-or-reject atomically: concurrent admissions from the per-kind
  // insert paths must not conspire to blow past the budget.
  std::size_t current = approx_bytes_.load(std::memory_order_relaxed);
  while (true) {
    if (bytes > budget || current > budget - bytes) return false;
    if (approx_bytes_.compare_exchange_weak(current, current + bytes,
                                            std::memory_order_relaxed)) {
      return true;
    }
  }
}

void ArtifactCache::AccountEviction(std::size_t bytes) {
  approx_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  evicted_artifacts_.fetch_add(1, std::memory_order_relaxed);
  invalidated_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void ArtifactCache::ReclaimToBudget(std::size_t budget) {
  // Deterministic reclaim order — cheapest-to-rebuild kinds first, each
  // kind in its map's ascending key order — so the surviving contents
  // after a budget drop are a pure function of (cache contents, budget),
  // never of timing. Every evicted artifact is a pure derivation of the
  // dataset; a later miss rebuilds identical bits.
  const auto over = [&] {
    return approx_bytes_.load(std::memory_order_relaxed) > budget;
  };
  {
    std::lock_guard<std::mutex> lock(score_mutex_);
    for (auto it = scores_.begin(); over() && it != scores_.end();) {
      AccountEviction(it->second.bytes);
      it = scores_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(knn_mutex_);
    for (auto it = knn_tables_.begin(); over() && it != knn_tables_.end();) {
      AccountEviction(it->second.bytes);
      it = knn_tables_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(grid_mutex_);
    for (auto it = grids_.begin(); over() && it != grids_.end();) {
      AccountEviction(it->second.bytes);
      it = grids_.erase(it);
    }
  }
  {
    std::lock_guard<std::mutex> lock(searcher_mutex_);
    for (auto it = searchers_.begin(); over() && it != searchers_.end();) {
      AccountEviction(it->second.bytes);
      it = searchers_.erase(it);
    }
  }
}

void ArtifactCache::SetByteBudget(std::size_t bytes) {
  byte_budget_.store(bytes, std::memory_order_relaxed);
  if (bytes != 0 &&
      approx_bytes_.load(std::memory_order_relaxed) > bytes) {
    ReclaimToBudget(bytes);
  }
}

std::size_t ArtifactCache::ApproxMemoryBytes() const {
  return approx_bytes_.load(std::memory_order_relaxed);
}

void ArtifactCache::AdvanceEpoch(std::uint64_t new_epoch,
                                 const GridCarryFn& carry) {
  const std::uint64_t old_epoch = epoch_.load(std::memory_order_relaxed);
  HICS_CHECK(new_epoch > old_epoch)
      << "epoch must advance monotonically: " << old_epoch << " -> "
      << new_epoch;
  epoch_.store(new_epoch, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(searcher_mutex_);
    for (auto it = searchers_.begin(); it != searchers_.end();) {
      if (it->second.epoch != new_epoch) {
        AccountEviction(it->second.bytes);
        it = searchers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(knn_mutex_);
    for (auto it = knn_tables_.begin(); it != knn_tables_.end();) {
      if (it->second.epoch != new_epoch) {
        AccountEviction(it->second.bytes);
        it = knn_tables_.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(score_mutex_);
    for (auto it = scores_.begin(); it != scores_.end();) {
      if (it->second.epoch != new_epoch) {
        AccountEviction(it->second.bytes);
        it = scores_.erase(it);
      } else {
        ++it;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(grid_mutex_);
    for (auto it = grids_.begin(); it != grids_.end();) {
      if (it->second.epoch == new_epoch) {
        ++it;
        continue;
      }
      if (carry) {
        std::size_t bytes = it->second.bytes;
        std::shared_ptr<const void> replacement =
            carry(it->first.first, it->first.second, it->second.value, &bytes);
        if (replacement) {
          // Carried forward: swap the value, restamp, and re-charge the
          // byte delta (the footprint can change when occupancy shifts a
          // sparse grid's cell population).
          approx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
          approx_bytes_.fetch_sub(it->second.bytes,
                                  std::memory_order_relaxed);
          it->second.value = std::move(replacement);
          it->second.epoch = new_epoch;
          it->second.bytes = bytes;
          ++it;
          continue;
        }
      }
      AccountEviction(it->second.bytes);
      it = grids_.erase(it);
    }
  }
}

std::shared_ptr<const NeighborSearcher> ArtifactCache::FindSearcherLocked(
    const SearcherKey& key, std::uint64_t now) {
  auto it = searchers_.find(key);
  if (it == searchers_.end()) return nullptr;
  if (it->second.epoch != now) {
    // Stale stamp (defense-in-depth; AdvanceEpoch normally sweeps):
    // evict so the caller rebuilds at the current epoch.
    AccountEviction(it->second.bytes);
    searchers_.erase(it);
    return nullptr;
  }
  searcher_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

std::shared_ptr<const NeighborSearcher> ArtifactCache::PublishSearcher(
    const Subspace& subspace, std::shared_ptr<const NeighborSearcher> built,
    std::uint64_t now) {
  const SearcherKey key{static_cast<int>(built->backend()), subspace};
  std::lock_guard<std::mutex> lock(searcher_mutex_);
  auto it = searchers_.find(key);
  if (it != searchers_.end()) return it->second.value;  // racing builder won
  const std::size_t bytes = built->MemoryBytes();
  if (!AdmitBytes(bytes)) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return built;  // identical bits, just not memoized
  }
  return searchers_
      .emplace(key, Entry<const NeighborSearcher>{std::move(built), now,
                                                  bytes})
      .first->second.value;
}

std::shared_ptr<const NeighborSearcher> ArtifactCache::GetSearcher(
    const Subspace& subspace, KnnBackend backend) {
  const std::uint64_t now = epoch();
  {
    std::lock_guard<std::mutex> lock(searcher_mutex_);
    if (auto hit = FindSearcherLocked({static_cast<int>(backend), subspace},
                                      now)) {
      return hit;
    }
  }
  searcher_misses_.fetch_add(1, std::memory_order_relaxed);
  // Build outside the lock: index construction is the expensive part and
  // must not serialize unrelated subspaces. A racing builder loses to the
  // first insert; both products are equivalent (identical query answers).
  return PublishSearcher(subspace, MakeSearcher(*dataset_, subspace, backend),
                         now);
}

std::shared_ptr<const KnnResultTable> ArtifactCache::GetKnnTable(
    const Subspace& subspace, std::size_t k, std::size_t num_threads) {
  const KnnKey key{k, subspace};
  const std::uint64_t now = epoch();
  {
    std::lock_guard<std::mutex> lock(knn_mutex_);
    auto it = knn_tables_.find(key);
    if (it != knn_tables_.end()) {
      if (it->second.epoch == now) {
        knn_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.value;
      }
      AccountEviction(it->second.bytes);
      knn_tables_.erase(it);
    }
  }
  knn_misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const NeighborSearcher> searcher;
  {
    // Every backend answers identically, so any searcher already cached
    // for the subspace serves; the tree is looked up first.
    std::lock_guard<std::mutex> lock(searcher_mutex_);
    for (KnnBackend cached : {KnnBackend::kKdTree, KnnBackend::kBruteForce}) {
      searcher = FindSearcherLocked({static_cast<int>(cached), subspace}, now);
      if (searcher) break;
    }
  }
  if (!searcher) {
    searcher_misses_.fetch_add(1, std::memory_order_relaxed);
    // Built outside the lock, like GetSearcher's.
    searcher = PublishSearcher(
        subspace, ResolveKnnSearcher(*dataset_, subspace, k), now);
  }
  auto table = std::make_shared<KnnResultTable>();
  searcher->QueryAllKnn(k, table.get(), num_threads);
  std::lock_guard<std::mutex> lock(knn_mutex_);
  auto it = knn_tables_.find(key);
  if (it != knn_tables_.end()) return it->second.value;
  const std::size_t bytes = KnnTableBytes(dataset_->num_objects(), k);
  if (!AdmitBytes(bytes)) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return table;
  }
  return knn_tables_
      .emplace(key, Entry<const KnnResultTable>{
                        std::shared_ptr<const KnnResultTable>(std::move(table)),
                        now, bytes})
      .first->second.value;
}

std::shared_ptr<const std::vector<double>> ArtifactCache::FindScores(
    const std::string& scorer_key, const Subspace& subspace) {
  HICS_DCHECK(!scorer_key.empty());
  const std::uint64_t now = epoch();
  std::lock_guard<std::mutex> lock(score_mutex_);
  auto it = scores_.find(ScoreKey{scorer_key, subspace});
  if (it != scores_.end() && it->second.epoch != now) {
    AccountEviction(it->second.bytes);
    scores_.erase(it);
    it = scores_.end();
  }
  if (it == scores_.end()) {
    score_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  score_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

std::shared_ptr<const std::vector<double>> ArtifactCache::InsertScores(
    const std::string& scorer_key, const Subspace& subspace,
    std::vector<double> scores) {
  HICS_DCHECK(!scorer_key.empty());
  // A score vector covers every object or it is not a score vector: a
  // partial result (scorer interrupted mid-pass, deadline racing the
  // insert) must never become the canonical cache entry, because later
  // hits would serve it as if it were complete.
  HICS_CHECK_EQ(scores.size(), dataset_->num_objects());
  auto entry =
      std::make_shared<const std::vector<double>>(std::move(scores));
  const std::uint64_t now = epoch();
  std::lock_guard<std::mutex> lock(score_mutex_);
  const ScoreKey key{scorer_key, subspace};
  auto it = scores_.find(key);
  if (it != scores_.end()) return it->second.value;
  const std::size_t bytes = ScoresBytes(dataset_->num_objects());
  if (!AdmitBytes(bytes)) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }
  return scores_
      .emplace(key, Entry<const std::vector<double>>{std::move(entry), now,
                                                     bytes})
      .first->second.value;
}

std::shared_ptr<const void> ArtifactCache::FindGridErased(
    const std::string& grid_key, const Subspace& subspace) {
  HICS_DCHECK(!grid_key.empty());
  const std::uint64_t now = epoch();
  std::lock_guard<std::mutex> lock(grid_mutex_);
  auto it = grids_.find(GridKey{grid_key, subspace});
  if (it != grids_.end() && it->second.epoch != now) {
    AccountEviction(it->second.bytes);
    grids_.erase(it);
    it = grids_.end();
  }
  if (it == grids_.end()) {
    grid_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  grid_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

std::shared_ptr<const void> ArtifactCache::InsertGridErased(
    const std::string& grid_key, const Subspace& subspace,
    std::shared_ptr<const void> grid, std::size_t bytes) {
  HICS_DCHECK(!grid_key.empty());
  HICS_CHECK(grid != nullptr);
  const std::uint64_t now = epoch();
  std::lock_guard<std::mutex> lock(grid_mutex_);
  const GridKey key{grid_key, subspace};
  auto it = grids_.find(key);
  if (it != grids_.end()) return it->second.value;
  if (!AdmitBytes(bytes)) {
    budget_rejections_.fetch_add(1, std::memory_order_relaxed);
    return grid;
  }
  return grids_.emplace(key, Entry<const void>{std::move(grid), now, bytes})
      .first->second.value;
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.searcher_hits = searcher_hits_.load(std::memory_order_relaxed);
  s.searcher_misses = searcher_misses_.load(std::memory_order_relaxed);
  s.knn_table_hits = knn_hits_.load(std::memory_order_relaxed);
  s.knn_table_misses = knn_misses_.load(std::memory_order_relaxed);
  s.score_hits = score_hits_.load(std::memory_order_relaxed);
  s.score_misses = score_misses_.load(std::memory_order_relaxed);
  s.grid_hits = grid_hits_.load(std::memory_order_relaxed);
  s.grid_misses = grid_misses_.load(std::memory_order_relaxed);
  s.approx_bytes = approx_bytes_.load(std::memory_order_relaxed);
  s.budget_rejections =
      budget_rejections_.load(std::memory_order_relaxed);
  s.evicted_artifacts =
      evicted_artifacts_.load(std::memory_order_relaxed);
  s.invalidated_bytes =
      invalidated_bytes_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ArtifactCache::num_searchers() const {
  std::lock_guard<std::mutex> lock(searcher_mutex_);
  return searchers_.size();
}

std::size_t ArtifactCache::num_knn_tables() const {
  std::lock_guard<std::mutex> lock(knn_mutex_);
  return knn_tables_.size();
}

std::size_t ArtifactCache::num_score_vectors() const {
  std::lock_guard<std::mutex> lock(score_mutex_);
  return scores_.size();
}

std::size_t ArtifactCache::num_grids() const {
  std::lock_guard<std::mutex> lock(grid_mutex_);
  return grids_.size();
}

PreparedDataset::PreparedDataset(const Dataset& dataset,
                                 PreparedDatasetOptions options)
    : dataset_(dataset),
      build_threads_(options.build_threads),
      epoch_(options.epoch),
      pending_orders_(std::move(options.sorted_orders)),
      cache_(options.cache ? std::move(options.cache)
                           : std::make_shared<ArtifactCache>(dataset)) {
  if (!pending_orders_.empty()) {
    HICS_CHECK_EQ(pending_orders_.size(), dataset_.num_attributes());
  }
}

void PreparedDataset::EnsureRankArtifacts() const {
  std::call_once(rank_artifacts_once_, [this] {
    if (!pending_orders_.empty()) {
      // Adopt the caller-maintained orders (the streaming plane's
      // incremental merge product, bit-identical to a stable sort by
      // contract) instead of re-sorting.
      index_ = std::make_unique<SortedAttributeIndex>(
          dataset_.num_objects(), std::move(pending_orders_));
      pending_orders_.clear();
    } else {
      index_ =
          std::make_unique<SortedAttributeIndex>(dataset_, build_threads_);
    }
    const std::size_t d = dataset_.num_attributes();
    sorted_columns_.reserve(d);
    marginal_means_.reserve(d);
    marginal_variances_.reserve(d);
    for (std::size_t a = 0; a < d; ++a) {
      const std::vector<double>& column = dataset_.Column(a);
      std::vector<double> sorted;
      sorted.reserve(column.size());
      for (std::size_t id : index_->SortedOrder(a)) {
        sorted.push_back(column[id]);
      }
      // Moments over the *sorted* column, matching the summation order the
      // gather+sort reference contrast uses per iteration (DESIGN.md §5d).
      marginal_means_.push_back(stats::Mean(sorted));
      marginal_variances_.push_back(stats::SampleVariance(sorted));
      sorted_columns_.push_back(std::move(sorted));
    }
    rank_artifacts_ready_.store(true, std::memory_order_release);
  });
}

std::pair<double, double> PreparedDataset::AttributeRange(
    std::size_t attribute) const {
  std::call_once(ranges_once_, [this] {
    const std::size_t d = dataset_.num_attributes();
    attr_min_.resize(d);
    attr_max_.resize(d);
    // When the sorted columns already exist, the range is their ends —
    // no data scan. Never *trigger* the rank build for ranges alone: a
    // min/max pass is far cheaper than d sorts.
    const bool use_sorted =
        rank_artifacts_ready_.load(std::memory_order_acquire);
    for (std::size_t a = 0; a < d; ++a) {
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      if (use_sorted) {
        const std::vector<double>& sorted = sorted_columns_[a];
        std::size_t b = 0;
        std::size_t e = sorted.size();
        while (b < e && !(sorted[b] == sorted[b])) ++b;
        while (e > b && !(sorted[e - 1] == sorted[e - 1])) --e;
        if (b < e) {
          mn = sorted[b];
          mx = sorted[e - 1];
        }
      } else {
        for (double v : dataset_.Column(a)) {
          if (!(v == v)) continue;
          if (v < mn) mn = v;
          if (v > mx) mx = v;
        }
      }
      if (!(mn <= mx)) {
        mn = 0.0;
        mx = 0.0;
      }
      attr_min_[a] = mn;
      attr_max_[a] = mx;
    }
  });
  HICS_DCHECK(attribute < attr_min_.size());
  return {attr_min_[attribute], attr_max_[attribute]};
}

const SortedAttributeIndex& PreparedDataset::sorted_index() const {
  EnsureRankArtifacts();
  return *index_;
}

std::span<const double> PreparedDataset::SortedColumn(
    std::size_t attribute) const {
  EnsureRankArtifacts();
  HICS_DCHECK(attribute < sorted_columns_.size());
  return sorted_columns_[attribute];
}

double PreparedDataset::MarginalMean(std::size_t attribute) const {
  EnsureRankArtifacts();
  HICS_DCHECK(attribute < marginal_means_.size());
  return marginal_means_[attribute];
}

double PreparedDataset::MarginalVariance(std::size_t attribute) const {
  EnsureRankArtifacts();
  HICS_DCHECK(attribute < marginal_variances_.size());
  return marginal_variances_[attribute];
}

}  // namespace hics
