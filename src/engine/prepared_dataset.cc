#include "engine/prepared_dataset.h"

#include <utility>

#include "common/check.h"
#include "stats/descriptive.h"

namespace hics {

namespace {

// Size model behind ApproxMemoryBytes (see the header doc): an estimate
// of the dominant slab, not allocator-exact accounting.
std::size_t ScoresBytes(std::size_t num_objects) {
  return num_objects * sizeof(double);
}

}  // namespace

bool ArtifactCache::Ledger::Admit(std::size_t bytes) {
  const std::size_t budget = byte_budget.load(std::memory_order_relaxed);
  if (budget == 0) {
    approx_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  // Charge-or-reject atomically: concurrent admissions from the per-kind
  // shelves must not conspire to blow past the budget.
  std::size_t current = approx_bytes.load(std::memory_order_relaxed);
  while (true) {
    if (bytes > budget || current > budget - bytes) return false;
    if (approx_bytes.compare_exchange_weak(current, current + bytes,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
}

void ArtifactCache::Ledger::Evict(std::size_t bytes) {
  approx_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  evicted_artifacts.fetch_add(1, std::memory_order_relaxed);
  invalidated_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void ArtifactCache::SetByteBudget(std::size_t bytes) {
  ledger_.byte_budget.store(bytes, std::memory_order_relaxed);
  if (bytes == 0 || !ledger_.Over(bytes)) return;
  // Deterministic reclaim order — cheapest-to-rebuild kinds first, each
  // kind in its map's ascending key order — so the surviving contents
  // after a budget drop are a pure function of (cache contents, budget),
  // never of timing. Every evicted artifact is a pure derivation of the
  // dataset; a later miss rebuilds identical bits.
  scores_.Reclaim(bytes);
  grids_.Reclaim(bytes);
  searchers_.Reclaim(bytes);
}

void ArtifactCache::AdvanceEpoch(std::uint64_t new_epoch) {
  const std::uint64_t old_epoch = epoch_.load(std::memory_order_relaxed);
  HICS_CHECK(new_epoch > old_epoch)
      << "epoch must advance monotonically: " << old_epoch << " -> "
      << new_epoch;
  epoch_.store(new_epoch, std::memory_order_release);
  searchers_.Sweep(new_epoch);
  scores_.Sweep(new_epoch);
  grids_.Sweep(new_epoch);
}

std::shared_ptr<const NeighborSearcher> ArtifactCache::GetSearcher(
    const Subspace& subspace, KnnBackend backend) {
  const std::uint64_t now = epoch();
  if (auto hit = searchers_.Find({static_cast<int>(backend), subspace}, now)) {
    return hit;
  }
  searchers_.Miss();
  // Build outside the lock: index construction is the expensive part and
  // must not serialize unrelated subspaces. A racing builder loses to the
  // first insert; both products are equivalent (identical query answers).
  std::shared_ptr<const NeighborSearcher> built =
      MakeSearcher(*dataset_, subspace, backend);
  const SearcherKey key{static_cast<int>(built->backend()), subspace};
  const std::size_t bytes = built->MemoryBytes();
  return searchers_.Publish(key, std::move(built), bytes, now);
}

KnnResultTable ArtifactCache::ComputeKnnTable(const Subspace& subspace,
                                              std::size_t k,
                                              std::size_t num_threads) {
  knn_tables_computed_.fetch_add(1, std::memory_order_relaxed);
  // Every backend answers identically, so any searcher already cached for
  // the subspace serves; the tree is looked up first.
  const std::uint64_t now = epoch();
  std::shared_ptr<const NeighborSearcher> searcher;
  for (KnnBackend cached : {KnnBackend::kKdTree, KnnBackend::kBruteForce}) {
    searcher = searchers_.Find({static_cast<int>(cached), subspace}, now);
    if (searcher) break;
  }
  if (!searcher) {
    searchers_.Miss();
    // Built outside any lock and not shelved: nothing reads it after this
    // call, so it dies here instead of pinning one index per ranked
    // subspace.
    searcher = ResolveKnnSearcher(*dataset_, subspace, k);
  }
  KnnResultTable table;
  searcher->QueryAllKnn(k, &table, num_threads);
  return table;
}

std::shared_ptr<const std::vector<double>> ArtifactCache::FindScores(
    const std::string& scorer_key, const Subspace& subspace) {
  HICS_DCHECK(!scorer_key.empty());
  auto hit = scores_.Find({scorer_key, subspace}, epoch());
  if (!hit) scores_.Miss();
  return hit;
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
  return scores_.Publish(
      {scorer_key, subspace},
      std::make_shared<const std::vector<double>>(std::move(scores)),
      ScoresBytes(dataset_->num_objects()), epoch());
}

std::shared_ptr<const SubspaceGrid> ArtifactCache::FindGrid(
    const std::string& grid_key, const Subspace& subspace) {
  HICS_DCHECK(!grid_key.empty());
  auto hit = grids_.Find({grid_key, subspace}, epoch());
  if (!hit) grids_.Miss();
  return hit;
}

std::shared_ptr<const SubspaceGrid> ArtifactCache::InsertGrid(
    const std::string& grid_key, const Subspace& subspace,
    std::shared_ptr<const SubspaceGrid> grid, std::size_t bytes) {
  HICS_DCHECK(!grid_key.empty());
  HICS_CHECK(grid != nullptr);
  return grids_.Publish({grid_key, subspace}, std::move(grid), bytes, epoch());
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.searcher_hits = searchers_.hits();
  s.searcher_misses = searchers_.misses();
  s.knn_table_misses = knn_tables_computed_.load(std::memory_order_relaxed);
  s.score_hits = scores_.hits();
  s.score_misses = scores_.misses();
  s.grid_hits = grids_.hits();
  s.grid_misses = grids_.misses();
  s.approx_bytes = ledger_.approx_bytes.load(std::memory_order_relaxed);
  s.budget_rejections =
      ledger_.budget_rejections.load(std::memory_order_relaxed);
  s.evicted_artifacts =
      ledger_.evicted_artifacts.load(std::memory_order_relaxed);
  s.invalidated_bytes =
      ledger_.invalidated_bytes.load(std::memory_order_relaxed);
  return s;
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
  });
}

const PreparedDataset& PreparedDataset::shard(std::size_t s) const {
  HICS_CHECK_EQ(s, 0u);
  return *this;
}

std::size_t PreparedDataset::shard_begin(std::size_t s) const {
  HICS_CHECK_EQ(s, 0u);
  return 0;
}

std::size_t PreparedDataset::shard_size(std::size_t s) const {
  HICS_CHECK_EQ(s, 0u);
  return dataset_.num_objects();
}

std::pair<double, double> PreparedDataset::AttributeRange(
    std::size_t attribute) const {
  HICS_CHECK(attribute < dataset_.num_attributes());
  // One scan per column, never the sorted columns' ends: a range must not
  // force the rank build (grid-only consumers never sort), and the rank
  // build puts NaNs last, so the sorted ends are not the finite extremes.
  std::call_once(ranges_once_, [this] {
    ranges_.reserve(dataset_.num_attributes());
    for (std::size_t a = 0; a < dataset_.num_attributes(); ++a) {
      ranges_.push_back(stats::RangeIgnoringNaN(dataset_.Column(a)));
    }
  });
  return ranges_[attribute];
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
