#include "engine/streaming_dataset.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "index/sorted_index.h"
#include "stats/descriptive.h"

namespace hics {

/// One shard slot of the plane: an owned row copy, its prepared artifact,
/// and its artifact cache, tagged by the stream serial of its first row.
/// Content identity is (start_serial, length) — serials never repeat, so
/// two slots with equal tags hold byte-identical rows and a surviving
/// slot's artifacts stay valid without any row comparison.
struct StreamingDataset::Slot {
  std::uint64_t start_serial = 0;
  std::size_t length = 0;
  std::unique_ptr<Dataset> data;
  std::shared_ptr<ArtifactCache> cache;
  std::unique_ptr<PreparedDataset> prepared;
  std::uint64_t content_epoch = 0;
};

namespace {

/// The canonical contiguous partition (ShardedDataset's rule) of a window
/// of `n` rows starting at stream serial `head`, as (start_serial, length)
/// slot tags. Depends only on (head, n, requested) — recomputable for a
/// hypothetical post-slide state before any mutation happens.
std::vector<std::pair<std::uint64_t, std::size_t>> PartitionFor(
    std::uint64_t head, std::size_t n, std::size_t requested) {
  const std::size_t max_shards = std::max<std::size_t>(1, n / 2);
  const std::size_t effective = std::min(std::max<std::size_t>(1, requested),
                                         max_shards);
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  out.reserve(effective);
  for (std::size_t s = 0; s < effective; ++s) {
    const std::size_t lo = (s * n) / effective;
    const std::size_t hi = ((s + 1) * n) / effective;
    out.emplace_back(head + lo, hi - lo);
  }
  return out;
}

}  // namespace

StreamingDataset::StreamingDataset(std::size_t num_attributes,
                                   const StreamingOptions& options)
    : options_(options), window_(0, num_attributes) {
  HICS_CHECK(options_.capacity > 0) << "streaming window capacity must be > 0";
  HICS_CHECK(num_attributes > 0);
  if (options_.num_shards == 0) options_.num_shards = 1;
  ranges_.assign(num_attributes, {0.0, 0.0});
  window_cache_ = std::make_shared<ArtifactCache>(window_);
  PreparedDatasetOptions prep;
  prep.build_threads = options_.build_threads;
  prep.cache = window_cache_;
  prep.epoch = epoch_;
  window_prepared_ = std::make_unique<PreparedDataset>(window_, std::move(prep));
  ReconcileSlots();
}

StreamingDataset::~StreamingDataset() = default;

Result<std::size_t> StreamingDataset::Admit(
    const std::vector<std::vector<double>>& rows, const RunContext* ctx) {
  if (rows.size() > options_.capacity) {
    return Status::InvalidArgument(
        "admitting " + std::to_string(rows.size()) +
        " rows exceeds the window capacity (" +
        std::to_string(options_.capacity) + ")");
  }
  const std::size_t incoming = size() + rows.size();
  const std::size_t evict =
      incoming > options_.capacity ? incoming - options_.capacity : 0;
  return Slide(evict, rows, ctx);
}

Result<std::size_t> StreamingDataset::Slide(
    std::size_t evict, const std::vector<std::vector<double>>& rows,
    const RunContext* ctx) {
  if (evict == 0 && rows.empty()) return std::size_t{0};  // no-op, no epoch
  Status preflight = PreflightMutation(evict, rows, ctx);
  if (!preflight.ok()) return preflight;
  ApplyMutation(evict, rows);
  return evict;
}

Status StreamingDataset::PreflightMutation(
    std::size_t evict, const std::vector<std::vector<double>>& rows,
    const RunContext* ctx) const {
  const std::size_t d = window_.num_attributes();
  if (evict > size()) {
    return Status::InvalidArgument(
        "cannot evict " + std::to_string(evict) + " of " +
        std::to_string(size()) + " window rows");
  }
  const std::size_t new_n = size() - evict + rows.size();
  if (new_n > options_.capacity) {
    return Status::InvalidArgument(
        "slide would leave " + std::to_string(new_n) +
        " rows in a window of capacity " + std::to_string(options_.capacity));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != d) {
      return Status::InvalidArgument(
          "admitted row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values; expected " +
          std::to_string(d));
    }
    for (std::size_t j = 0; j < d; ++j) {
      if (!std::isfinite(rows[i][j])) {
        return Status::InvalidArgument(
            "non-finite value in admitted row " + std::to_string(i) +
            ", column " + std::to_string(j));
      }
    }
  }
  if (ctx != nullptr) {
    Status progress = ctx->CheckProgress();
    if (!progress.ok()) return progress;
    Status slide = ctx->InjectFault("stream.slide", epoch_ + 1);
    if (!slide.ok()) return slide;
    // Probe per-slot faults for exactly the slots this slide would
    // rebuild — the simulated reconciliation against the post-slide
    // partition, run before a single byte moves, so a failed shard
    // rebuild degrades (the old window keeps serving) instead of
    // poisoning a half-mutated plane.
    const std::vector<std::pair<std::uint64_t, std::size_t>> desired =
        PartitionFor(head_serial_ + evict, new_n, options_.num_shards);
    // A slide that leaves one shard rebuilds no slot (the window is its
    // own shard), so it probes none.
    if (desired.size() == 1) return Status::OK();
    std::map<std::pair<std::uint64_t, std::size_t>, bool> current;
    for (const auto& slot : slots_) {
      current[{slot->start_serial, slot->length}] = true;
    }
    for (std::size_t s = 0; s < desired.size(); ++s) {
      if (current.count(desired[s]) != 0) continue;
      Status shard = ctx->InjectFault("stream.slide.shard", s + 1);
      if (!shard.ok()) return shard;
    }
  }
  return Status::OK();
}

void StreamingDataset::ApplyMutation(
    std::size_t evict, const std::vector<std::vector<double>>& rows) {
  const std::size_t d = window_.num_attributes();
  const std::size_t old_n = size();

  // The previous epoch's sorted index, only if a consumer built it: its
  // orders seed the merge below. Nothing here builds one, so a window
  // whose queries never sort it (every multi-shard window reads only its
  // slots) pays no whole-window sort or merge. No query runs across a
  // mutation, so reading the lazily built index is race-free.
  const SortedAttributeIndex* old_index =
      window_prepared_->built_sorted_index();

  window_.SlideWindow(evict, rows);
  head_serial_ += evict;
  ++epoch_;
  const std::size_t new_n = window_.num_objects();
  HICS_CHECK_EQ(new_n, old_n - evict + rows.size());

  // Per-attribute maintenance in one parallel pass: the sorted order
  // (compact the survivors, sort the admitted run, merge — the
  // permutation a cold SortedAttributeIndex builds over the new window)
  // when there is an old index to merge from, and the (min, max) range —
  // the helper ShardedDataset::GlobalAttributeRange and
  // PreparedDataset::AttributeRange use, recomputed eagerly so readers
  // of the new epoch never race a lazy fill.
  std::vector<std::vector<std::size_t>> orders(old_index != nullptr ? d : 0);
  ParallelFor(0, d, options_.build_threads, [&](std::size_t a) {
    const std::vector<double>& col = window_.Column(a);
    if (old_index != nullptr) {
      orders[a] = SlideSortedOrder(col, old_index->SortedOrder(a), evict);
    }
    ranges_[a] = stats::RangeIgnoringNaN(col);
  });

  // Advance the persistent window cache: every artifact describes rows
  // that changed, so all of them are swept.
  window_cache_->AdvanceEpoch(epoch_);

  // Rebuild the window's prepared artifact at the new epoch. Cheap: the
  // merged orders are adopted (or, with none, sorted lazily on first
  // use), sorted columns and moments derive lazily, and the cache
  // persists.
  PreparedDatasetOptions prep;
  prep.build_threads = options_.build_threads;
  prep.cache = window_cache_;
  prep.epoch = epoch_;
  prep.sorted_orders = std::move(orders);
  window_prepared_ =
      std::make_unique<PreparedDataset>(window_, std::move(prep));

  ReconcileSlots();
}

std::vector<std::pair<std::uint64_t, std::size_t>>
StreamingDataset::DesiredPartition() const {
  return PartitionFor(head_serial_, size(), options_.num_shards);
}

void StreamingDataset::ReconcileSlots() {
  const std::vector<std::pair<std::uint64_t, std::size_t>> desired =
      DesiredPartition();
  // One part: the window is its own shard (shard(0) is prepared()), so
  // there is no slot, no row copy and no second prepared artifact.
  if (desired.size() == 1) {
    slots_.clear();
    return;
  }

  // Pull every current slot into a content-keyed pool; desired positions
  // that match reuse the slot (dataset copy, prepared artifact, cache —
  // artifacts keep serving hits), everything else is rebuilt. Serials
  // never repeat, so a content match is exact.
  std::map<std::pair<std::uint64_t, std::size_t>, std::unique_ptr<Slot>> pool;
  for (auto& slot : slots_) {
    pool.emplace(std::make_pair(slot->start_serial, slot->length),
                 std::move(slot));
  }
  slots_.clear();
  slots_.resize(desired.size());
  std::vector<std::size_t> rebuild;
  for (std::size_t s = 0; s < desired.size(); ++s) {
    auto it = pool.find(desired[s]);
    if (it != pool.end() && it->second != nullptr) {
      slots_[s] = std::move(it->second);
      pool.erase(it);
    } else {
      rebuild.push_back(s);
    }
  }

  // Dead slots donate their caches to rebuilt positions (ascending pool
  // order to ascending position order — deterministic). A recycled cache
  // advances to the current epoch, sweeping every artifact of the retired
  // shard's rows into the eviction stats, then rebinds to the new rows.
  std::vector<std::shared_ptr<ArtifactCache>> recycled;
  for (auto& [key, slot] : pool) {
    if (slot != nullptr && slot->cache != nullptr) {
      recycled.push_back(std::move(slot->cache));
    }
  }
  pool.clear();

  for (std::size_t r = 0; r < rebuild.size(); ++r) {
    const std::size_t s = rebuild[r];
    auto slot = std::make_unique<Slot>();
    slot->start_serial = desired[s].first;
    slot->length = desired[s].second;
    slot->data = std::make_unique<Dataset>();
    slot->content_epoch = epoch_;
    if (r < recycled.size()) slot->cache = std::move(recycled[r]);
    slots_[s] = std::move(slot);
  }

  // Row copies are independent; build them in parallel like
  // ShardedDataset does. Contents depend only on the partition, never on
  // build_threads.
  ParallelFor(0, rebuild.size(), options_.build_threads, [&](std::size_t r) {
    Slot& slot = *slots_[rebuild[r]];
    const std::size_t lo =
        static_cast<std::size_t>(slot.start_serial - head_serial_);
    const std::size_t hi = lo + slot.length;
    const std::size_t d = window_.num_attributes();
    std::vector<std::vector<double>> columns(d);
    for (std::size_t a = 0; a < d; ++a) {
      const std::vector<double>& col = window_.Column(a);
      columns[a].assign(col.begin() + static_cast<std::ptrdiff_t>(lo),
                        col.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    Result<Dataset> built = Dataset::FromColumns(std::move(columns));
    HICS_CHECK(built.ok());
    *slot.data = std::move(built).ValueOrDie();
  });

  for (std::size_t s : rebuild) {
    Slot& slot = *slots_[s];
    if (slot.cache != nullptr) {
      // Recycled: retire the old shard's artifacts (counted as
      // evictions), then admit the new rows. The cache's epoch may lag
      // when it sat dead across epochs; AdvanceEpoch is monotonic, which
      // a donated cache always satisfies (its content epoch < now).
      slot.cache->AdvanceEpoch(epoch_);
      slot.cache->RebindDataset(*slot.data);
    } else {
      slot.cache = std::make_shared<ArtifactCache>(*slot.data);
      if (epoch_ > 0) slot.cache->AdvanceEpoch(epoch_);
    }
    PreparedDatasetOptions prep;
    prep.build_threads = options_.build_threads;
    prep.cache = slot.cache;
    prep.epoch = epoch_;
    slot.prepared = std::make_unique<PreparedDataset>(*slot.data,
                                                      std::move(prep));
  }
}

std::size_t StreamingDataset::num_shards() const {
  return slots_.empty() ? 1 : slots_.size();
}

const PreparedDataset& StreamingDataset::shard(std::size_t s) const {
  HICS_CHECK(s < num_shards());
  return slots_.empty() ? *window_prepared_ : *slots_[s]->prepared;
}

std::size_t StreamingDataset::shard_begin(std::size_t s) const {
  HICS_CHECK(s < num_shards());
  return slots_.empty() ? 0
                        : static_cast<std::size_t>(slots_[s]->start_serial -
                                                   head_serial_);
}

std::size_t StreamingDataset::shard_size(std::size_t s) const {
  HICS_CHECK(s < num_shards());
  return slots_.empty() ? size() : slots_[s]->length;
}

std::pair<double, double> StreamingDataset::GlobalAttributeRange(
    std::size_t attribute) const {
  HICS_CHECK(attribute < ranges_.size());
  return ranges_[attribute];
}

std::uint64_t StreamingDataset::shard_content_epoch(std::size_t s) const {
  HICS_CHECK(s < num_shards());
  return slots_.empty() ? epoch_ : slots_[s]->content_epoch;
}

ArtifactCacheStats StreamingDataset::shard_cache_stats(std::size_t s) const {
  HICS_CHECK(s < num_shards());
  return slots_.empty() ? window_cache_->stats() : slots_[s]->cache->stats();
}

}  // namespace hics
