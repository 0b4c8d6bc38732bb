#ifndef HICS_ENGINE_STREAMING_DATASET_H_
#define HICS_ENGINE_STREAMING_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "engine/prepared_dataset.h"
#include "engine/shard_plane.h"

namespace hics {

/// Construction knobs of a StreamingDataset.
struct StreamingOptions {
  /// Maximum rows the window holds (> 0). Admissions beyond it evict the
  /// oldest rows.
  std::size_t capacity = 0;
  /// Requested shard count of the plane view; clamped to N/2 like
  /// ShardedDataset (so the effective count can grow while the window
  /// fills). 1 = unsharded window.
  std::size_t num_shards = 1;
  /// Parallelism of per-mutation rebuild work (order maintenance, slot
  /// row copies, lazy rank builds); 0 = hardware concurrency. Results
  /// are identical for any value.
  std::size_t build_threads = 1;
};

/// Sliding-window streaming data plane (DESIGN.md §5j): a fixed-capacity
/// row window that admits new rows at the tail and evicts expired rows
/// from the head, keeping the artifacts that survive a slide instead of
/// rebuilding everything per mutation.
///
/// Epoch protocol. Every successful mutation (Admit/Slide) advances a
/// monotonically increasing dataset epoch, stamps the rebuilt
/// PreparedDataset with it, and advances the window ArtifactCache to it —
/// which sweeps every artifact describing rows that no longer exist
/// (counted in ArtifactCacheStats::evicted_artifacts/invalidated_bytes).
/// A swept grid is re-binned on its next use, in one O(N) pass.
///
/// What stays incremental per slide:
///  - per-attribute sorted orders, when a consumer built the previous
///    epoch's window index (in practice, a one-shard window whose search
///    ran): survivors are compacted (their stable order is preserved
///    under id shift), the K admitted rows are sorted, and the two runs
///    are merged — O(N + K log K) per attribute instead of O(N log N),
///    landing on exactly the permutation std::stable_sort would produce
///    (ties break by ascending id; survivors hold the smaller ids, so a
///    merge that takes ties from the survivor run first reproduces the
///    cold order bit-for-bit). With no built index there is nothing to
///    merge from, and the new window's index sorts lazily on first use;
///  - shard slots: the plane partitions the window by the canonical
///    ShardedDataset rule (begin = s*N/S, clamped to N/2 shards), and a
///    slot whose row *contents* are unchanged by the slide — in steady
///    state, every block the slide did not cross — keeps its Dataset
///    copy, its PreparedDataset (lazy rank artifacts and all), and its
///    ArtifactCache untouched, so post-slide queries hit instead of
///    rebuild. Only slots whose rows changed are rebuilt, and their
///    recycled caches advance to the new epoch (retire/admit of whole
///    shards). A one-part partition keeps no slot: the window is its own
///    shard.
///
/// Byte-identity contract: after any sequence of slides, every consumer
/// of this plane — RunHicsSearch, RankWithSubspacesSharded,
/// ComputeContrastMatrix — produces output byte-identical to a cold
/// rebuild over the identical window (a fresh PreparedDataset when the
/// plane is unsharded, a fresh ShardedDataset at the same shard count
/// otherwise), at every thread count. The plane guarantees this by
/// construction: the partition rule, per-shard RNG streams (keyed by
/// shard ordinal), and merge order are shared with ShardedDataset through
/// the ShardPlane interface, a one-shard window is its own shard (the
/// unsharded estimator over the warm window cache), and every
/// incrementally maintained artifact reproduces its cold counterpart
/// bit-for-bit (tests/streaming_dataset_test.cc asserts it; CI gates on
/// `streaming_identical`).
///
/// Concurrency: queries (through prepared()/the ShardPlane view) are
/// thread-safe among themselves, but mutations require external
/// synchronization — no query may be in flight across an Admit/Slide
/// call. A failed mutation (fault injection, deadline, invalid rows)
/// leaves the window, the epoch, and every cache untouched: all probes
/// and validation run *before* the first byte moves, so the caller keeps
/// serving the previous window and nothing is poisoned.
class StreamingDataset : public ShardPlane {
 public:
  /// An empty window over `num_attributes` attributes. Epoch starts at 0
  /// (the static sentinel); the first mutation moves it to 1.
  StreamingDataset(std::size_t num_attributes, const StreamingOptions& options);
  ~StreamingDataset() override;

  StreamingDataset(const StreamingDataset&) = delete;
  StreamingDataset& operator=(const StreamingDataset&) = delete;

  /// Admits `rows` (row-major, each of size D, all values finite) at the
  /// tail, evicting from the head exactly as many rows as overflow the
  /// capacity. Returns the number of evicted rows. Epoch advances by 1.
  Result<std::size_t> Admit(const std::vector<std::vector<double>>& rows,
                            const RunContext* ctx = nullptr);

  /// Slides the window: evicts the `evict` oldest rows and admits `rows`
  /// at the tail. The post-slide row count must fit the capacity.
  /// Returns the number of evicted rows (= `evict`). Epoch advances by 1.
  ///
  /// Fault/cancellation contract: with a context, the deadline check and
  /// the fault sites "stream.slide" (ordinal = the epoch the slide would
  /// create) and "stream.slide.shard" (ordinal = changed-slot position
  /// + 1, probed for every slot the slide would rebuild; a slide that
  /// leaves one shard rebuilds none) all fire before any mutation, so a
  /// failed slide degrades — the window keeps serving its current epoch —
  /// and never poisons a cache.
  Result<std::size_t> Slide(std::size_t evict,
                            const std::vector<std::vector<double>>& rows,
                            const RunContext* ctx = nullptr);

  /// Current dataset epoch: 0 before any mutation, +1 per successful
  /// mutation.
  std::uint64_t epoch() const { return epoch_; }

  std::size_t size() const { return window_.num_objects(); }
  std::size_t capacity() const { return options_.capacity; }

  /// The window as a dataset (rows in admission order, oldest first).
  const Dataset& window() const { return window_; }

  /// The whole-window prepared artifact of the current epoch: the sorted
  /// index, sorted columns, moments (all built lazily), and the
  /// persistent epoch-managed window cache. Rebuilt on every mutation,
  /// adopting merged orders when the previous index was built.
  const PreparedDataset& prepared() const { return *window_prepared_; }

  // --- ShardPlane view (the sharded search/ranking substrate) ---
  // With one shard the window is its own shard: shard(0) is prepared(),
  // its content epoch is epoch(), and its cache is the window cache.
  std::size_t num_shards() const override;
  const Dataset& dataset() const override { return window_; }
  const PreparedDataset& shard(std::size_t s) const override;
  std::size_t shard_begin(std::size_t s) const override;
  std::size_t shard_size(std::size_t s) const override;
  std::pair<double, double> GlobalAttributeRange(
      std::size_t attribute) const override;

  /// Epoch at which shard slot `s` last changed contents — the proof
  /// handle for "a slide touching one shard rebuilds only that shard":
  /// untouched slots keep their content epoch (and their caches keep
  /// serving hits). A one-shard window changes on every mutation, so its
  /// shard's content epoch is epoch().
  std::uint64_t shard_content_epoch(std::size_t s) const;

  /// Cache statistics of the persistent window cache / shard slot `s`'s
  /// cache (the window cache when the window is its own shard). Slot
  /// caches are recycled when a slot is rebuilt, so their counters
  /// accumulate across rebuilds (evicted_artifacts records the
  /// invalidation).
  ArtifactCacheStats window_cache_stats() const { return window_cache_->stats(); }
  ArtifactCacheStats shard_cache_stats(std::size_t s) const;

 private:
  struct Slot;

  /// Validates rows/evict and probes every fault site; Status::OK means
  /// the mutation may proceed and cannot fail.
  Status PreflightMutation(std::size_t evict,
                           const std::vector<std::vector<double>>& rows,
                           const RunContext* ctx) const;

  /// Applies the mutation: window slide, order merge (when the previous
  /// index was built), range recompute, cache sweep, window artifact
  /// rebuild, slot reconciliation.
  void ApplyMutation(std::size_t evict,
                     const std::vector<std::vector<double>>& rows);

  /// Recomputes the slot partition for the current window and reconciles:
  /// content-matched slots are reused as-is, everything else is rebuilt
  /// (recycling dead slots' caches). A one-part partition drops every
  /// slot.
  void ReconcileSlots();

  /// Desired (start_serial, length) partition of the current window —
  /// the canonical ShardedDataset rule, in slot order.
  std::vector<std::pair<std::uint64_t, std::size_t>> DesiredPartition() const;

  StreamingOptions options_;
  Dataset window_;
  /// Stream serial number of window row 0 (= rows evicted since
  /// construction). Serial tags are what lets a surviving slot be
  /// recognized by content without comparing rows.
  std::uint64_t head_serial_ = 0;
  std::uint64_t epoch_ = 0;

  /// Per-attribute (min, max) of the current window, recomputed eagerly
  /// per mutation so concurrent readers never race a lazy fill.
  std::vector<std::pair<double, double>> ranges_;

  std::shared_ptr<ArtifactCache> window_cache_;
  std::unique_ptr<PreparedDataset> window_prepared_;

  /// Shard slots of a multi-shard partition; empty when the window is
  /// its own shard.
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace hics

#endif  // HICS_ENGINE_STREAMING_DATASET_H_
