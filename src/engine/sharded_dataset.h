#ifndef HICS_ENGINE_SHARDED_DATASET_H_
#define HICS_ENGINE_SHARDED_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "engine/prepared_dataset.h"
#include "engine/shard_plane.h"

namespace hics {

/// Derives the RNG seed of one (run seed, subspace, shard) Monte Carlo
/// stream of a plane with more than one shard: the per-subspace stream
/// derivation of the unsharded search, splitmix-advanced by the shard
/// ordinal. Every shard therefore draws from its own deterministic
/// stream — results depend only on (seed, subspace, shard ordinal),
/// never on which thread ran the shard or in which order shards
/// completed. A one-shard plane does not call it: its only shard draws
/// from the per-subspace stream itself, which is what makes it the
/// unsharded estimator (DESIGN.md §5i).
std::uint64_t ShardStreamSeed(std::uint64_t seed, std::uint64_t subspace_hash,
                              std::size_t shard);

/// Monte Carlo iterations shard `shard` runs when `total_iterations` (the
/// paper's M) are split across `num_shards` shards: M/S plus one of the
/// M%S remainder iterations for the lowest-ordinal shards, floored at 1 so
/// every shard contributes an estimate even when S > M. The split is what
/// makes the sharded search *faster* than the unsharded one — total slice
/// work drops to ~M*N/S rows per subspace — while the merged weighted
/// average stays an unbiased Monte Carlo contrast estimator with the same
/// total iteration budget.
std::size_t ShardIterations(std::size_t total_iterations,
                            std::size_t num_shards, std::size_t shard);

/// Row partition of a dataset into contiguous shards plus one
/// PreparedDataset artifact per shard, each with its own ArtifactCache —
/// the data plane of the sharded fit (DESIGN.md §5i).
///
/// Partitioning rule: shard s of S owns rows [s*N/S, (s+1)*N/S) (integer
/// arithmetic), so shard sizes differ by at most one row and the
/// assignment depends only on (N, S) — seed-stable, machine-stable, and
/// order-preserving (concatenating shard results in shard order restores
/// object-id order). The requested shard count is clamped to N/2 so every
/// shard keeps at least the two rows the contrast estimator needs;
/// `num_shards()` reports the effective count, which is the determinism
/// key for every sharded result.
///
/// Each shard's rows are copied into an owned column-major Dataset (a
/// PreparedDataset references its dataset rather than copying, so the
/// shard needs owned storage); the copies are built in parallel. The
/// per-shard rank artifacts stay lazy, exactly like PreparedDataset's —
/// the first sharded contrast pass builds them from its own shard-level
/// fan-out, so grid-only consumers never pay for D per-shard sorts.
///
/// Labels are not propagated to shards: shard datasets exist for
/// estimation, while evaluation (labels) stays a whole-dataset concern.
class ShardedDataset : public ShardPlane {
 public:
  /// Partitions `dataset` into (at most) `num_shards` contiguous shards.
  /// `build_threads` parallelizes the shard copies (and is forwarded to
  /// each shard's PreparedDataset for its lazy rank build); 0 = hardware
  /// concurrency. The partition and every per-shard artifact are
  /// identical for any value. `dataset` must outlive the ShardedDataset
  /// and must not be mutated while it exists (the PreparedDataset rule).
  ShardedDataset(const Dataset& dataset, std::size_t num_shards,
                 std::size_t build_threads = 1);

  ShardedDataset(const ShardedDataset&) = delete;
  ShardedDataset& operator=(const ShardedDataset&) = delete;

  /// Effective shard count after the N/2 clamp (>= 1).
  std::size_t num_shards() const override { return shards_.size(); }

  /// The full (unpartitioned) dataset.
  const Dataset& dataset() const override { return dataset_; }

  /// Shard `s`'s prepared artifact (its dataset is the owned row copy).
  const PreparedDataset& shard(std::size_t s) const override;

  /// First full-dataset row of shard `s`: (s * N) / num_shards().
  std::size_t shard_begin(std::size_t s) const override;

  /// Row count of shard `s`: shard_begin(s + 1) - shard_begin(s).
  std::size_t shard_size(std::size_t s) const override;

  /// (min, max) of attribute `attribute`'s finite values over the FULL
  /// dataset; (0, 0) when the column is empty or all-NaN — bit-identical
  /// to PreparedDataset::AttributeRange on the full dataset. This is the
  /// globally agreed range every per-shard SubspaceGrid bins against, so
  /// per-shard cell keys match the unsharded grid's and cell counts merge
  /// exactly. Computed by one memoized stats::RangeIgnoringNaN pass over
  /// the full columns (never by merging per-shard ranges: the (0, 0)
  /// all-NaN sentinel would be ambiguous with a real [0, 0] range).
  std::pair<double, double> GlobalAttributeRange(
      std::size_t attribute) const override;

 private:
  const Dataset& dataset_;
  std::vector<std::size_t> begins_;  // size num_shards() + 1
  std::vector<Dataset> shard_data_;  // owned row copies, shard order
  std::vector<std::unique_ptr<PreparedDataset>> shards_;

  mutable std::once_flag ranges_once_;
  mutable std::vector<std::pair<double, double>> ranges_;
};

}  // namespace hics

#endif  // HICS_ENGINE_SHARDED_DATASET_H_
