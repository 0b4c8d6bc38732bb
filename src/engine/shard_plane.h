#ifndef HICS_ENGINE_SHARD_PLANE_H_
#define HICS_ENGINE_SHARD_PLANE_H_

#include <cstddef>
#include <utility>

#include "common/dataset.h"

namespace hics {

class PreparedDataset;  // engine/prepared_dataset.h; it is a ShardPlane

/// Abstract row-partitioned data plane: what the search (RunHicsSearch),
/// the contrast matrix, and sharded ranking actually consume. Three
/// implementations exist — PreparedDataset, its own single shard; the
/// static ShardedDataset (DESIGN.md §5i); and the sliding-window
/// StreamingDataset (§5j) — and because all of them feed the *same*
/// level scorer and ranking loop through this interface, results
/// depend only on the rows and the effective shard count, never on
/// which plane holds them: a one-shard plane is the unsharded estimator,
/// and a streaming window and a cold ShardedDataset over identical rows
/// produce byte-identical results by construction rather than by
/// parallel maintenance of several code paths.
///
/// Contract (what the consumers rely on):
///  - shard s covers the contiguous full-dataset rows
///    [shard_begin(s), shard_begin(s) + shard_size(s)), partitioned by
///    the canonical rule begin = (s * N) / num_shards(), so concatenating
///    per-shard results in shard order restores object-id order;
///  - num_shards() >= 1, and with more than one shard every shard holds
///    >= 2 rows (the contrast estimator's two-sample floor) —
///    implementations clamp to max(1, N/2);
///  - shard(s) is the shard's prepared artifact (a PreparedDataset is its
///    own shard 0); its lazily built rank artifacts and cache entries
///    depend only on the shard's row *contents*, never on the shard's
///    ordinal;
///  - GlobalAttributeRange returns the (min, max) over the FULL dataset
///    (the range every per-shard SubspaceGrid bins against so cell keys
///    merge exactly), with the (0, 0) all-NaN/empty sentinel.
class ShardPlane {
 public:
  virtual ~ShardPlane() = default;

  /// Effective shard count after any clamping (>= 1).
  virtual std::size_t num_shards() const = 0;

  /// The full (unpartitioned) dataset the plane is a view of.
  virtual const Dataset& dataset() const = 0;

  /// Shard `s`'s prepared artifact.
  virtual const PreparedDataset& shard(std::size_t s) const = 0;

  /// First full-dataset row of shard `s`.
  virtual std::size_t shard_begin(std::size_t s) const = 0;

  /// Row count of shard `s`.
  virtual std::size_t shard_size(std::size_t s) const = 0;

  /// (min, max) of the attribute's finite values over the FULL dataset;
  /// (0, 0) when the column is empty or all-NaN.
  virtual std::pair<double, double> GlobalAttributeRange(
      std::size_t attribute) const = 0;

  std::size_t num_objects() const { return dataset().num_objects(); }
  std::size_t num_attributes() const { return dataset().num_attributes(); }
};

}  // namespace hics

#endif  // HICS_ENGINE_SHARD_PLANE_H_
