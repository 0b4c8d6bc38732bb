#ifndef HICS_CLUSTER_GRID_H_
#define HICS_CLUSTER_GRID_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/subspace.h"

namespace hics {

class PreparedDataset;  // engine/prepared_dataset.h (range memoization)

/// Build options for SubspaceGrid. Every field except `bins_per_dim` is a
/// pure performance / layout knob: the observable grid (cell keys, counts,
/// entropy, coverage) is identical for any setting.
struct GridOptions {
  /// Dense cells arrays above this many nominal cells would dominate the
  /// build; 2^22 cells is a 16 MiB count array — past the point where the
  /// hash map of *occupied* cells (bounded by N) is the better layout.
  static constexpr std::size_t kDefaultDenseCellCap = std::size_t{1} << 22;

  std::size_t bins_per_dim = 16;

  /// Parallelism of the binning pass (1 = serial, 0 = hardware
  /// concurrency). Cell counts are exact integer sums, so the grid is
  /// bit-identical for every value.
  std::size_t num_threads = 1;

  /// Retain the per-point cell keys (point_keys()). The density scorer
  /// needs them for its O(N) per-point occupancy gather; entropy-only
  /// consumers (Enclus) skip the 8N-byte retention.
  bool keep_point_keys = false;

  /// Cells live in a flat count array when bins^|S| <= dense_cell_cap and
  /// in a hash map of occupied cells above it. Exposed so tests can force
  /// the sparse path on small grids; results are identical either way.
  std::size_t dense_cell_cap = kDefaultDenseCellCap;
};

/// True when bins^dims overflows 64 bits, in which case cell keys are
/// splitmix-hashed per axis instead of mixed-radix (collisions are
/// possible but need ~2^32 occupied cells to become likely — far beyond
/// any N this library handles in memory).
bool GridKeysHashed(std::size_t bins_per_dim, std::size_t dims);

/// Cell key of a per-axis bin vector: mixed-radix over `bins_per_dim`
/// (axis 0 most significant), or the splitmix chain when `hashed`. Shared
/// by SubspaceGrid and out-of-sample grid scoring so a serialized model's
/// keys match a freshly built grid's bit for bit.
std::uint64_t GridCellKey(std::span<const std::uint32_t> bins,
                          std::size_t bins_per_dim, bool hashed);

/// Equi-width multidimensional grid over a subspace projection: the CLIQUE
/// partitioning that Enclus's entropy measure is defined on, and the O(N)
/// histogram substrate the grid-density outlier scorer builds on. Each
/// attribute range is split into `bins_per_dim` equal intervals; a cell is
/// the Cartesian product of one interval per subspace attribute.
///
/// Binning runs through the canonical SIMD bin_index kernel (simd/simd.h),
/// so per-axis bins — and therefore every cell count — are bit-identical
/// across SIMD tiers, thread counts, and the dense/sparse layouts.
class SubspaceGrid {
 public:
  /// Builds the grid with default options. Attribute ranges come from the
  /// data (min/max per attribute over the full dataset), matching CLIQUE.
  SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
               std::size_t bins_per_dim);

  SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
               const GridOptions& options);

  /// Prepared-path overload: attribute ranges come from the prepared
  /// artifact's memoized AttributeRange instead of a fresh min/max scan
  /// over every column. The resulting grid is identical to the Dataset
  /// overload's.
  SubspaceGrid(const PreparedDataset& prepared, const Subspace& subspace,
               const GridOptions& options);

  /// Explicit-range overload: bins `dataset` against caller-supplied
  /// (min, max) ranges (one per subspace axis, in subspace order) instead
  /// of scanning the data. The sharded scoring path builds every shard's
  /// grid against the GLOBAL attribute ranges this way, which makes
  /// per-point cell keys — and therefore cell counts — mergeable across
  /// shards exactly. A (0, 0) range collapses to width 1.0 like a
  /// constant attribute.
  SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
               std::span<const std::pair<double, double>> ranges,
               const GridOptions& options);

  /// Merges per-shard grids (in shard order) into the grid the full
  /// dataset would have produced. Cell counts are additive, so the merge
  /// is exact: if every shard was built with the explicit-range overload
  /// against identical ranges (and identical GridOptions), the merged
  /// grid's cells, counts, entropy, coverage, and — when the shards kept
  /// point keys — its concatenated point_keys() are bit-identical to one
  /// grid built over the row-concatenation of the shards. CHECK-enforced:
  /// at least one shard; all shards agree on bins_per_dim, dimensionality,
  /// lo/width per axis, and layout; merged total stays under the dense
  /// layout's uint32 count limit.
  static SubspaceGrid MergeShards(
      std::span<const SubspaceGrid* const> shards);

  std::size_t bins_per_dim() const { return bins_per_dim_; }
  std::size_t num_nonempty_cells() const;
  std::size_t total_objects() const { return total_; }
  std::size_t dimensionality() const { return lo_.size(); }

  /// True when counts live in the flat dense array (bins^|S| under the
  /// dense cap); false for the hash-map layout.
  bool dense() const { return dense_; }
  /// True when cell keys are hashed (bins^|S| overflows 64 bits).
  bool hashed_keys() const { return hashed_; }

  /// Occupancy counts of all non-empty cells, ordered by ascending cell
  /// key — deterministic across layouts, thread counts, SIMD tiers, and
  /// rebuilds, so downstream consumers need no per-call sorting.
  std::vector<std::size_t> NonEmptyCellCounts() const;

  /// Non-empty cells as (key, count) pairs, ascending by key. The
  /// serialization order of the grid scorer's trained state.
  std::vector<std::pair<std::uint64_t, std::size_t>> NonEmptyCells() const;

  /// Shannon entropy (natural log) of the cell occupancy distribution,
  /// Enclus's H(S). Low entropy = mass concentrated in few cells = good
  /// clustering structure.
  double Entropy() const;

  /// Enclus "coverage": fraction of objects that lie in dense cells, where
  /// dense means count >= `density_threshold`.
  double Coverage(std::size_t density_threshold) const;

  // --- density-scorer substrate ---

  /// Lower edge / width of subspace axis `j`'s attribute range (width 1.0
  /// for constant attributes, which collapse to a single bin).
  double lo(std::size_t j) const { return lo_[j]; }
  double width(std::size_t j) const { return width_[j]; }

  /// Bin of value `v` along axis `j` — the canonical scalar bin mapping
  /// (simd::BinIndexOne): NaN and below-range values land in bin 0,
  /// above-range values in the last bin.
  std::uint32_t BinOf(double v, std::size_t j) const;

  /// Cell key of a per-axis bin vector (size dimensionality()).
  std::uint64_t KeyOfBins(std::span<const std::uint32_t> bins) const;

  /// Occupancy of the cell with key `key`; 0 for empty or unknown cells.
  /// O(1): a dense-array load or one hash probe.
  std::size_t CountForKey(std::uint64_t key) const;

  /// Occupancy of the cell at `bins` plus its 2|S| face-adjacent
  /// neighbors (von Neumann smoothing; neighbors outside the grid edge
  /// contribute nothing).
  std::size_t SmoothedCount(std::span<const std::uint32_t> bins) const;

  /// Per-point cell keys in object-id order. Requires
  /// GridOptions::keep_point_keys (CHECK-enforced).
  std::span<const std::uint64_t> point_keys() const;

  /// True when per-point cell keys were retained. Cached grids are built
  /// without them (8N bytes per cached grid); consumers fall back to
  /// re-binning per point, which lands on identical cell keys.
  bool has_point_keys() const { return kept_point_keys_; }

  /// Estimated footprint in bytes of the count storage (+ retained point
  /// keys) — the size model the ArtifactCache charges grid artifacts
  /// with.
  std::size_t ApproxMemoryBytes() const;

 private:
  SubspaceGrid() = default;  // MergeShards assembles the state directly

  void Build(const Dataset& dataset, const Subspace& subspace,
             const GridOptions& options);

  std::size_t bins_per_dim_ = 0;
  std::size_t total_ = 0;
  std::size_t nonempty_ = 0;
  bool dense_ = false;
  bool hashed_ = false;
  bool kept_point_keys_ = false;

  std::vector<double> lo_;
  std::vector<double> width_;
  std::vector<double> scale_;  // bins / width, precomputed per axis

  /// Dense layout: counts_dense_[key], size = bins^|S| (<= dense cap).
  std::vector<std::uint32_t> counts_dense_;
  /// Sparse layout: occupied cells only.
  std::unordered_map<std::uint64_t, std::size_t> counts_sparse_;

  std::vector<std::uint64_t> point_keys_;
};

/// Cache key of a grid artifact (ArtifactCache::FindGrid): encodes
/// every grid-shaping parameter — bins per dim, point-key retention, and
/// the exact bit patterns of the (min, max) ranges the grid bins against.
/// Two datasets whose ranges differ in even one bit get different keys,
/// so a cached grid can never be served against shifted bounds. (The
/// streaming plane also sweeps every window grid on each slide, since
/// its counts describe the old rows even when the ranges survive.)
std::string GridArtifactKey(std::size_t bins_per_dim, bool keep_point_keys,
                            std::span<const std::pair<double, double>> ranges);

/// Enclus interest measure (Cheng et al. 1999):
///   interest(S) = sum_{s in S} H({s}) - H(S),
/// the total correlation (multi-information) of the subspace under the grid
/// approximation. Zero for independent attributes, positive for correlated
/// ones.
double GridInterest(const Dataset& dataset, const Subspace& subspace,
                    std::size_t bins_per_dim);

}  // namespace hics

#endif  // HICS_CLUSTER_GRID_H_
