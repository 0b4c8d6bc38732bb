#include "cluster/grid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/prepared_dataset.h"
#include "simd/simd.h"

namespace hics {

namespace {

/// bins^dims with overflow detection; returns false (and leaves *cells
/// unspecified) when the product does not fit in 64 bits.
bool GridNumCells(std::size_t bins_per_dim, std::size_t dims,
                  std::uint64_t* cells) {
  const std::uint64_t bins = bins_per_dim;
  std::uint64_t product = 1;
  for (std::size_t j = 0; j < dims; ++j) {
    if (bins != 0 &&
        product > std::numeric_limits<std::uint64_t>::max() / bins) {
      return false;
    }
    product *= bins;
  }
  *cells = product;
  return true;
}

/// One splitmix64 step folding `bin` into the running key — the hashed
/// key scheme for grids whose nominal cell count overflows 64 bits.
inline std::uint64_t MixBin(std::uint64_t key, std::uint32_t bin) {
  std::uint64_t z =
      key ^ (static_cast<std::uint64_t>(bin) + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// NaN-ignoring min/max of one column; [0, 0] when empty or all-NaN
/// (every value then lands in bin 0 through the canonical clamp).
std::pair<double, double> ScanRange(const std::vector<double>& col) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (double v : col) {
    if (!(v == v)) continue;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  if (!(mn <= mx)) return {0.0, 0.0};
  return {mn, mx};
}

/// Rows per parallel binning chunk; also the per-worker bin scratch size.
constexpr std::size_t kBinChunk = 8192;

}  // namespace

bool GridKeysHashed(std::size_t bins_per_dim, std::size_t dims) {
  std::uint64_t cells = 0;
  return !GridNumCells(bins_per_dim, dims, &cells);
}

std::uint64_t GridCellKey(std::span<const std::uint32_t> bins,
                          std::size_t bins_per_dim, bool hashed) {
  std::uint64_t key = 0;
  if (hashed) {
    for (std::uint32_t b : bins) key = MixBin(key, b);
  } else {
    for (std::uint32_t b : bins) {
      key = key * static_cast<std::uint64_t>(bins_per_dim) + b;
    }
  }
  return key;
}

SubspaceGrid::SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
                           std::size_t bins_per_dim)
    : SubspaceGrid(dataset, subspace, [&] {
        GridOptions options;
        options.bins_per_dim = bins_per_dim;
        return options;
      }()) {}

SubspaceGrid::SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
                           const GridOptions& options)
    : bins_per_dim_(options.bins_per_dim) {
  HICS_CHECK_GT(bins_per_dim_, 0u);
  HICS_CHECK(!subspace.empty());
  lo_.resize(subspace.size());
  width_.resize(subspace.size());
  for (std::size_t j = 0; j < subspace.size(); ++j) {
    const auto [mn, mx] = ScanRange(dataset.Column(subspace[j]));
    lo_[j] = mn;
    width_[j] = mx - mn;
    if (width_[j] <= 0.0) width_[j] = 1.0;  // constant attribute -> one bin
  }
  Build(dataset, subspace, options);
}

SubspaceGrid::SubspaceGrid(const PreparedDataset& prepared,
                           const Subspace& subspace,
                           const GridOptions& options)
    : bins_per_dim_(options.bins_per_dim) {
  HICS_CHECK_GT(bins_per_dim_, 0u);
  HICS_CHECK(!subspace.empty());
  lo_.resize(subspace.size());
  width_.resize(subspace.size());
  for (std::size_t j = 0; j < subspace.size(); ++j) {
    const auto [mn, mx] = prepared.AttributeRange(subspace[j]);
    lo_[j] = mn;
    width_[j] = mx - mn;
    if (width_[j] <= 0.0) width_[j] = 1.0;
  }
  Build(prepared.dataset(), subspace, options);
}

SubspaceGrid::SubspaceGrid(const Dataset& dataset, const Subspace& subspace,
                           std::span<const std::pair<double, double>> ranges,
                           const GridOptions& options)
    : bins_per_dim_(options.bins_per_dim) {
  HICS_CHECK_GT(bins_per_dim_, 0u);
  HICS_CHECK(!subspace.empty());
  HICS_CHECK_EQ(ranges.size(), subspace.size());
  lo_.resize(subspace.size());
  width_.resize(subspace.size());
  for (std::size_t j = 0; j < subspace.size(); ++j) {
    lo_[j] = ranges[j].first;
    width_[j] = ranges[j].second - ranges[j].first;
    if (width_[j] <= 0.0) width_[j] = 1.0;
  }
  Build(dataset, subspace, options);
}

SubspaceGrid SubspaceGrid::MergeShards(
    std::span<const SubspaceGrid* const> shards) {
  HICS_CHECK(!shards.empty());
  const SubspaceGrid& first = *shards[0];
  SubspaceGrid merged;
  merged.bins_per_dim_ = first.bins_per_dim_;
  merged.dense_ = first.dense_;
  merged.hashed_ = first.hashed_;
  merged.lo_ = first.lo_;
  merged.width_ = first.width_;
  merged.scale_ = first.scale_;
  const std::size_t dims = first.dimensionality();

  bool keys = true;
  std::size_t total = 0;
  for (const SubspaceGrid* shard : shards) {
    // Identical geometry is the merge precondition: same binning = same
    // cell keys. Shards built against per-shard ranges would silently
    // count different cells — refuse loudly instead.
    HICS_CHECK_EQ(shard->bins_per_dim_, merged.bins_per_dim_);
    HICS_CHECK_EQ(shard->dimensionality(), dims);
    HICS_CHECK(shard->dense_ == merged.dense_);
    HICS_CHECK(shard->hashed_ == merged.hashed_);
    for (std::size_t j = 0; j < dims; ++j) {
      HICS_CHECK(shard->lo_[j] == merged.lo_[j]);
      HICS_CHECK(shard->width_[j] == merged.width_[j]);
    }
    keys = keys && shard->kept_point_keys_;
    total += shard->total_;
  }

  merged.total_ = total;
  if (merged.dense_) {
    HICS_CHECK_LT(total,
                  std::size_t{std::numeric_limits<std::uint32_t>::max()});
    merged.counts_dense_.assign(first.counts_dense_.size(), 0);
    for (const SubspaceGrid* shard : shards) {
      HICS_CHECK_EQ(shard->counts_dense_.size(),
                    merged.counts_dense_.size());
      for (std::size_t key = 0; key < merged.counts_dense_.size(); ++key) {
        merged.counts_dense_[key] += shard->counts_dense_[key];
      }
    }
    merged.nonempty_ = 0;
    for (std::uint32_t count : merged.counts_dense_) {
      if (count != 0) ++merged.nonempty_;
    }
  } else {
    for (const SubspaceGrid* shard : shards) {
      for (const auto& [key, count] : shard->counts_sparse_) {
        merged.counts_sparse_[key] += count;
      }
    }
    merged.nonempty_ = merged.counts_sparse_.size();
  }

  // Shard order is object-id order (the partition is contiguous), so
  // concatenating per-shard keys restores the full dataset's point_keys.
  if (keys) {
    merged.point_keys_.reserve(total);
    for (const SubspaceGrid* shard : shards) {
      merged.point_keys_.insert(merged.point_keys_.end(),
                                shard->point_keys_.begin(),
                                shard->point_keys_.end());
    }
    merged.kept_point_keys_ = true;
  }
  return merged;
}

void SubspaceGrid::Build(const Dataset& dataset, const Subspace& subspace,
                         const GridOptions& options) {
  // The canonical bin kernel truncates into int32 lanes; bins past 2^31
  // would saturate. No realistic grid comes close.
  HICS_CHECK_LE(bins_per_dim_, std::size_t{1} << 31);
  const std::size_t n = dataset.num_objects();
  const std::size_t dims = subspace.size();

  scale_.resize(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    scale_[j] = static_cast<double>(bins_per_dim_) / width_[j];
  }

  std::uint64_t num_cells = 0;
  hashed_ = !GridNumCells(bins_per_dim_, dims, &num_cells);
  dense_ = !hashed_ && num_cells <= options.dense_cell_cap;

  // Pass 1: per-point cell keys, column-major within row chunks — each
  // axis runs the canonical SIMD bin_index kernel over the chunk, then
  // folds the bins into the running mixed-radix (or hashed) key. Chunks
  // write disjoint key ranges, so any thread count produces identical
  // keys.
  point_keys_.assign(n, 0);
  const std::size_t num_chunks = (n + kBinChunk - 1) / kBinChunk;
  const std::size_t workers =
      ParallelWorkerCount(num_chunks, options.num_threads);
  std::vector<std::uint32_t> scratch(workers * kBinChunk);
  const simd::SimdKernels& kernels = simd::ActiveKernels();
  const double max_bin = static_cast<double>(bins_per_dim_ - 1);
  ParallelForWorker(
      0, num_chunks, options.num_threads,
      [&](std::size_t c, std::size_t w) {
        const std::size_t begin = c * kBinChunk;
        const std::size_t end = std::min(n, begin + kBinChunk);
        const std::size_t len = end - begin;
        std::uint32_t* bins_buf = scratch.data() + w * kBinChunk;
        std::uint64_t* keys = point_keys_.data() + begin;
        for (std::size_t j = 0; j < dims; ++j) {
          const double* col = dataset.Column(subspace[j]).data() + begin;
          kernels.bin_index(col, len, lo_[j], scale_[j], max_bin, bins_buf);
          if (hashed_) {
            for (std::size_t i = 0; i < len; ++i) {
              keys[i] = MixBin(keys[i], bins_buf[i]);
            }
          } else {
            const std::uint64_t radix = bins_per_dim_;
            for (std::size_t i = 0; i < len; ++i) {
              keys[i] = keys[i] * radix + bins_buf[i];
            }
          }
        }
      });

  // Pass 2: occupancy counts. Serial on purpose: integer increments over
  // the deterministic keys, ~N random accesses — never the bottleneck,
  // and trivially identical for every configuration.
  total_ = n;
  nonempty_ = 0;
  if (dense_) {
    HICS_CHECK_LT(n, std::size_t{std::numeric_limits<std::uint32_t>::max()});
    counts_dense_.assign(num_cells, 0);
    for (std::uint64_t key : point_keys_) {
      if (counts_dense_[key]++ == 0) ++nonempty_;
    }
  } else {
    counts_sparse_.reserve(std::min<std::size_t>(n, 1u << 16));
    for (std::uint64_t key : point_keys_) ++counts_sparse_[key];
    nonempty_ = counts_sparse_.size();
  }

  if (options.keep_point_keys) {
    kept_point_keys_ = true;
  } else {
    point_keys_.clear();
    point_keys_.shrink_to_fit();
  }
}

std::size_t SubspaceGrid::num_nonempty_cells() const { return nonempty_; }

std::uint32_t SubspaceGrid::BinOf(double v, std::size_t j) const {
  HICS_DCHECK(j < lo_.size());
  return simd::BinIndexOne(v, lo_[j], scale_[j],
                           static_cast<double>(bins_per_dim_ - 1));
}

std::uint64_t SubspaceGrid::KeyOfBins(
    std::span<const std::uint32_t> bins) const {
  HICS_DCHECK(bins.size() == dimensionality());
  return GridCellKey(bins, bins_per_dim_, hashed_);
}

std::size_t SubspaceGrid::CountForKey(std::uint64_t key) const {
  if (dense_) {
    return key < counts_dense_.size() ? counts_dense_[key] : 0;
  }
  const auto it = counts_sparse_.find(key);
  return it == counts_sparse_.end() ? 0 : it->second;
}

std::size_t SubspaceGrid::SmoothedCount(
    std::span<const std::uint32_t> bins) const {
  const std::size_t dims = dimensionality();
  HICS_DCHECK(bins.size() == dims);
  // Hashed keys cannot be shifted axis-wise; rehash with one bin replaced.
  const auto key_with = [&](std::size_t axis, std::uint32_t bin) {
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < dims; ++j) {
      const std::uint32_t b = j == axis ? bin : bins[j];
      key = hashed_ ? MixBin(key, b)
                    : key * static_cast<std::uint64_t>(bins_per_dim_) + b;
    }
    return key;
  };
  const std::uint64_t center = KeyOfBins(bins);
  std::size_t sum = CountForKey(center);
  // Mixed-radix neighbor keys are the center key +/- the axis stride, so
  // the common (non-hashed) path skips the rehash entirely.
  std::uint64_t stride = 1;
  for (std::size_t r = 0; r < dims; ++r) {
    const std::size_t j = dims - 1 - r;  // axis j has stride bins^(dims-1-j)
    if (bins[j] > 0) {
      sum += CountForKey(hashed_ ? key_with(j, bins[j] - 1) : center - stride);
    }
    if (bins[j] + 1 < bins_per_dim_) {
      sum += CountForKey(hashed_ ? key_with(j, bins[j] + 1) : center + stride);
    }
    stride *= static_cast<std::uint64_t>(bins_per_dim_);
  }
  return sum;
}

std::span<const std::uint64_t> SubspaceGrid::point_keys() const {
  HICS_CHECK(kept_point_keys_);
  return point_keys_;
}

std::size_t SubspaceGrid::ApproxMemoryBytes() const {
  // Size model, not allocator-exact: the dense count slab, or the sparse
  // map's occupied cells at key + count + node overhead, plus retained
  // point keys.
  std::size_t bytes = dense_ ? counts_dense_.size() * sizeof(std::uint32_t)
                             : nonempty_ * (sizeof(std::uint64_t) +
                                            sizeof(std::size_t) +
                                            2 * sizeof(void*));
  if (kept_point_keys_) bytes += point_keys_.size() * sizeof(std::uint64_t);
  return bytes;
}

std::vector<std::pair<std::uint64_t, std::size_t>>
SubspaceGrid::NonEmptyCells() const {
  std::vector<std::pair<std::uint64_t, std::size_t>> cells;
  cells.reserve(nonempty_);
  if (dense_) {
    for (std::uint64_t key = 0; key < counts_dense_.size(); ++key) {
      if (counts_dense_[key] != 0) cells.emplace_back(key, counts_dense_[key]);
    }
  } else {
    for (const auto& [key, count] : counts_sparse_) {
      cells.emplace_back(key, count);
    }
    std::sort(cells.begin(), cells.end());
  }
  return cells;
}

std::vector<std::size_t> SubspaceGrid::NonEmptyCellCounts() const {
  std::vector<std::size_t> counts;
  counts.reserve(nonempty_);
  for (const auto& [key, count] : NonEmptyCells()) counts.push_back(count);
  return counts;
}

double SubspaceGrid::Entropy() const {
  if (total_ == 0) return 0.0;
  // Ascending-key iteration keeps the floating-point sum identical across
  // the dense and sparse layouts.
  double entropy = 0.0;
  for (const auto& [key, count] : NonEmptyCells()) {
    const double p = static_cast<double>(count) / static_cast<double>(total_);
    entropy -= p * std::log(p);
  }
  return entropy;
}

double SubspaceGrid::Coverage(std::size_t density_threshold) const {
  if (total_ == 0) return 0.0;
  std::size_t covered = 0;
  if (dense_) {
    for (std::uint32_t count : counts_dense_) {
      if (count != 0 && count >= density_threshold) covered += count;
    }
  } else {
    for (const auto& [key, count] : counts_sparse_) {
      if (count >= density_threshold) covered += count;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(total_);
}

std::string GridArtifactKey(
    std::size_t bins_per_dim, bool keep_point_keys,
    std::span<const std::pair<double, double>> ranges) {
  // Range bounds enter as exact bit patterns (hex of the IEEE-754
  // doubles): the key must distinguish ranges that differ in the last
  // ulp, because binning does.
  std::string key = "grid:bins=" + std::to_string(bins_per_dim) +
                    ":pk=" + (keep_point_keys ? "1" : "0") + ":r=";
  char buf[2 * 16 + 3];  // two 16-digit hex fields, ',', ';' and NUL
  for (const auto& [mn, mx] : ranges) {
    std::uint64_t lo_bits;
    std::uint64_t hi_bits;
    static_assert(sizeof(lo_bits) == sizeof(mn));
    std::memcpy(&lo_bits, &mn, sizeof(lo_bits));
    std::memcpy(&hi_bits, &mx, sizeof(hi_bits));
    std::snprintf(buf, sizeof(buf), "%016llx,%016llx;",
                  static_cast<unsigned long long>(lo_bits),
                  static_cast<unsigned long long>(hi_bits));
    key += buf;
  }
  return key;
}

double GridInterest(const Dataset& dataset, const Subspace& subspace,
                    std::size_t bins_per_dim) {
  double marginal_sum = 0.0;
  for (std::size_t dim : subspace) {
    marginal_sum += SubspaceGrid(dataset, Subspace{dim}, bins_per_dim)
                        .Entropy();
  }
  const double joint = SubspaceGrid(dataset, subspace, bins_per_dim)
                           .Entropy();
  return marginal_sum - joint;
}

}  // namespace hics
