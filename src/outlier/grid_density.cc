#include "outlier/grid_density.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/sharded_dataset.h"
#include "simd/simd.h"
#include "stats/descriptive.h"

namespace hics {

namespace {

/// Meta-channel layout (trained state channel 0).
constexpr std::size_t kMetaDims = 0;
constexpr std::size_t kMetaBins = 1;
constexpr std::size_t kMetaSmooth = 2;
constexpr std::size_t kMetaTotal = 3;
constexpr std::size_t kMetaMean = 4;
constexpr std::size_t kMetaSigma = 5;
constexpr std::size_t kMetaFixed = 6;  // lo[dims] then width[dims] follow

/// Rows per parallel gather chunk (mirrors the grid's binning chunk).
constexpr std::size_t kGatherChunk = 8192;

/// Per-point density estimates f_i: the point's cell occupancy, smoothed
/// over the 2|S| face-adjacent cells when requested. Chunks write
/// disjoint ranges of exact integer counts, so the gather is
/// bit-identical for every thread count.
std::vector<double> GatherDensities(const Dataset& dataset,
                                    const Subspace& subspace,
                                    const SubspaceGrid& grid, bool smooth,
                                    std::size_t num_threads) {
  const std::size_t n = dataset.num_objects();
  std::vector<double> density(n, 0.0);
  const std::size_t num_chunks = (n + kGatherChunk - 1) / kGatherChunk;
  if (!smooth && grid.has_point_keys()) {
    const std::span<const std::uint64_t> keys = grid.point_keys();
    ParallelFor(0, num_chunks, num_threads, [&](std::size_t c) {
      const std::size_t begin = c * kGatherChunk;
      const std::size_t end = std::min(n, begin + kGatherChunk);
      for (std::size_t i = begin; i < end; ++i) {
        density[i] = static_cast<double>(grid.CountForKey(keys[i]));
      }
    });
    return density;
  }
  if (!smooth) {
    // Keyless grid (the cached/streaming-carried form): re-bin each point
    // through the same canonical per-axis bin mapping the build used.
    // Lands on the identical cell key the retained point_keys() would
    // have held, so the densities — and every downstream score — are
    // bit-identical to the keyed gather's.
    const std::size_t dims = subspace.size();
    const std::size_t workers = ParallelWorkerCount(num_chunks, num_threads);
    std::vector<std::uint32_t> scratch(workers * dims);
    ParallelForWorker(
        0, num_chunks, num_threads, [&](std::size_t c, std::size_t w) {
          std::uint32_t* bins = scratch.data() + w * dims;
          const std::size_t begin = c * kGatherChunk;
          const std::size_t end = std::min(n, begin + kGatherChunk);
          for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t j = 0; j < dims; ++j) {
              bins[j] = grid.BinOf(dataset.Column(subspace[j])[i], j);
            }
            density[i] = static_cast<double>(grid.CountForKey(grid.KeyOfBins(
                std::span<const std::uint32_t>(bins, dims))));
          }
        });
    return density;
  }
  const std::size_t dims = subspace.size();
  const std::size_t workers = ParallelWorkerCount(num_chunks, num_threads);
  std::vector<std::uint32_t> scratch(workers * dims);
  ParallelForWorker(
      0, num_chunks, num_threads, [&](std::size_t c, std::size_t w) {
        std::uint32_t* bins = scratch.data() + w * dims;
        const std::size_t begin = c * kGatherChunk;
        const std::size_t end = std::min(n, begin + kGatherChunk);
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < dims; ++j) {
            bins[j] = grid.BinOf(dataset.Column(subspace[j])[i], j);
          }
          density[i] = static_cast<double>(
              grid.SmoothedCount(std::span<const std::uint32_t>(bins, dims)));
        }
      });
  return density;
}

/// mean and sample stddev of the density vector through the canonical
/// SIMD moment kernels (bit-identical across tiers).
std::pair<double, double> DensityMoments(std::span<const double> density) {
  const double mean = stats::Mean(density);
  const double sigma = std::sqrt(stats::SampleVariance(density));
  return {mean, sigma};
}

std::uint64_t KeyAt(const std::vector<double>& key_pairs, std::size_t idx) {
  const std::uint64_t low = static_cast<std::uint64_t>(key_pairs[2 * idx]);
  const std::uint64_t high =
      static_cast<std::uint64_t>(key_pairs[2 * idx + 1]);
  return (high << 32) | low;
}

}  // namespace

GridDensityScorer::GridDensityScorer(const GridDensityParams& params)
    : params_(params) {
  HICS_CHECK_GT(params_.bins_per_dim, 0u);
}

std::vector<double> GridDensityScorer::ScoreWithGrid(
    const Dataset& dataset, const Subspace& subspace,
    const SubspaceGrid& grid) const {
  const std::size_t n = dataset.num_objects();
  if (n < 2) return std::vector<double>(n, 0.0);
  const std::vector<double> density = GatherDensities(
      dataset, subspace, grid, params_.smooth, params_.num_threads);
  const auto [mean, sigma] = DensityMoments(density);
  return ZScores(density, mean, sigma);
}

std::vector<double> GridDensityScorer::ZScores(
    const std::vector<double>& density, double mean, double sigma) {
  std::vector<double> scores(density.size(), 0.0);
  // Degenerate distribution (all points in one cell): nothing is more
  // outlying than anything else.
  if (!(sigma > 0.0)) return scores;
  for (std::size_t i = 0; i < density.size(); ++i) {
    scores[i] = (mean - density[i]) / sigma;
  }
  return scores;
}

std::shared_ptr<const SubspaceGrid> GridDensityScorer::CachedGrid(
    ArtifactCache& cache, const std::string& grid_key, const Dataset& dataset,
    const Subspace& subspace,
    std::span<const std::pair<double, double>> ranges) const {
  if (auto hit = cache.FindGrid(grid_key, subspace)) return hit;
  GridOptions options;
  options.bins_per_dim = params_.bins_per_dim;
  options.num_threads = params_.num_threads;
  // Cached grids never retain point keys: the cache outlives the call,
  // so 8N bytes of keys would stay pinned per cached subspace. The
  // gather re-bins per point, landing on identical densities.
  options.keep_point_keys = false;
  auto built =
      std::make_shared<const SubspaceGrid>(dataset, subspace, ranges, options);
  const std::size_t bytes = built->ApproxMemoryBytes();
  return cache.InsertGrid(grid_key, subspace, std::move(built), bytes);
}

std::vector<double> GridDensityScorer::ScoreSubspaceSharded(
    const ShardPlane& sharded, const Subspace& subspace) const {
  // Every shard bins against the GLOBAL ranges, so a row's cell key is
  // the same one the full-dataset grid would assign it; shard grids then
  // merge by pure integer count addition. The cache key encodes the
  // range bits (GridArtifactKey), so a cached shard grid can only ever
  // be served against the exact bounds it was binned with.
  std::vector<std::pair<double, double>> ranges(subspace.size());
  for (std::size_t j = 0; j < subspace.size(); ++j) {
    ranges[j] = sharded.GlobalAttributeRange(subspace[j]);
  }
  const std::string grid_key =
      GridArtifactKey(params_.bins_per_dim, false, ranges);
  const std::size_t num_shards = sharded.num_shards();
  std::vector<std::shared_ptr<const SubspaceGrid>> shard_grids(num_shards);
  ParallelFor(0, num_shards, params_.num_threads, [&](std::size_t s) {
    shard_grids[s] = CachedGrid(sharded.shard(s).cache(), grid_key,
                                sharded.shard(s).dataset(), subspace, ranges);
  });
  std::vector<const SubspaceGrid*> grid_ptrs(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    grid_ptrs[s] = shard_grids[s].get();
  }
  const SubspaceGrid merged = SubspaceGrid::MergeShards(
      std::span<const SubspaceGrid* const>(grid_ptrs));
  return ScoreWithGrid(sharded.dataset(), subspace, merged);
}

std::shared_ptr<const SubspaceGrid> GridDensityScorer::PreparedGrid(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  // Ranges come from the prepared artifact (no column rescan).
  std::vector<std::pair<double, double>> ranges(subspace.size());
  for (std::size_t j = 0; j < subspace.size(); ++j) {
    ranges[j] = prepared.AttributeRange(subspace[j]);
  }
  return CachedGrid(prepared.cache(),
                    GridArtifactKey(params_.bins_per_dim, false, ranges),
                    prepared.dataset(), subspace, ranges);
}

std::vector<double> GridDensityScorer::ScoreSubspacePrepared(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  return ScoreWithGrid(prepared.dataset(), subspace,
                       *PreparedGrid(prepared, subspace));
}

std::string GridDensityScorer::cache_key() const {
  return "grid-density:bins=" + std::to_string(params_.bins_per_dim) +
         ":smooth=" + std::string(params_.smooth ? "1" : "0");
}

FittedSubspace GridDensityScorer::FitSubspace(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  // The one cached grid serves both halves: its densities give the
  // in-sample scores (as ScoreWithGrid computes them) and the moments,
  // its cells the state.
  const std::shared_ptr<const SubspaceGrid> cached =
      PreparedGrid(prepared, subspace);
  const SubspaceGrid& grid = *cached;
  const std::vector<double> density =
      GatherDensities(prepared.dataset(), subspace, grid, params_.smooth,
                      params_.num_threads);
  const auto [mean, sigma] = DensityMoments(density);
  FittedSubspace fit;
  fit.scores = density.size() < 2 ? std::vector<double>(density.size(), 0.0)
                                  : ZScores(density, mean, sigma);

  const std::size_t dims = subspace.size();
  TrainedScorerState& state = fit.state;
  state.channels.resize(kStateChannels);

  std::vector<double>& meta = state.channels[0];
  meta.resize(kMetaFixed + 2 * dims);
  meta[kMetaDims] = static_cast<double>(dims);
  meta[kMetaBins] = static_cast<double>(params_.bins_per_dim);
  meta[kMetaSmooth] = params_.smooth ? 1.0 : 0.0;
  meta[kMetaTotal] = static_cast<double>(grid.total_objects());
  meta[kMetaMean] = mean;
  meta[kMetaSigma] = sigma;
  for (std::size_t j = 0; j < dims; ++j) {
    meta[kMetaFixed + j] = grid.lo(j);
    meta[kMetaFixed + dims + j] = grid.width(j);
  }

  // Cells serialize in NonEmptyCells' ascending-key order, so a freshly
  // fitted state and a save/load round trip are byte-identical and
  // out-of-sample lookups can binary-search the key channel.
  const auto cells = grid.NonEmptyCells();
  std::vector<double>& key_pairs = state.channels[1];
  std::vector<double>& counts = state.channels[2];
  key_pairs.reserve(2 * cells.size());
  counts.reserve(cells.size());
  for (const auto& [key, count] : cells) {
    key_pairs.push_back(static_cast<double>(key & 0xFFFFFFFFULL));
    key_pairs.push_back(static_cast<double>(key >> 32));
    counts.push_back(static_cast<double>(count));
  }
  return fit;
}

double GridDensityScorer::ScoreOutOfSample(
    std::span<const double> projected, std::span<const Neighbor> neighbors,
    const TrainedScorerState& state) const {
  (void)neighbors;
  HICS_CHECK_EQ(state.channels.size(), kStateChannels);
  const std::vector<double>& meta = state.channels[0];
  const std::vector<double>& key_pairs = state.channels[1];
  const std::vector<double>& counts = state.channels[2];

  const std::size_t dims = static_cast<std::size_t>(meta[kMetaDims]);
  HICS_CHECK_EQ(projected.size(), dims);
  const std::size_t bins_per_dim =
      static_cast<std::size_t>(meta[kMetaBins]);
  const bool smooth = meta[kMetaSmooth] != 0.0;
  const double mean = meta[kMetaMean];
  const double sigma = meta[kMetaSigma];
  if (!(sigma > 0.0)) return 0.0;

  const double max_bin = static_cast<double>(bins_per_dim - 1);
  const bool hashed = GridKeysHashed(bins_per_dim, dims);
  std::vector<std::uint32_t> bins(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    const double lo = meta[kMetaFixed + j];
    const double width = meta[kMetaFixed + dims + j];
    const double scale = static_cast<double>(bins_per_dim) / width;
    bins[j] = simd::BinIndexOne(projected[j], lo, scale, max_bin);
  }

  const std::size_t num_cells = counts.size();
  const auto count_for = [&](std::uint64_t key) -> double {
    std::size_t lo_i = 0;
    std::size_t hi_i = num_cells;
    while (lo_i < hi_i) {
      const std::size_t mid = lo_i + (hi_i - lo_i) / 2;
      if (KeyAt(key_pairs, mid) < key) {
        lo_i = mid + 1;
      } else {
        hi_i = mid;
      }
    }
    if (lo_i < num_cells && KeyAt(key_pairs, lo_i) == key) {
      return counts[lo_i];
    }
    return 0.0;
  };

  double f = count_for(GridCellKey(bins, bins_per_dim, hashed));
  if (smooth) {
    for (std::size_t j = 0; j < dims; ++j) {
      const std::uint32_t center = bins[j];
      if (center > 0) {
        bins[j] = center - 1;
        f += count_for(GridCellKey(bins, bins_per_dim, hashed));
      }
      if (center + 1 < bins_per_dim) {
        bins[j] = center + 1;
        f += count_for(GridCellKey(bins, bins_per_dim, hashed));
      }
      bins[j] = center;
    }
  }
  return (mean - f) / sigma;
}

Status GridDensityScorer::ValidateTrainedState(const TrainedScorerState& state,
                                               std::size_t dims,
                                               std::size_t num_objects) {
  if (state.channels.size() != kStateChannels) {
    return Status::InvalidArgument(
        "grid-density state must have " + std::to_string(kStateChannels) +
        " channels, got " + std::to_string(state.channels.size()));
  }
  const std::vector<double>& meta = state.channels[0];
  const std::vector<double>& key_pairs = state.channels[1];
  const std::vector<double>& counts = state.channels[2];
  if (meta.size() != kMetaFixed + 2 * dims) {
    return Status::InvalidArgument(
        "grid-density meta channel has " + std::to_string(meta.size()) +
        " values, expected " + std::to_string(kMetaFixed + 2 * dims) +
        " for a " + std::to_string(dims) + "-attribute subspace");
  }
  for (double v : meta) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "grid-density meta channel contains a non-finite value");
    }
  }
  if (static_cast<std::size_t>(meta[kMetaDims]) != dims) {
    return Status::InvalidArgument(
        "grid-density state dimensionality " +
        std::to_string(static_cast<std::size_t>(meta[kMetaDims])) +
        " does not match subspace size " + std::to_string(dims));
  }
  if (!(meta[kMetaBins] >= 1.0)) {
    return Status::InvalidArgument("grid-density state has bins_per_dim < 1");
  }
  if (meta[kMetaSmooth] != 0.0 && meta[kMetaSmooth] != 1.0) {
    return Status::InvalidArgument(
        "grid-density state smooth flag must be 0 or 1");
  }
  if (static_cast<std::size_t>(meta[kMetaTotal]) != num_objects) {
    return Status::InvalidArgument(
        "grid-density state was fitted on " +
        std::to_string(static_cast<std::size_t>(meta[kMetaTotal])) +
        " objects, model claims " + std::to_string(num_objects));
  }
  if (!(meta[kMetaSigma] >= 0.0)) {
    return Status::InvalidArgument(
        "grid-density state has negative density stddev");
  }
  for (std::size_t j = 0; j < dims; ++j) {
    if (!(meta[kMetaFixed + dims + j] > 0.0)) {
      return Status::InvalidArgument(
          "grid-density state has non-positive width for axis " +
          std::to_string(j));
    }
  }
  if (key_pairs.size() != 2 * counts.size()) {
    return Status::InvalidArgument(
        "grid-density key channel length " +
        std::to_string(key_pairs.size()) + " does not match " +
        std::to_string(counts.size()) + " cell counts");
  }
  constexpr double kTwo32 = 4294967296.0;
  for (double half : key_pairs) {
    if (!(half >= 0.0 && half < kTwo32) ||
        half != std::floor(half)) {
      return Status::InvalidArgument(
          "grid-density key channel contains a non-integral or "
          "out-of-range half-key");
    }
  }
  double count_sum = 0.0;
  std::uint64_t prev_key = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const std::uint64_t key = KeyAt(key_pairs, c);
    if (c > 0 && key <= prev_key) {
      return Status::InvalidArgument(
          "grid-density cell keys are not strictly ascending");
    }
    prev_key = key;
    const double count = counts[c];
    if (!(count >= 1.0) || count != std::floor(count)) {
      return Status::InvalidArgument(
          "grid-density cell counts must be positive integers");
    }
    count_sum += count;
  }
  if (count_sum != meta[kMetaTotal]) {
    return Status::InvalidArgument(
        "grid-density cell counts sum to " + std::to_string(count_sum) +
        ", expected " + std::to_string(meta[kMetaTotal]));
  }
  return Status::OK();
}

}  // namespace hics
