#include "engine/sharded_dataset.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/parallel.h"
#include "stats/descriptive.h"

namespace hics {
namespace {

// SplitMix64 finalizer (Steele et al.): full-avalanche 64-bit mix, the
// same permutation Rng::Seed uses for state expansion.
std::uint64_t SplitMix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t ShardStreamSeed(std::uint64_t seed, std::uint64_t subspace_hash,
                              std::size_t shard) {
  // Start from the per-subspace stream seed a one-shard plane draws from,
  // advance by (shard + 1) golden-ratio steps, and avalanche: shards of
  // the same subspace get decorrelated streams, and no shard's seed ever
  // collides with the raw per-subspace seed itself (the +1 offset).
  std::uint64_t x = seed ^ (subspace_hash * 0x9e3779b97f4a7c15ULL);
  x += (static_cast<std::uint64_t>(shard) + 1) * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(x);
}

std::size_t ShardIterations(std::size_t total_iterations,
                            std::size_t num_shards, std::size_t shard) {
  HICS_CHECK(shard < num_shards);
  const std::size_t base = total_iterations / num_shards;
  const std::size_t extra = shard < total_iterations % num_shards ? 1 : 0;
  return std::max<std::size_t>(1, base + extra);
}

ShardedDataset::ShardedDataset(const Dataset& dataset, std::size_t num_shards,
                               std::size_t build_threads)
    : dataset_(dataset) {
  const std::size_t n = dataset.num_objects();
  const std::size_t d = dataset.num_attributes();
  HICS_CHECK(num_shards >= 1);
  // Every shard must keep >= 2 rows (the estimator's two-sample floor), so
  // at most N/2 shards; degenerate datasets collapse to a single shard.
  const std::size_t max_shards = std::max<std::size_t>(1, n / 2);
  const std::size_t effective = std::min(num_shards, max_shards);

  begins_.resize(effective + 1);
  for (std::size_t s = 0; s <= effective; ++s) {
    begins_[s] = (s * n) / effective;
  }

  // Slice the columns into per-shard owned datasets. The copies are
  // independent, so they build in parallel; the result depends only on
  // (N, effective), never on build_threads.
  shard_data_.resize(effective);
  ParallelFor(0, effective, build_threads, [&](std::size_t s) {
    const std::size_t lo = begins_[s];
    const std::size_t hi = begins_[s + 1];
    std::vector<std::vector<double>> columns(d);
    for (std::size_t a = 0; a < d; ++a) {
      const std::vector<double>& col = dataset.Column(a);
      columns[a].assign(col.begin() + static_cast<std::ptrdiff_t>(lo),
                        col.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    Result<Dataset> built = Dataset::FromColumns(std::move(columns));
    HICS_CHECK(built.ok());  // equal-length slices of equal-length columns
    shard_data_[s] = std::move(built).ValueOrDie();
  });

  shards_.reserve(effective);
  for (std::size_t s = 0; s < effective; ++s) {
    shards_.push_back(
        std::make_unique<PreparedDataset>(shard_data_[s], build_threads));
  }
}

const PreparedDataset& ShardedDataset::shard(std::size_t s) const {
  HICS_CHECK(s < shards_.size());
  return *shards_[s];
}

std::size_t ShardedDataset::shard_begin(std::size_t s) const {
  HICS_CHECK(s < begins_.size());
  return begins_[s];
}

std::size_t ShardedDataset::shard_size(std::size_t s) const {
  HICS_CHECK(s + 1 < begins_.size());
  return begins_[s + 1] - begins_[s];
}

std::pair<double, double> ShardedDataset::GlobalAttributeRange(
    std::size_t attribute) const {
  HICS_CHECK(attribute < dataset_.num_attributes());
  // Over the FULL column: the merge contract requires every shard to bin
  // against identical bounds.
  std::call_once(ranges_once_, [this] {
    ranges_.reserve(dataset_.num_attributes());
    for (std::size_t a = 0; a < dataset_.num_attributes(); ++a) {
      ranges_.push_back(stats::RangeIgnoringNaN(dataset_.Column(a)));
    }
  });
  return ranges_[attribute];
}

}  // namespace hics
