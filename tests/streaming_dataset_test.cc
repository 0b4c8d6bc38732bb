#include "engine/streaming_dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "cluster/grid.h"
#include "common/random.h"
#include "common/run_context.h"
#include "core/contrast_matrix.h"
#include "core/hics.h"
#include "engine/prepared_dataset.h"
#include "engine/sharded_dataset.h"
#include "engine/streaming_search.h"
#include "outlier/grid_density.h"
#include "outlier/lof.h"
#include "outlier/subspace_ranker.h"

namespace hics {
namespace {

constexpr ScoreAggregation kAvg = ScoreAggregation::kAverage;
constexpr ShardedScoringPolicy kExact =
    ShardedScoringPolicy::kRequireExactMerge;
constexpr ShardedScoringPolicy kApprox =
    ShardedScoringPolicy::kAllowApproximation;

/// One random row with every value strictly inside (0.05, 0.95) — inside
/// the 0.05/0.95 extreme rows the window-grid test plants, so admissions
/// never move the global ranges unless a test wants them to.
std::vector<double> InteriorRow(Rng& rng, std::size_t d) {
  std::vector<double> row(d);
  for (std::size_t a = 0; a < d; ++a) {
    row[a] = 0.06 + 0.88 * rng.UniformDouble();
  }
  return row;
}

std::vector<std::vector<double>> InteriorRows(Rng& rng, std::size_t n,
                                              std::size_t d) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) row = InteriorRow(rng, d);
  return rows;
}

/// The reference replay: what the window must contain after the same
/// mutation sequence, maintained naively.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t d) : d_(d) {}

  void Slide(std::size_t evict, const std::vector<std::vector<double>>& rows) {
    for (std::size_t i = 0; i < evict; ++i) rows_.pop_front();
    for (const auto& row : rows) rows_.push_back(row);
  }

  Dataset AsDataset() const {
    std::vector<std::vector<double>> columns(d_);
    for (auto& c : columns) c.reserve(rows_.size());
    for (const auto& row : rows_) {
      for (std::size_t a = 0; a < d_; ++a) columns[a].push_back(row[a]);
    }
    Result<Dataset> built = Dataset::FromColumns(std::move(columns));
    EXPECT_TRUE(built.ok());
    return std::move(built).ValueOrDie();
  }

  std::size_t size() const { return rows_.size(); }

 private:
  std::size_t d_;
  std::deque<std::vector<double>> rows_;
};

void ExpectWindowEquals(const StreamingDataset& streaming,
                        const Dataset& expected) {
  ASSERT_EQ(streaming.size(), expected.num_objects());
  for (std::size_t a = 0; a < expected.num_attributes(); ++a) {
    for (std::size_t i = 0; i < expected.num_objects(); ++i) {
      ASSERT_EQ(streaming.window().Column(a)[i], expected.Column(a)[i])
          << "row " << i << " attribute " << a;
    }
  }
}

void ExpectSameScored(const std::vector<ScoredSubspace>& a,
                      const std::vector<ScoredSubspace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subspace, b[i].subspace) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

void ExpectSameMatrixBits(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double x = a(i, j);
      const double y = b(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "(" << i << "," << j << "): " << x << " vs " << y;
    }
  }
}

// ---------------------------------------------------------------------------
// Window mechanics and the epoch protocol

TEST(StreamingWindowTest, AdmitFillsThenEvictsOldestAtCapacity) {
  Rng rng(11);
  StreamingDataset streaming(3, {.capacity = 10});
  EXPECT_EQ(streaming.epoch(), 0u);
  EXPECT_EQ(streaming.size(), 0u);

  auto evicted = streaming.Admit(InteriorRows(rng, 6, 3));
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 0u);
  EXPECT_EQ(streaming.size(), 6u);
  EXPECT_EQ(streaming.epoch(), 1u);

  // 6 + 7 > 10: exactly the 3 oldest rows must go.
  evicted = streaming.Admit(InteriorRows(rng, 7, 3));
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(*evicted, 3u);
  EXPECT_EQ(streaming.size(), 10u);
  EXPECT_EQ(streaming.epoch(), 2u);
  EXPECT_EQ(streaming.prepared().epoch(), 2u);
  EXPECT_EQ(streaming.window_cache_stats().evicted_artifacts, 0u);  // empty
}

TEST(StreamingWindowTest, NoOpSlideDoesNotAdvanceTheEpoch) {
  Rng rng(13);
  StreamingDataset streaming(2, {.capacity = 8});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 5, 2)).ok());
  const std::uint64_t epoch = streaming.epoch();
  const auto result = streaming.Slide(0, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0u);
  EXPECT_EQ(streaming.epoch(), epoch);
}

TEST(StreamingWindowTest, InvalidMutationsAreRejectedAtomically) {
  Rng rng(17);
  StreamingDataset streaming(3, {.capacity = 8});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 6, 3)).ok());
  const std::uint64_t epoch = streaming.epoch();
  const Dataset before = streaming.window();

  // Wrong arity.
  EXPECT_FALSE(streaming.Slide(1, {{0.5, 0.5}}).ok());
  // Non-finite value.
  std::vector<double> bad = {0.5, 0.5, 0.5};
  bad[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(streaming.Slide(1, {bad}).ok());
  // Evicting more rows than the window holds.
  EXPECT_FALSE(streaming.Slide(7, {}).ok());
  // Overflowing the capacity.
  EXPECT_FALSE(streaming.Slide(0, InteriorRows(rng, 3, 3)).ok());
  // Admitting more rows than fit at all.
  EXPECT_FALSE(streaming.Admit(InteriorRows(rng, 9, 3)).ok());

  // Every rejection left the window, the epoch, and the plane untouched.
  EXPECT_EQ(streaming.epoch(), epoch);
  ExpectWindowEquals(streaming, before);
}

TEST(StreamingWindowTest, RandomizedSlidesMatchAReferenceReplay) {
  Rng rng(19);
  const std::size_t d = 4;
  StreamingDataset streaming(d, {.capacity = 30, .num_shards = 3});
  ReferenceWindow reference(d);
  std::uint64_t expected_epoch = 0;

  for (int step = 0; step < 40; ++step) {
    const std::size_t admit = 1 + rng.UniformIndex(6);
    std::size_t evict =
        streaming.size() > 0 ? rng.UniformIndex(streaming.size() / 2 + 1) : 0;
    const std::size_t incoming = streaming.size() - evict + admit;
    if (incoming > 30) evict += incoming - 30;
    const auto rows = InteriorRows(rng, admit, d);
    ASSERT_TRUE(streaming.Slide(evict, rows, nullptr).ok()) << "step " << step;
    reference.Slide(evict, rows);
    ++expected_epoch;
    EXPECT_EQ(streaming.epoch(), expected_epoch);
    ExpectWindowEquals(streaming, reference.AsDataset());
  }
}

TEST(StreamingWindowTest, MaintainedSortedOrdersMatchAColdStableSort) {
  Rng rng(23);
  const std::size_t d = 3;
  StreamingDataset streaming(d, {.capacity = 25});
  ReferenceWindow reference(d);
  for (int step = 0; step < 12; ++step) {
    const auto rows = InteriorRows(rng, 4, d);
    const std::size_t evict = streaming.size() >= 22 ? 4 : 0;
    ASSERT_TRUE(streaming.Slide(evict, rows).ok());
    reference.Slide(evict, rows);

    const Dataset cold_ds = reference.AsDataset();
    const PreparedDataset cold(cold_ds);
    for (std::size_t a = 0; a < d; ++a) {
      const auto streamed = streaming.prepared().sorted_index().SortedOrder(a);
      const auto sorted = cold.sorted_index().SortedOrder(a);
      ASSERT_EQ(std::vector<std::size_t>(streamed.begin(), streamed.end()),
                std::vector<std::size_t>(sorted.begin(), sorted.end()))
          << "step " << step << " attribute " << a;
    }
  }
}

TEST(StreamingWindowTest, OrdersMergeOnlyFromAnIndexAQueryBuilt) {
  Rng rng(24);
  const std::size_t d = 3;
  HicsParams params;
  params.num_iterations = 5;
  params.output_top_k = 4;

  // One shard: a search builds the window index, so the next slide
  // merges from it; a slide after an unsearched epoch has no index to
  // merge from and the new index sorts lazily. Searching on two of every
  // three epochs exercises both paths; each must equal a cold sort.
  StreamingDataset one(d, {.capacity = 25});
  ReferenceWindow reference(d);
  for (int step = 0; step < 12; ++step) {
    const auto rows = InteriorRows(rng, 4, d);
    const std::size_t evict = one.size() >= 22 ? 4 : 0;
    ASSERT_TRUE(one.Slide(evict, rows).ok());
    reference.Slide(evict, rows);
    EXPECT_EQ(one.prepared().built_sorted_index(), nullptr)
        << "step " << step;
    if (step % 3 == 1) continue;

    ASSERT_TRUE(RunHicsSearch(one, params).ok()) << "step " << step;
    ASSERT_EQ(one.prepared().built_sorted_index(),
              &one.prepared().sorted_index());
    const Dataset cold_ds = reference.AsDataset();
    const PreparedDataset cold(cold_ds);
    for (std::size_t a = 0; a < d; ++a) {
      const auto streamed = one.prepared().sorted_index().SortedOrder(a);
      const auto sorted = cold.sorted_index().SortedOrder(a);
      ASSERT_EQ(std::vector<std::size_t>(streamed.begin(), streamed.end()),
                std::vector<std::size_t>(sorted.begin(), sorted.end()))
          << "step " << step << " attribute " << a;
    }
  }

  // Several shards: the search and the ranking read only the slots, so
  // the whole-window index is never built, and no slide sorts or merges
  // whole-window orders.
  StreamingDataset sharded(d, {.capacity = 40, .num_shards = 2});
  GridDensityParams grid_params;
  grid_params.bins_per_dim = 4;
  const GridDensityScorer grid(grid_params);
  for (int step = 0; step < 4; ++step) {
    ASSERT_TRUE(sharded.Admit(InteriorRows(rng, 10, d)).ok());
    const auto found = RunHicsSearch(sharded, params);
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(sharded.num_shards(), 2u);
    ASSERT_TRUE(RankWithSubspaces(sharded, *found, grid).ok());
    EXPECT_EQ(sharded.prepared().built_sorted_index(), nullptr)
        << "step " << step;
  }
}

TEST(StreamingWindowTest, PartitionFollowsTheCanonicalShardedRule) {
  Rng rng(29);
  StreamingDataset streaming(3, {.capacity = 40, .num_shards = 4});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 3, 3)).ok());
  // 3 rows: clamp to max(1, 3/2) = 1 shard.
  EXPECT_EQ(streaming.num_shards(), 1u);
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 37, 3)).ok());
  ASSERT_EQ(streaming.num_shards(), 4u);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(streaming.shard_begin(s), covered);
    EXPECT_EQ(streaming.shard_begin(s), (s * streaming.size()) / 4);
    EXPECT_EQ(streaming.shard(s).num_objects(), streaming.shard_size(s));
    covered += streaming.shard_size(s);
  }
  EXPECT_EQ(covered, streaming.size());
}

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Search, contrast matrix and grid ranking of the window, bit for bit
/// against the same three over a cold plane of the identical rows.
void ExpectWindowMatchesColdPlane(const StreamingDataset& streaming,
                                  const ShardPlane& cold) {
  ASSERT_EQ(streaming.num_shards(), cold.num_shards());
  HicsParams params;
  params.num_iterations = 10;
  params.output_top_k = 6;
  const auto found = RunHicsSearch(streaming, params);
  const auto cold_found = RunHicsSearch(cold, params);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(cold_found.ok()) << cold_found.status().ToString();
  ASSERT_EQ(found->size(), cold_found->size());
  for (std::size_t i = 0; i < found->size(); ++i) {
    EXPECT_EQ((*found)[i].subspace, (*cold_found)[i].subspace) << "rank " << i;
    EXPECT_EQ(std::memcmp(&(*found)[i].score, &(*cold_found)[i].score,
                          sizeof(double)),
              0)
        << "rank " << i;
  }
  ContrastMatrixParams matrix_params;
  matrix_params.contrast.num_iterations = params.num_iterations;
  const auto matrix = ComputeContrastMatrix(streaming, matrix_params);
  const auto cold_matrix = ComputeContrastMatrix(cold, matrix_params);
  ASSERT_TRUE(matrix.ok());
  ASSERT_TRUE(cold_matrix.ok());
  ExpectSameMatrixBits(*matrix, *cold_matrix);
  GridDensityParams grid_params;
  grid_params.bins_per_dim = 4;
  const GridDensityScorer grid(grid_params);
  const std::vector<Subspace> subspaces = {Subspace{0, 1}, Subspace{1, 2}};
  const auto ranked =
      RankWithSubspacesSharded(streaming, subspaces, grid, kAvg, kExact);
  const auto cold_ranked =
      RankWithSubspacesSharded(cold, subspaces, grid, kAvg, kExact);
  ASSERT_TRUE(ranked.ok());
  ASSERT_TRUE(cold_ranked.ok());
  ExpectSameBits(*ranked, *cold_ranked);
}

TEST(StreamingWindowTest, OneShardWindowIsItsOwnShard) {
  Rng rng(71);
  const std::size_t d = 3;
  // A one-shard window keeps no slot: its shard is the window artifact
  // of the current epoch, and a slide rebuilds no slot, so it probes no
  // "stream.slide.shard" fault site.
  FaultInjector injector;
  injector.FailNthCall("stream.slide.shard", 1,
                       Status::Internal("injected shard rebuild fault"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);
  StreamingDataset one(d, {.capacity = 24, .num_shards = 1});
  const LofScorer lof({.min_pts = 3});
  const std::vector<Subspace> subspaces = {Subspace{0, 1}};
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(one.Admit(InteriorRows(rng, 8, d), &ctx).ok())
        << "step " << step;
    ASSERT_EQ(one.num_shards(), 1u);
    EXPECT_EQ(&one.shard(0), &one.prepared()) << "step " << step;
    EXPECT_EQ(one.shard_content_epoch(0), one.epoch()) << "step " << step;
    EXPECT_EQ(one.shard_begin(0), 0u);
    EXPECT_EQ(one.shard_size(0), one.size());
    ASSERT_TRUE(
        RankWithSubspacesSharded(one, subspaces, lof, kAvg, kExact).ok());
    EXPECT_EQ(one.shard_cache_stats(0).hits(),
              one.window_cache_stats().hits());
    EXPECT_EQ(one.shard_cache_stats(0).misses(),
              one.window_cache_stats().misses());
  }
  EXPECT_EQ(injector.FiredCount("stream.slide.shard"), 0u);

  // A two-shard window shrunk to one shard (3 rows clamp to 3/2 = 1) and
  // grown back: every state matches a cold plane of its rows.
  StreamingDataset window(d, {.capacity = 20, .num_shards = 2});
  ReferenceWindow reference(d);
  const auto slide = [&](std::size_t evict, std::size_t admit) {
    const auto rows = InteriorRows(rng, admit, d);
    ASSERT_TRUE(window.Slide(evict, rows).ok());
    reference.Slide(evict, rows);
  };
  slide(0, 20);
  ASSERT_EQ(window.num_shards(), 2u);
  EXPECT_NE(&window.shard(0), &window.prepared());
  ExpectWindowMatchesColdPlane(window,
                               ShardedDataset(reference.AsDataset(), 2));
  slide(18, 1);
  ASSERT_EQ(window.num_shards(), 1u);
  EXPECT_EQ(&window.shard(0), &window.prepared());
  EXPECT_EQ(window.shard_content_epoch(0), window.epoch());
  ExpectWindowMatchesColdPlane(window, PreparedDataset(reference.AsDataset()));
  slide(0, 17);
  ASSERT_EQ(window.num_shards(), 2u);
  EXPECT_NE(&window.shard(0), &window.prepared());
  ExpectWindowMatchesColdPlane(window,
                               ShardedDataset(reference.AsDataset(), 2));
}

// ---------------------------------------------------------------------------
// Slide-vs-cold byte identity (the acceptance criterion): after any
// sequence of slides, searching, the contrast matrix and ranking the
// plane are byte-identical to a cold rebuild over the identical window — PreparedDataset when
// unsharded, ShardedDataset at the same shard count otherwise — at every
// thread count.

/// Slides a window of `shards` shards built with `build_threads`, and
/// after every slide checks its search, contrast matrix and rankings
/// against a cold plane of the same rows at 1, 2 and 4 threads.
void ExpectSlidesMatchColdRebuild(std::size_t shards,
                                  std::size_t build_threads) {
  Rng rng(31 + shards);
  const std::size_t d = 4;
  const std::size_t capacity = 36;
  StreamingDataset streaming(d, {.capacity = capacity,
                                 .num_shards = shards,
                                 .build_threads = build_threads});
  ReferenceWindow reference(d);

  HicsParams params;
  params.num_iterations = 10;
  params.output_top_k = 6;
  GridDensityParams grid_params;
  grid_params.bins_per_dim = 6;
  const GridDensityScorer grid_scorer(grid_params);
  const LofScorer lof_scorer({.min_pts = 5});

  for (int step = 0; step < 8; ++step) {
    const std::size_t admit = 3 + rng.UniformIndex(5);
    std::size_t evict =
        streaming.size() >= 10 ? 1 + rng.UniformIndex(5) : 0;
    const std::size_t incoming = streaming.size() - evict + admit;
    if (incoming > capacity) evict += incoming - capacity;
    const auto rows = InteriorRows(rng, admit, d);
    ASSERT_TRUE(streaming.Slide(evict, rows).ok());
    reference.Slide(evict, rows);
    if (streaming.size() < 8) continue;

    const Dataset cold_ds = reference.AsDataset();
    ExpectWindowEquals(streaming, cold_ds);

    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      params.num_threads = threads;
      const auto streamed_search = RunHicsSearch(streaming, params);
      ASSERT_TRUE(streamed_search.ok());
      const auto streamed_rank = RankWithSubspaces(
          streaming, *streamed_search, grid_scorer, ScoreAggregation::kAverage,
          ShardedScoringPolicy::kRequireExactMerge, threads);
      ASSERT_TRUE(streamed_rank.ok());
      // The search and the matrix read the window through the ShardPlane
      // overloads; a one-shard window is its own shard.
      ContrastMatrixParams matrix_params;
      matrix_params.contrast.num_iterations = params.num_iterations;
      matrix_params.num_threads = threads;
      const auto streamed_matrix =
          ComputeContrastMatrix(streaming, matrix_params);
      ASSERT_TRUE(streamed_matrix.ok());

      if (streaming.num_shards() == 1) {
        const PreparedDataset cold(cold_ds);
        const auto cold_search = RunHicsSearch(cold, params);
        ASSERT_TRUE(cold_search.ok());
        ExpectSameScored(*streamed_search, *cold_search);
        const auto cold_matrix = ComputeContrastMatrix(cold, matrix_params);
        ASSERT_TRUE(cold_matrix.ok());
        ExpectSameMatrixBits(*streamed_matrix, *cold_matrix);
        EXPECT_EQ(*streamed_rank,
                  RankWithSubspaces(cold, PlainSubspaces(*cold_search),
                                    grid_scorer, ScoreAggregation::kAverage,
                                    threads));
        // Neighbor-based scorers take the prepared path too when the
        // plane is unsharded.
        const auto streamed_lof = RankWithSubspaces(
            streaming, *streamed_search, lof_scorer,
            ScoreAggregation::kAverage,
            ShardedScoringPolicy::kAllowApproximation, threads);
        ASSERT_TRUE(streamed_lof.ok());
        EXPECT_EQ(*streamed_lof,
                  RankWithSubspaces(cold, PlainSubspaces(*cold_search),
                                    lof_scorer, ScoreAggregation::kAverage,
                                    threads));
      } else {
        const ShardedDataset cold(cold_ds, shards, threads);
        ASSERT_EQ(cold.num_shards(), streaming.num_shards());
        const auto cold_search = RunHicsSearch(cold, params);
        ASSERT_TRUE(cold_search.ok());
        ExpectSameScored(*streamed_search, *cold_search);
        const auto cold_matrix = ComputeContrastMatrix(cold, matrix_params);
        ASSERT_TRUE(cold_matrix.ok());
        ExpectSameMatrixBits(*streamed_matrix, *cold_matrix);
        const auto cold_rank = RankWithSubspacesSharded(
            cold, *cold_search, grid_scorer, ScoreAggregation::kAverage,
            ShardedScoringPolicy::kRequireExactMerge, threads);
        ASSERT_TRUE(cold_rank.ok());
        EXPECT_EQ(*streamed_rank, *cold_rank);
      }
    }
  }
}

class StreamingIdentityTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamingIdentityTest, SlidesMatchColdRebuildAcrossThreadCounts) {
  const std::size_t shards = GetParam();
  // build_threads = 0 means hardware concurrency, like every other
  // thread knob; the window must come out the same for it.
  for (std::size_t build_threads : {std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("build_threads " + std::to_string(build_threads));
    ExpectSlidesMatchColdRebuild(shards, build_threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, StreamingIdentityTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}));

TEST(StreamingIdentityWarmTest, RepeatQueriesAfterASlideHitAndAgree) {
  Rng rng(37);
  const std::size_t d = 4;
  StreamingDataset streaming(d, {.capacity = 32, .num_shards = 2});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 32, d)).ok());

  GridDensityParams grid_params;
  grid_params.bins_per_dim = 5;
  const GridDensityScorer scorer(grid_params);
  const std::vector<Subspace> subspaces = {Subspace{0, 1}, Subspace{2, 3}};

  ASSERT_TRUE(streaming.Slide(4, InteriorRows(rng, 4, d)).ok());
  const auto first =
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact, 2);
  ASSERT_TRUE(first.ok());
  std::uint64_t hits_before = 0;
  for (std::size_t s = 0; s < streaming.num_shards(); ++s) {
    hits_before += streaming.shard_cache_stats(s).hits();
  }
  const auto second =
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact, 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  std::uint64_t hits_after = 0;
  for (std::size_t s = 0; s < streaming.num_shards(); ++s) {
    hits_after += streaming.shard_cache_stats(s).hits();
  }
  EXPECT_GT(hits_after, hits_before);  // warm pass served from the caches
}

// ---------------------------------------------------------------------------
// Shard-precise invalidation: a slide aligned to the shard width moves
// every surviving block wholesale, so exactly one slot is rebuilt and
// the untouched slots' artifacts keep serving hits.

TEST(StreamingShardReuseTest, AlignedSlideRebuildsOnlyTheNewSlot) {
  Rng rng(41);
  const std::size_t d = 3;
  const std::size_t capacity = 40;
  const std::size_t shards = 4;  // shard width 10
  StreamingDataset streaming(d,
                             {.capacity = capacity, .num_shards = shards});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, capacity, d)).ok());
  ASSERT_EQ(streaming.num_shards(), shards);

  // Warm every shard's cache (LOF per-shard vectors: searcher + kNN
  // table + score vector each).
  const LofScorer scorer({.min_pts = 4});
  const std::vector<Subspace> subspaces = {Subspace{0, 1}, Subspace{1, 2}};
  ASSERT_TRUE(RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg,
                                       kApprox, 2)
                  .ok());

  std::vector<std::uint64_t> content_epochs(shards);
  std::vector<ArtifactCacheStats> stats_before(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    content_epochs[s] = streaming.shard_content_epoch(s);
    stats_before[s] = streaming.shard_cache_stats(s);
    EXPECT_GT(stats_before[s].misses(), 0u);  // the warmup populated it
  }

  // Slide exactly one shard width: blocks re-align, slots shift one
  // position, only the tail slot holds new rows.
  ASSERT_TRUE(streaming.Slide(10, InteriorRows(rng, 10, d)).ok());
  ASSERT_EQ(streaming.num_shards(), shards);
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    // Surviving slots carried their content epoch from position s + 1.
    EXPECT_EQ(streaming.shard_content_epoch(s), content_epochs[s + 1])
        << "slot " << s << " was rebuilt by an aligned slide";
  }
  EXPECT_EQ(streaming.shard_content_epoch(shards - 1), streaming.epoch());

  // Re-rank: surviving slots answer purely from their caches (no new
  // misses); only the rebuilt slot computes.
  ASSERT_TRUE(RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg,
                                       kApprox, 2)
                  .ok());
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    const ArtifactCacheStats after = streaming.shard_cache_stats(s);
    EXPECT_EQ(after.misses(), stats_before[s + 1].misses())
        << "surviving slot " << s << " rebuilt an artifact";
    EXPECT_GT(after.hits(), stats_before[s + 1].hits())
        << "surviving slot " << s << " did not serve from cache";
    EXPECT_EQ(after.evicted_artifacts, stats_before[s + 1].evicted_artifacts);
  }
  // The rebuilt slot recycled the retired slot 0's cache: its artifacts
  // were swept (counted) and fresh ones were built.
  const ArtifactCacheStats rebuilt = streaming.shard_cache_stats(shards - 1);
  EXPECT_GT(rebuilt.evicted_artifacts,
            stats_before[0].evicted_artifacts);
  EXPECT_GT(rebuilt.invalidated_bytes, stats_before[0].invalidated_bytes);
  EXPECT_GT(rebuilt.misses(), stats_before[0].misses());
}

// ---------------------------------------------------------------------------
// Window grids: a slide sweeps the cached whole-window grid even when the
// attribute ranges (and so its cache key) survive, and the next rank
// re-bins it to exactly what a cold window would build.

TEST(StreamingWindowGridTest, SlideEvictsAndRebinsTheWindowGrid) {
  Rng rng(43);
  const std::size_t d = 3;
  StreamingDataset streaming(d, {.capacity = 24, .num_shards = 1});
  // Pin the global range of every attribute with two extreme rows
  // admitted LAST (so the slide never evicts them): the grid key stays
  // the same across the slide.
  auto rows = InteriorRows(rng, 22, d);
  rows.push_back(std::vector<double>(d, 0.05));
  rows.push_back(std::vector<double>(d, 0.95));
  ASSERT_TRUE(streaming.Admit(rows).ok());

  GridDensityParams grid_params;
  grid_params.bins_per_dim = 6;
  const GridDensityScorer scorer(grid_params);
  const std::vector<Subspace> subspaces = {Subspace{0, 1}};

  ASSERT_TRUE(
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact)
          .ok());
  ArtifactCacheStats stats = streaming.window_cache_stats();
  EXPECT_EQ(stats.grid_misses, 1u);
  EXPECT_EQ(stats.grid_hits, 0u);
  EXPECT_EQ(stats.evicted_artifacts, 0u);

  ASSERT_TRUE(streaming.Slide(4, InteriorRows(rng, 4, d)).ok());
  EXPECT_EQ(streaming.prepared().cache().num_grids(), 0u);
  EXPECT_GT(streaming.window_cache_stats().evicted_artifacts, 0u);
  const auto ranked =
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact);
  ASSERT_TRUE(ranked.ok());
  stats = streaming.window_cache_stats();
  EXPECT_EQ(stats.grid_misses, 2u);  // re-binned, not served stale
  EXPECT_EQ(stats.grid_hits, 0u);

  // The re-binned grid scores byte-identically to a cold window.
  const Dataset cold_ds = streaming.window();
  const PreparedDataset cold(cold_ds);
  ExpectSameBits(*ranked, RankWithSubspaces(cold, subspaces, scorer));
}

// ---------------------------------------------------------------------------
// Fault-injected slides: a failed slide degrades (the previous window
// keeps serving, byte-identically) and never poisons a cache.

TEST(StreamingFaultTest, FailedSlideLeavesThePlaneServingTheOldWindow) {
  Rng rng(47);
  const std::size_t d = 3;
  StreamingDataset streaming(d, {.capacity = 20, .num_shards = 2});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 20, d)).ok());
  const std::uint64_t epoch = streaming.epoch();

  GridDensityParams grid_params;
  grid_params.bins_per_dim = 5;
  const GridDensityScorer scorer(grid_params);
  const std::vector<Subspace> subspaces = {Subspace{0, 1}, Subspace{1, 2}};
  const auto before =
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact);
  ASSERT_TRUE(before.ok());

  FaultInjector injector;
  injector.FailNthCall("stream.slide", epoch + 1,
                       Status::Internal("injected slide fault"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const auto rows = InteriorRows(rng, 5, d);
  const auto failed = streaming.Slide(5, rows, &ctx);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(streaming.epoch(), epoch);
  EXPECT_EQ(streaming.size(), 20u);

  // The degraded plane still answers — byte-identically to before.
  const auto after =
      RankWithSubspacesSharded(streaming, subspaces, scorer, kAvg, kExact);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);

  // The same slide retried without the armed injector succeeds and
  // matches a cold rebuild: nothing was poisoned by the failure. (Fault
  // ordinals are epoch-keyed, so a retry *with* the injector re-fires
  // deterministically — the rule is positional, not one-shot.)
  EXPECT_EQ(injector.FiredCount("stream.slide"), 1u);
  ASSERT_TRUE(streaming.Slide(5, rows).ok());
  EXPECT_EQ(streaming.epoch(), epoch + 1);
  const auto cold_ds = streaming.window();
  const ShardedDataset cold(cold_ds, 2);
  const auto streamed = RankWithSubspacesSharded(
      streaming, subspaces, scorer, kAvg, kExact, 2);
  const auto colded = RankWithSubspacesSharded(
      cold, subspaces, scorer, ScoreAggregation::kAverage,
      ShardedScoringPolicy::kRequireExactMerge, 2);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(colded.ok());
  EXPECT_EQ(*streamed, *colded);
}

TEST(StreamingFaultTest, FailedShardRebuildDegradesWithoutPoisoning) {
  Rng rng(53);
  const std::size_t d = 3;
  StreamingDataset streaming(d, {.capacity = 16, .num_shards = 2});
  ASSERT_TRUE(streaming.Admit(InteriorRows(rng, 16, d)).ok());
  const std::uint64_t epoch = streaming.epoch();
  const Dataset before = streaming.window();

  FaultInjector injector;
  injector.FailNthCall("stream.slide.shard", 1,
                       Status::Internal("injected shard rebuild fault"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  const auto rows = InteriorRows(rng, 4, d);
  ASSERT_FALSE(streaming.Slide(4, rows, &ctx).ok());
  EXPECT_EQ(streaming.epoch(), epoch);
  ExpectWindowEquals(streaming, before);

  // Retry without the injector: the full slide applies atomically.
  EXPECT_EQ(injector.FiredCount("stream.slide.shard"), 1u);
  ASSERT_TRUE(streaming.Slide(4, rows).ok());
  EXPECT_EQ(streaming.epoch(), epoch + 1);
  EXPECT_EQ(streaming.size(), 16u);
}

TEST(StreamingFaultTest, RandomFaultSequenceNeverDivergesFromReplay) {
  Rng rng(59);
  const std::size_t d = 3;
  StreamingDataset streaming(d, {.capacity = 18, .num_shards = 2});
  ReferenceWindow reference(d);

  FaultInjector injector;
  injector.FailWithProbability("stream.slide", 0.35, /*seed=*/7,
                               Status::Internal("injected"));
  RunContext ctx;
  ctx.SetFaultInjector(&injector);

  GridDensityParams grid_params;
  grid_params.bins_per_dim = 4;
  const GridDensityScorer scorer(grid_params);
  const std::vector<Subspace> subspaces = {Subspace{0, 2}};

  for (int step = 0; step < 25; ++step) {
    const std::size_t admit = 1 + rng.UniformIndex(4);
    std::size_t evict =
        streaming.size() > 2 ? rng.UniformIndex(streaming.size() / 2) : 0;
    const std::size_t incoming = streaming.size() - evict + admit;
    if (incoming > 18) evict += incoming - 18;
    const auto rows = InteriorRows(rng, admit, d);
    // Only successful slides advance the reference; failed ones must be
    // invisible. A failed epoch re-fails deterministically (the draw is
    // keyed on the epoch ordinal), so the clean retry drops the injector
    // — exactly the caller's recover-and-retry path.
    if (streaming.Slide(evict, rows, &ctx).ok()) {
      reference.Slide(evict, rows);
    } else {
      ExpectWindowEquals(streaming, reference.AsDataset());
      ASSERT_TRUE(streaming.Slide(evict, rows).ok());
      reference.Slide(evict, rows);
    }
    ExpectWindowEquals(streaming, reference.AsDataset());
    if (streaming.size() >= 6) {
      const auto streamed = RankWithSubspacesSharded(
          streaming, subspaces, scorer, kAvg, kExact, 2);
      ASSERT_TRUE(streamed.ok());
      const Dataset cold_ds = reference.AsDataset();
      if (streaming.num_shards() == 1) {
        const PreparedDataset cold(cold_ds);
        EXPECT_EQ(*streamed, RankWithSubspaces(cold, subspaces, scorer));
      } else {
        const ShardedDataset cold(cold_ds, 2);
        const auto colded = RankWithSubspacesSharded(
            cold, subspaces, scorer, ScoreAggregation::kAverage,
            ShardedScoringPolicy::kRequireExactMerge, 2);
        ASSERT_TRUE(colded.ok());
        EXPECT_EQ(*streamed, *colded);
      }
    }
  }
  EXPECT_GT(injector.FiredCount("stream.slide"), 0u);
}

// ---------------------------------------------------------------------------
// Grid cache keys.

TEST(StreamingGridOpsTest, GridArtifactKeyEncodesRangeBits) {
  std::vector<std::pair<double, double>> r1 = {{0.0, 1.0}, {0.25, 0.75}};
  std::vector<std::pair<double, double>> r2 = r1;
  const std::string k1 = GridArtifactKey(8, false, r1);
  EXPECT_EQ(k1, GridArtifactKey(8, false, r2));
  EXPECT_NE(k1, GridArtifactKey(9, false, r1));
  EXPECT_NE(k1, GridArtifactKey(8, true, r1));
  // Each range contributes its two 16-digit hex fields whole, the ','
  // between them and the trailing ';': 16+1+16+1 characters.
  const std::string prefix = "grid:bins=8:pk=0:r=";
  ASSERT_EQ(k1.substr(0, prefix.size()), prefix);
  const std::size_t per_range = 16 + 1 + 16 + 1;
  ASSERT_EQ(k1.size(), prefix.size() + r1.size() * per_range);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const std::string range = k1.substr(prefix.size() + i * per_range,
                                        per_range);
    EXPECT_EQ(range[16], ',') << "range " << i << ": " << range;
    EXPECT_EQ(range.back(), ';') << "range " << i << ": " << range;
  }
  // One ULP of range shift must change the key.
  r2[1].second = std::nextafter(r2[1].second, 1.0);
  EXPECT_NE(k1, GridArtifactKey(8, false, r2));
}

}  // namespace
}  // namespace hics
