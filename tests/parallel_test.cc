// Tests for the parallel primitives and the determinism guarantees of the
// parallel HiCS / LOF paths (thread count must never change any result).

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/hics.h"
#include "data/synthetic.h"
#include "outlier/lof.h"

namespace hics {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 3u, 8u, 33u}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(0, 100, threads, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, RespectsRange) {
  std::atomic<std::size_t> count{0};
  ParallelFor(10, 25, 4, [&](std::size_t i) {
    EXPECT_GE(i, 10u);
    EXPECT_LT(i, 25u);
    ++count;
  });
  EXPECT_EQ(count.load(), 15u);
}

TEST(ParallelForTest, EmptyRangeNoop) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(0, 3, 64, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SumMatchesSerial) {
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> out(values.size());
  ParallelFor(0, values.size(), 8,
              [&](std::size_t i) { out[i] = values[i] * 2.0; });
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i], 2.0 * values[i]);
  }
}

TEST(DefaultNumThreadsTest, AtLeastOne) {
  EXPECT_GE(DefaultNumThreads(), 1u);
}

TEST(ParallelForTest, ZeroThreadsMeansHardwareConcurrency) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, hits.size(), 0, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ----------------------------------------- ParallelTryFor error semantics --

TEST(ParallelTryForTest, AllOkVisitsEveryIndex) {
  for (std::size_t threads : {0u, 1u, 4u, 16u}) {
    std::vector<std::atomic<int>> hits(50);
    const Status st = ParallelTryFor(0, 50, threads, [&](std::size_t i) {
      ++hits[i];
      return Status::OK();
    });
    EXPECT_TRUE(st.ok());
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelTryForTest, EmptyRangeReturnsOkWithoutCalling) {
  std::atomic<int> calls{0};
  const Status st = ParallelTryFor(7, 7, 4, [&](std::size_t) {
    ++calls;
    return Status::Internal("never");
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelTryForTest, SerialStopsAtFirstError) {
  std::atomic<int> calls{0};
  const Status st = ParallelTryFor(0, 100, 1, [&](std::size_t i) {
    ++calls;
    if (i == 13) return Status::IOError("broke at 13");
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "broke at 13");
  // Serial execution stops immediately after the failing index.
  EXPECT_EQ(calls.load(), 14);
}

TEST(ParallelTryForTest, FirstErrorWinsDeterministically) {
  // Several indices fail; the reported error must always be the smallest
  // failing index, regardless of thread count or which worker finishes
  // first.
  for (std::size_t threads : {1u, 2u, 4u, 16u}) {
    for (int repeat = 0; repeat < 10; ++repeat) {
      const Status st = ParallelTryFor(0, 64, threads, [&](std::size_t i) {
        if (i == 11 || i == 12 || i == 40 || i == 63) {
          return Status::Internal("fail " + std::to_string(i));
        }
        return Status::OK();
      });
      EXPECT_EQ(st.code(), StatusCode::kInternal);
      EXPECT_EQ(st.message(), "fail 11")
          << "threads=" << threads << " repeat=" << repeat;
    }
  }
}

TEST(ParallelTryForTest, ErrorStopsRemainingWork) {
  // Workers claim one index at a time, so once the failing call returns
  // each other worker finishes at most the one call it had already
  // claimed. Index 0 is the first claim and fails at once; every other
  // call holds until well after that failure (bounded, in case no failure
  // comes), so no worker can slip a second call in while the error is
  // being recorded.
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kThreads = 4;
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::map<std::thread::id, int> calls_per_thread;
  std::thread::id failing_thread;
  const Status st = ParallelTryFor(0, 1000, kThreads, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++calls_per_thread[std::this_thread::get_id()];
      if (i == 0) failing_thread = std::this_thread::get_id();
    }
    if (i == 0) {
      failed.store(true);
      return Status::Internal("immediate");
    }
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while (!failed.load() && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "immediate");
  EXPECT_LE(calls_per_thread.size(), kThreads);
  int total = 0;
  for (const auto& [thread, calls] : calls_per_thread) {
    EXPECT_EQ(calls, 1) << (thread == failing_thread ? "failing" : "other")
                        << " worker ran more than its one claimed call";
    total += calls;
  }
  EXPECT_LE(total, static_cast<int>(kThreads));
}

TEST(ParallelTryForTest, SlowIndexDoesNotHoldBackLaterIndices) {
  // Index 0 waits (bounded, so a regression fails instead of hanging)
  // until indices 1..3 have run. Under static chunks index 1 would queue
  // behind index 0 on the same worker and the wait would time out.
  using Clock = std::chrono::steady_clock;
  std::atomic<int> later_done{0};
  std::atomic<bool> saw_later{false};
  const Status st = ParallelTryFor(0, 4, 2, [&](std::size_t i) {
    if (i != 0) {
      later_done.fetch_add(1);
      return Status::OK();
    }
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while (later_done.load() < 3 && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    saw_later.store(later_done.load() == 3);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(saw_later.load()) << "indices 1..3 waited behind index 0";
  EXPECT_EQ(later_done.load(), 3);
}

TEST(ParallelTryForTest, ShouldStopWindsDownWithoutError) {
  std::atomic<int> calls{0};
  const Status st = ParallelTryFor(
      0, 1000, 1,
      [&](std::size_t) {
        ++calls;
        return Status::OK();
      },
      [&] { return calls.load() >= 5; });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelDeterminismTest, HicsIndependentOfThreadCount) {
  SyntheticParams gen;
  gen.num_objects = 400;
  gen.num_attributes = 10;
  gen.seed = 77;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  HicsParams serial;
  serial.num_iterations = 30;
  serial.num_threads = 1;
  auto r1 = RunHicsSearch(data->data, serial);

  HicsParams parallel = serial;
  parallel.num_threads = 4;
  auto r2 = RunHicsSearch(data->data, parallel);

  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (std::size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].subspace, (*r2)[i].subspace) << "rank " << i;
    EXPECT_DOUBLE_EQ((*r1)[i].score, (*r2)[i].score);
  }
}

TEST(ParallelDeterminismTest, LofIndependentOfThreadCount) {
  SyntheticParams gen;
  gen.num_objects = 500;
  gen.num_attributes = 6;
  gen.seed = 78;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  LofScorer serial({.min_pts = 10, .num_threads = 1});
  LofScorer parallel({.min_pts = 10, .num_threads = 8});
  const auto s1 = serial.ScoreFullSpace(data->data);
  const auto s2 = parallel.ScoreFullSpace(data->data);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1[i], s2[i]);
  }
}

TEST(ParallelDeterminismTest, HicsAutoThreadsRuns) {
  SyntheticParams gen;
  gen.num_objects = 200;
  gen.num_attributes = 6;
  gen.seed = 79;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  HicsParams params;
  params.num_iterations = 10;
  params.num_threads = 0;  // auto
  EXPECT_TRUE(RunHicsSearch(data->data, params).ok());
}

}  // namespace
}  // namespace hics
